package mining

import (
	"fmt"

	"sigfim/internal/dataset"
)

// Algorithm selects the mining strategy.
type Algorithm int

const (
	// Auto picks the kernel per call: bitset Eclat when the frequent
	// columns are dense, tid-list Eclat otherwise, and — on the streaming
	// VisitK, histogram and counting paths — the hash path at low floors on
	// sparse data (see chooseKernel). Both Eclat layouts emit the same
	// itemsets, supports and order, so the layout changes speed only.
	Auto Algorithm = iota
	// EclatTids forces vertical mining over sorted tid lists (the streaming
	// VisitK and histogram paths still take the hash path where Auto would).
	EclatTids
	// EclatBits forces vertical mining over dense bitsets.
	EclatBits
	// Apriori forces level-wise horizontal mining.
	Apriori
	// FPGrowth forces FP-tree mining.
	FPGrowth
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case Auto:
		return "auto"
	case EclatTids:
		return "eclat-tids"
	case EclatBits:
		return "eclat-bits"
	case Apriori:
		return "apriori"
	case FPGrowth:
		return "fpgrowth"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ParseAlgorithm maps an algorithm name (as accepted by the CLIs and the
// public API) to its Algorithm value. The empty string selects Auto; "eclat"
// is an alias for "eclat-tids".
func ParseAlgorithm(name string) (Algorithm, error) {
	switch name {
	case "", "auto":
		return Auto, nil
	case "eclat", "eclat-tids":
		return EclatTids, nil
	case "eclat-bits":
		return EclatBits, nil
	case "apriori":
		return Apriori, nil
	case "fpgrowth":
		return FPGrowth, nil
	default:
		return Auto, fmt.Errorf("mining: unknown algorithm %q", name)
	}
}

// Options configures a mining run.
type Options struct {
	// K restricts output to itemsets of exactly this size when positive;
	// zero mines all sizes (bounded by MaxLen).
	K int
	// MinSupport is the absolute support threshold (>= 1).
	MinSupport int
	// MaxLen caps itemset size when K is zero; <= 0 means unbounded.
	MaxLen int
	// Algorithm selects the strategy; Auto by default, which for K > 0
	// picks bitset or tid-list Eclat by density (see eclatLayout) and for
	// K = 0 mines all sizes over tid lists.
	Algorithm Algorithm
	// Workers bounds the goroutines of the parallel engine; 0 selects
	// runtime.NumCPU(), 1 forces the serial path. For a fixed algorithm the
	// output is identical — values and order — for every worker count:
	// Eclat shards first-item prefix classes, Apriori shards its counting
	// scans, and FP-Growth shards the header-table suffix classes of the
	// global tree. (Orders differ BETWEEN algorithms: Eclat emits DFS
	// order, Apriori and FP-Growth emit lexicographically sorted output.)
	Workers int
}

// Mine runs the configured algorithm against the dataset. Both layouts are
// accepted; whichever the algorithm does not need is derived on the fly.
func Mine(d *dataset.Dataset, opts Options) ([]Result, error) {
	if opts.MinSupport < 1 {
		return nil, fmt.Errorf("mining: MinSupport must be >= 1, got %d", opts.MinSupport)
	}
	if opts.K < 0 {
		return nil, fmt.Errorf("mining: K must be >= 0, got %d", opts.K)
	}
	switch opts.Algorithm {
	case Auto, EclatTids, EclatBits:
		return MineVertical(d.Vertical(), opts)
	case Apriori:
		if opts.K > 0 {
			return AprioriKParallel(d, opts.K, opts.MinSupport, opts.Workers), nil
		}
		return AprioriAllParallel(d, opts.MinSupport, opts.MaxLen, opts.Workers), nil
	case FPGrowth:
		if opts.K > 0 {
			return FPGrowthKParallel(d, opts.K, opts.MinSupport, opts.Workers), nil
		}
		return FPGrowthAllParallel(d, opts.MinSupport, opts.MaxLen, opts.Workers), nil
	default:
		return nil, fmt.Errorf("mining: unknown algorithm %v", opts.Algorithm)
	}
}

// MineVertical mines directly from the vertical layout (the natural input
// when datasets come from the random generator). Auto with K > 0 picks the
// Eclat layout by density, as in EclatK; Apriori and FP-Growth mine a
// horizontal conversion.
func MineVertical(v *dataset.Vertical, opts Options) ([]Result, error) {
	if opts.MinSupport < 1 {
		return nil, fmt.Errorf("mining: MinSupport must be >= 1, got %d", opts.MinSupport)
	}
	switch opts.Algorithm {
	case Auto:
		if opts.K > 0 {
			return EclatKParallel(v, opts.K, opts.MinSupport, opts.Workers), nil
		}
		return EclatAllParallel(v, opts.MinSupport, opts.MaxLen, opts.Workers), nil
	case EclatTids:
		if opts.K > 0 {
			return EclatKTidListParallel(v, opts.K, opts.MinSupport, opts.Workers), nil
		}
		return EclatAllParallel(v, opts.MinSupport, opts.MaxLen, opts.Workers), nil
	case EclatBits:
		if opts.K > 0 {
			return EclatKBitsetParallel(v, opts.K, opts.MinSupport, opts.Workers), nil
		}
		return EclatAllParallel(v, opts.MinSupport, opts.MaxLen, opts.Workers), nil
	case Apriori, FPGrowth:
		d := v.Horizontal()
		return Mine(d, opts)
	default:
		return nil, fmt.Errorf("mining: unknown algorithm %v", opts.Algorithm)
	}
}

// VisitKAlgoParallel streams every k-itemset with support >= minSupport to
// emit using the selected algorithm with a worker pool. emit is never called
// concurrently, and — for every algorithm — the itemset it receives is a
// scratch slice valid only during the call (clone it to retain it), as with
// VisitK. For a fixed algorithm the emission order is identical for every
// worker count (orders differ BETWEEN algorithms: Eclat variants emit DFS
// order, Apriori and FP-Growth emit lexicographically sorted output).
func VisitKAlgoParallel(v *dataset.Vertical, k, minSupport, workers int, algo Algorithm, emit func(items Itemset, support int)) {
	VisitKAlgoScratch(v, k, minSupport, workers, algo, nil, emit)
}

// VisitKAlgoScratch is VisitKAlgoParallel with a threaded Scratch (nil
// allowed); output — values and order — is identical to VisitKAlgoParallel.
// This is the entry point of the Monte Carlo replicate engine: with a reused
// per-worker Scratch the serial paths of every algorithm (Eclat over tid
// lists or bitsets, FP-Growth, the hash path) stream straight from pooled
// buffers, so a worker's second replicate allocates nothing. Under Auto the
// kernel is chosen per call by chooseKernel; s.LastKernel reports it.
func VisitKAlgoScratch(v *dataset.Vertical, k, minSupport, workers int, algo Algorithm, s *Scratch, emit func(items Itemset, support int)) {
	s = ensureScratch(s)
	s.kernel = KernelNone
	switch algo {
	case EclatBits:
		// Forced bitsets keep their DFS order at k = 1 too.
		visitKernel(KernelBits, v, k, minSupport, ResolveWorkers(workers), s, emit)
	case Apriori:
		for _, r := range AprioriKParallel(s.horizontal(v), k, minSupport, workers) {
			emit(r.Items, r.Support)
		}
	case FPGrowth:
		// fpGrowthVisitK streams the lexicographically sorted patterns from
		// the scratch's flat collection — the same values and order
		// FPGrowthKParallel materializes, without the per-Result allocations.
		fpGrowthVisitK(s.horizontal(v), k, minSupport, workers, s, emit)
	default:
		visitKParallel(v, k, minSupport, workers, algo, s, emit)
	}
}

// SupportHistogramAlgoParallel is SupportHistogramParallel with an explicit
// algorithm choice; every algorithm yields the exact same histogram, so the
// choice only affects performance. FP-Growth streams shard-local counts
// without materializing itemsets; EclatBits streams over the dense bitset
// kernels; Apriori counts from its k-th level, which level-wise mining
// materializes regardless.
func SupportHistogramAlgoParallel(v *dataset.Vertical, k, minSupport, workers int, algo Algorithm) []int64 {
	return SupportHistogramAlgoScratch(v, k, minSupport, workers, algo, nil)
}

// SupportHistogramAlgoScratch is SupportHistogramAlgoParallel with a threaded
// Scratch (nil allowed): a reused Scratch pools the horizontal conversion,
// the dense columns, the FP-tree arenas, and the DFS buffers across calls.
func SupportHistogramAlgoScratch(v *dataset.Vertical, k, minSupport, workers int, algo Algorithm, s *Scratch) []int64 {
	s = ensureScratch(s)
	switch algo {
	case FPGrowth:
		return fpGrowthSupportHistogram(s.horizontal(v), k, minSupport, workers, v.MaxItemSupport()+1, s)
	case Apriori:
		hist := make([]int64, v.MaxItemSupport()+1)
		for _, r := range AprioriKParallel(s.horizontal(v), k, minSupport, workers) {
			hist[r.Support]++
		}
		return hist
	default:
		return supportHistogramAlgo(v, k, minSupport, workers, algo, s)
	}
}
