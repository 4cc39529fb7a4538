package mining

import "sigfim/internal/dataset"

// Kernel identifies the k-itemset kernel a mining call ran. Auto resolves to
// one per call through chooseKernel, the single place the choice is made;
// the choice changes speed only, never the mined itemsets or supports.
type Kernel uint8

const (
	// KernelNone means no k-itemset kernel ran: k = 1 (an item scan),
	// Apriori or FP-Growth.
	KernelNone Kernel = iota
	// KernelTids is Eclat over sorted tid lists.
	KernelTids
	// KernelBits is Eclat over dense bitsets.
	KernelBits
	// KernelHash is transaction-subset enumeration into a hash table.
	KernelHash
)

// chooseKernel picks the kernel that mines the k-itemsets of v at minSupport
// under algo (Auto, EclatTids or EclatBits):
//   - EclatBits forces the bitset layout;
//   - otherwise the hash path, when useHashPathLens says transaction-subset
//     enumeration is cheap (k >= 2, a floor of at most hashPathMaxSupport,
//     a bounded subset volume);
//   - otherwise, under Auto, eclatLayout: bitset Eclat when
//     dense(v, minSupport), tid-list Eclat otherwise;
//   - otherwise (EclatTids) tid-list Eclat.
//
// Both Eclat layouts walk the same prefix tree in the same order and compute
// the same supports, so switching between them cannot change a single
// emitted (itemset, support) pair or its position.
func chooseKernel(v *dataset.Vertical, k, minSupport int, algo Algorithm, s *Scratch) Kernel {
	switch {
	case algo == EclatBits:
		return KernelBits
	case k >= 2 && minSupport <= hashPathMaxSupport && useHashPathLens(s.scratchLengths(v), k, minSupport):
		return KernelHash
	case algo == Auto:
		return eclatLayout(v, minSupport)
	}
	return KernelTids
}

// eclatLayout is Auto's choice between the two Eclat layouts. EclatK calls
// it without the hash path: its materialized results keep the Eclat DFS
// order, and the sharded Eclat search of the final mine outran the serial
// hash path on the low floors where both apply.
func eclatLayout(v *dataset.Vertical, minSupport int) Kernel {
	if dense(v, minSupport) {
		return KernelBits
	}
	return KernelTids
}

// mineSerial streams kernel kn's k-itemsets to emit from one goroutine, in
// that kernel's order; emit receives a scratch slice valid only during the
// call.
func mineSerial(kn Kernel, v *dataset.Vertical, k, minSupport int, s *Scratch, emit func(Itemset, int)) {
	switch kn {
	case KernelHash:
		hashMineK(v, k, minSupport, s, emit)
	case KernelBits:
		eclatKBitset(v, k, minSupport, s, emit)
	default:
		eclatKTidList(v, k, minSupport, s, emit)
	}
}

// shards is one Eclat search split into its first-item subtrees for a worker
// pool: mine(w, first, emit) mines subtree first with worker w's child
// Scratch, and run spreads the n subtrees over the workers.
type shards struct {
	n, workers int
	mine       func(w, first int, emit func(Itemset, int))
}

// shardKernel prepares kernel kn for a sharded run over up to workers
// goroutines. ok is false when the run stays serial: one worker, or the hash
// path, which is chosen precisely when the total work is small.
func shardKernel(kn Kernel, v *dataset.Vertical, k, minSupport, workers int, s *Scratch) (sh shards, ok bool) {
	if workers <= 1 || kn == KernelHash {
		return shards{}, false
	}
	if k < 1 || minSupport < 1 {
		panic("mining: EclatK requires k >= 1 and minSupport >= 1")
	}
	s.items = frequentItemsInto(s.items[:0], v, minSupport)
	items := s.items
	if len(items) < k {
		return shards{workers: 1}, true
	}
	sh.n = len(items) - k + 1
	sh.workers = shardWorkers(s, sh.n, workers)
	if kn == KernelBits {
		cols := s.columns(v, items)
		for w := 0; w < sh.workers; w++ {
			s.child(w).ensureBits(v.NumTransactions, k)
		}
		sh.mine = func(w, first int, emit func(Itemset, int)) {
			eclatKBitsetSubtree(v, items, cols, s.child(w), k, minSupport, first, emit)
		}
	} else {
		sh.mine = func(w, first int, emit func(Itemset, int)) {
			eclatKTidListSubtree(v, items, k, minSupport, first, s.child(w), emit)
		}
	}
	return sh, true
}

// run calls fn(worker, first) once for every subtree.
func (sh shards) run(fn func(w, first int)) { parallelShards(sh.n, sh.workers, fn) }

// collect mines every subtree into its own buffer. Concatenated in subtree
// order, the buffers are exactly the serial DFS emission order.
func (sh shards) collect() [][]Result {
	bufs := make([][]Result, sh.n)
	sh.run(func(w, first int) {
		sh.mine(w, first, func(is Itemset, sup int) {
			bufs[first] = append(bufs[first], Result{Items: is.Clone(), Support: sup})
		})
	})
	return bufs
}

// visitKernel streams kernel kn's k-itemsets to emit in kn's serial order,
// mining the Eclat subtrees with a worker pool when workers > 1 and
// replaying their buffers in subtree order. emit is never called
// concurrently. The serial case streams straight from s and allocates
// nothing once s has warmed up.
func visitKernel(kn Kernel, v *dataset.Vertical, k, minSupport, workers int, s *Scratch, emit func(Itemset, int)) {
	s.kernel = kn
	sh, ok := shardKernel(kn, v, k, minSupport, workers, s)
	if !ok {
		mineSerial(kn, v, k, minSupport, s, emit)
		return
	}
	bufs := sh.collect()
	for i, b := range bufs {
		for _, r := range b {
			emit(r.Items, r.Support)
		}
		bufs[i] = nil // release as we replay; emit may retain copies of its own
	}
}

// mineKernel is visitKernel materializing the results.
func mineKernel(kn Kernel, v *dataset.Vertical, k, minSupport, workers int, s *Scratch) []Result {
	if sh, ok := shardKernel(kn, v, k, minSupport, workers, s); ok {
		return mergeShardResults(sh.collect())
	}
	var out []Result
	mineSerial(kn, v, k, minSupport, s, func(is Itemset, sup int) {
		out = append(out, Result{Items: is.Clone(), Support: sup})
	})
	return out
}

// histogramKernel counts kernel kn's k-itemsets by support into per-worker
// histograms merged by integer addition, so the histogram is the same for
// every kernel and every worker count.
func histogramKernel(kn Kernel, v *dataset.Vertical, k, minSupport, workers int, s *Scratch) []int64 {
	size := v.MaxItemSupport() + 1
	sh, ok := shardKernel(kn, v, k, minSupport, workers, s)
	if !ok {
		hist := make([]int64, size)
		mineSerial(kn, v, k, minSupport, s, func(_ Itemset, sup int) { hist[sup]++ })
		return hist
	}
	hists := newWorkerHistograms(sh.workers, size)
	sh.run(func(w, first int) {
		sh.mine(w, first, func(_ Itemset, sup int) { hists[w][sup]++ })
	})
	return mergeWorkerHistograms(hists)
}
