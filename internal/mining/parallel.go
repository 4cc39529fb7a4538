package mining

import (
	"runtime"
	"sync"
	"sync/atomic"

	"sigfim/internal/dataset"
)

// Parallel mining engine. The Eclat prefix tree decomposes into independent
// subtrees, one per first item (in eclat support order); those subtrees are
// the sharding unit. Workers claim subtrees dynamically off an atomic counter
// (subtree sizes are wildly skewed, so static striping would load-balance
// poorly), write into per-subtree result buffers, and the driver concatenates
// the buffers in subtree order — which is exactly the serial DFS emission
// order, so parallel mining is identical to serial mining for every worker
// count, including output order.

// ResolveWorkers maps a Workers knob value to a concrete goroutine count:
// values <= 0 select runtime.NumCPU().
func ResolveWorkers(w int) int {
	if w <= 0 {
		return runtime.NumCPU()
	}
	return w
}

// shardWorkers caps the worker count at the shard count (a worker beyond that
// would never claim work) and pre-creates the per-worker child scratches —
// child() mutates the parent and must not be called from concurrent shards.
func shardWorkers(s *Scratch, n, workers int) int {
	if workers > n {
		workers = n
	}
	for w := 0; w < workers; w++ {
		s.child(w)
	}
	return workers
}

// parallelShards runs fn(worker, shard) for every shard in [0, n), spreading
// shards over `workers` goroutines via dynamic claiming. fn must be safe for
// concurrent invocation across distinct worker ids; each worker id runs on a
// single goroutine, so per-worker state needs no locking.
func parallelShards(n, workers int, fn func(worker, shard int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for s := 0; s < n; s++ {
			fn(0, s)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				s := int(next.Add(1)) - 1
				if s >= n {
					return
				}
				fn(w, s)
			}
		}(w)
	}
	wg.Wait()
}

// EclatKParallel is EclatK with a worker pool (workers <= 0: NumCPU); the
// layout is chosen by eclatLayout, as in EclatK.
func EclatKParallel(v *dataset.Vertical, k, minSupport, workers int) []Result {
	return mineKernel(eclatLayout(v, minSupport), v, k, minSupport, ResolveWorkers(workers), NewScratch())
}

// EclatKTidListParallel mines k-itemsets over tid lists with a worker pool.
// Output is identical (including order) to EclatKTidList for any worker count.
func EclatKTidListParallel(v *dataset.Vertical, k, minSupport, workers int) []Result {
	return mineKernel(KernelTids, v, k, minSupport, ResolveWorkers(workers), NewScratch())
}

// EclatKBitsetParallel mines k-itemsets over dense bitsets with a worker
// pool; the columns are shared read-only, intersection scratch is per worker.
func EclatKBitsetParallel(v *dataset.Vertical, k, minSupport, workers int) []Result {
	return mineKernel(KernelBits, v, k, minSupport, ResolveWorkers(workers), NewScratch())
}

// EclatAllParallel mines all sizes (up to maxLen; <= 0 unbounded) with a
// worker pool. Output is identical to EclatAll for any worker count.
func EclatAllParallel(v *dataset.Vertical, minSupport, maxLen, workers int) []Result {
	if minSupport < 1 {
		panic("mining: EclatAll requires minSupport >= 1")
	}
	if workers = ResolveWorkers(workers); workers <= 1 {
		return EclatAll(v, minSupport, maxLen)
	}
	items := frequentItems(v, minSupport)
	if len(items) <= 1 {
		return EclatAll(v, minSupport, maxLen)
	}
	bufs := make([][]Result, len(items))
	parallelShards(len(items), workers, func(_, first int) {
		bufs[first] = eclatAllSubtree(v, items, minSupport, maxLen, first, nil)
	})
	return mergeShardResults(bufs)
}

// CountKParallel is CountK with a worker pool: the Auto kernel's per-worker
// support histograms, summed.
func CountKParallel(v *dataset.Vertical, k, minSupport, workers int) int64 {
	if k < 1 || minSupport < 1 {
		panic("mining: CountK requires k >= 1 and minSupport >= 1")
	}
	return QFromHistogram(supportHistogramAlgo(v, k, minSupport, workers, Auto, nil), 0)
}

// newWorkerHistograms allocates one int64 histogram of the given size per
// worker.
func newWorkerHistograms(workers, size int) [][]int64 {
	hists := make([][]int64, workers)
	for w := range hists {
		hists[w] = make([]int64, size)
	}
	return hists
}

// mergeWorkerHistograms sums the per-worker histograms into the first one by
// integer addition and returns it; the merged result is therefore identical
// for any worker count.
func mergeWorkerHistograms(hists [][]int64) []int64 {
	out := hists[0]
	for _, h := range hists[1:] {
		for s, c := range h {
			out[s] += c
		}
	}
	return out
}

// SupportHistogramParallel is SupportHistogram with a worker pool:
// per-worker histograms over the sharded eclat search, merged by integer
// addition, so the result is exactly SupportHistogram's for any worker count.
func SupportHistogramParallel(v *dataset.Vertical, k, minSupport, workers int) []int64 {
	return supportHistogramAlgo(v, k, minSupport, workers, Auto, nil)
}

// supportHistogramAlgo is the histogram of the kernel chooseKernel picks for
// algo (Auto, EclatTids or EclatBits), with a threaded Scratch (nil
// allowed); a reused Scratch makes repeated histogram runs allocation-free
// apart from the returned histogram itself.
func supportHistogramAlgo(v *dataset.Vertical, k, minSupport, workers int, algo Algorithm, s *Scratch) []int64 {
	if k < 1 || minSupport < 1 {
		panic("mining: SupportHistogram requires k >= 1 and minSupport >= 1")
	}
	s = ensureScratch(s)
	return histogramKernel(chooseKernel(v, k, minSupport, algo, s), v, k, minSupport, ResolveWorkers(workers), s)
}

// VisitKParallel streams every k-itemset with support >= minSupport to emit
// in exactly VisitK's order, mining the eclat subtrees with a worker pool and
// replaying the per-subtree buffers sequentially. emit itself is never called
// concurrently, and the itemset it receives is owned by the callee only for
// the duration of the call, as with VisitK. The hash-mining path and k = 1
// stay serial (both are trivial fractions of the total work when selected).
func VisitKParallel(v *dataset.Vertical, k, minSupport, workers int, emit func(items Itemset, support int)) {
	visitKParallel(v, k, minSupport, workers, Auto, nil, emit)
}

// visitKParallel is VisitKParallel for algo (Auto or EclatTids) with a
// threaded Scratch (nil allowed). k = 1 is answered from the item supports in
// item-id order; otherwise chooseKernel picks the kernel.
func visitKParallel(v *dataset.Vertical, k, minSupport, workers int, algo Algorithm, s *Scratch, emit func(items Itemset, support int)) {
	if k < 1 || minSupport < 1 {
		panic("mining: VisitK requires k >= 1 and minSupport >= 1")
	}
	if k == 1 {
		for it, l := range v.Tids {
			if len(l) >= minSupport {
				emit(Itemset{uint32(it)}, len(l))
			}
		}
		return
	}
	s = ensureScratch(s)
	visitKernel(chooseKernel(v, k, minSupport, algo, s), v, k, minSupport, ResolveWorkers(workers), s, emit)
}

// mergeShardResults concatenates per-subtree buffers in subtree order.
func mergeShardResults(bufs [][]Result) []Result {
	total := 0
	for _, b := range bufs {
		total += len(b)
	}
	if total == 0 {
		return nil
	}
	out := make([]Result, 0, total)
	for _, b := range bufs {
		out = append(out, b...)
	}
	return out
}
