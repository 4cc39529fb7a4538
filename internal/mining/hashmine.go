package mining

import (
	"sigfim/internal/dataset"
)

// Low-threshold mining path. Eclat's pruning collapses when minSupport is a
// handful of transactions: with threshold 1 every item is "frequent" and the
// DFS probes every candidate extension even though almost all have empty
// intersections. For sparse datasets (short transactions) the k-itemsets
// with support >= 1 are exactly the k-subsets occurring inside transactions,
// so enumerating each transaction's C(len, k) subsets into a hash table is
// dramatically cheaper. chooseKernel estimates that enumeration cost from the
// transaction length histogram and picks the faster strategy.
//
// The counting table is a string-free ItemsetTable (open addressing over the
// packed item tuples) with a parallel count array, both pooled in the
// Scratch; emission replays the table in insertion order, which is
// deterministic (first-occurrence order over the transaction scan), unlike
// the Go map iteration the original implementation leaned on.

// subsetBudget caps the per-transaction enumeration volume (and with it the
// hash table size) before falling back to Eclat.
const subsetBudget = 3_000_000

// hashPathMaxSupport bounds the thresholds for which the hash path is even
// considered; at higher thresholds Eclat's pruning works fine.
const hashPathMaxSupport = 8

// transactionLengthsInto recovers the per-transaction lengths from the
// vertical layout in O(total occurrences), into a caller-sized buffer (len
// must be v.NumTransactions; contents are overwritten).
func transactionLengthsInto(lens []int, v *dataset.Vertical) []int {
	for i := range lens {
		lens[i] = 0
	}
	for _, l := range v.Tids {
		for _, tid := range l {
			lens[tid]++
		}
	}
	return lens
}

// scratchLengths returns the pooled transaction-length buffer.
func (s *Scratch) scratchLengths(v *dataset.Vertical) []int {
	if cap(s.lens) < v.NumTransactions {
		s.lens = make([]int, v.NumTransactions)
	}
	s.lens = s.lens[:v.NumTransactions]
	return transactionLengthsInto(s.lens, v)
}

// subsetEnumerationCost returns sum over transactions of C(len, k), capped
// at limit+1 once it exceeds the limit.
func subsetEnumerationCost(lens []int, k int, limit int64) int64 {
	var total int64
	for _, n := range lens {
		if n < k {
			continue
		}
		// C(n, k) with overflow care for the small k we use (k <= ~8).
		c := int64(1)
		for i := 0; i < k; i++ {
			c = c * int64(n-i) / int64(i+1)
			if c > limit {
				return limit + 1
			}
		}
		total += c
		if total > limit {
			return limit + 1
		}
	}
	return total
}

// useHashPathLens decides, from the transaction lengths, whether
// transaction-subset enumeration beats Eclat.
func useHashPathLens(lens []int, k, minSupport int) bool {
	if k < 2 || minSupport > hashPathMaxSupport {
		return false
	}
	return subsetEnumerationCost(lens, k, subsetBudget) <= subsetBudget
}

// hashMineK enumerates every k-subset of every transaction, counts them in
// the scratch's ItemsetTable, and emits those reaching minSupport in table
// insertion order. emit receives a scratch itemset valid only during the
// call.
func hashMineK(v *dataset.Vertical, k, minSupport int, s *Scratch, emit func(Itemset, int)) {
	// Rebuild horizontal transactions from the vertical layout, packed into
	// the pooled conversion target (transactions shorter than k are still
	// materialized there; they are skipped below).
	d := s.horizontal(v)
	if s.table == nil {
		s.table = NewItemsetTable(k, 0)
	} else {
		s.table.Reset(k)
	}
	counts := s.counts[:0]
	s.ensureDepth(k)
	idx := s.prefix[:k]
	for _, tr := range d.Transactions() {
		if len(tr) < k {
			continue
		}
		var rec func(pos, start int)
		rec = func(pos, start int) {
			if pos == k {
				id, added := s.table.Insert(idx)
				if added {
					counts = append(counts, 0)
				}
				counts[id]++
				return
			}
			for i := start; i <= len(tr)-(k-pos); i++ {
				idx[pos] = tr[i]
				rec(pos+1, i+1)
			}
		}
		rec(0, 0)
	}
	s.counts = counts
	for id := 0; id < s.table.Len(); id++ {
		if int(counts[id]) >= minSupport {
			emit(Itemset(s.table.Items(id)), int(counts[id]))
		}
	}
}

// VisitK streams every k-itemset with support >= minSupport to emit,
// choosing the kernel by chooseKernel under Auto. The itemset slice passed to
// emit is only valid during the call.
func VisitK(v *dataset.Vertical, k, minSupport int, emit func(items Itemset, support int)) {
	visitKParallel(v, k, minSupport, 1, Auto, nil, emit)
}

// MineK mines size-k itemsets with the automatic strategy choice,
// materializing the results.
func MineK(v *dataset.Vertical, k, minSupport int) []Result {
	var out []Result
	VisitK(v, k, minSupport, func(items Itemset, sup int) {
		out = append(out, Result{Items: items.Clone(), Support: sup})
	})
	return out
}
