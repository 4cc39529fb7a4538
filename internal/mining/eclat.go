package mining

import (
	"sort"

	"sigfim/internal/bitset"
	"sigfim/internal/dataset"
)

// Eclat: vertical depth-first mining. The search tree is the prefix tree over
// items ordered by ascending support; each node carries the tid list (or
// bitset) of its prefix, refined by intersection as the search descends.
// Fixed-size-k mining prunes the tree at depth k, which is what the paper's
// procedures need (they mine k-itemsets for one k at a time).
//
// Every kernel threads a *Scratch carrying its mutable buffers (per-depth
// intersection storage, prefix and sort stacks, pooled dense columns), so a
// reused Scratch makes repeated mines — the Monte Carlo replicate loop —
// allocation-free in steady state.

// eclatDensityThreshold is the density switch of chooseKernel: Auto mines
// over bitsets when the average support of the frequent items exceeds this
// fraction of t (dense columns intersect faster as words), and over tid lists
// otherwise. It governs every Auto k-itemset path — Algorithm 1's replicate
// mining, Procedure 2's counting pass, CountKParallel and the final mine
// (EclatK).
const eclatDensityThreshold = 1.0 / 16

// ensureScratch returns s, or a fresh Scratch when s is nil (the un-pooled
// entry points).
func ensureScratch(s *Scratch) *Scratch {
	if s == nil {
		return NewScratch()
	}
	return s
}

// EclatK mines all k-itemsets with support >= minSupport, choosing the
// physical layout by eclatLayout.
func EclatK(v *dataset.Vertical, k, minSupport int) []Result {
	return EclatKParallel(v, k, minSupport, 1)
}

// dense estimates whether frequent columns are dense enough for bitsets.
func dense(v *dataset.Vertical, minSupport int) bool {
	if v.NumTransactions == 0 {
		return false
	}
	total, cnt := 0, 0
	for _, l := range v.Tids {
		if len(l) >= minSupport {
			total += len(l)
			cnt++
		}
	}
	if cnt == 0 {
		return false
	}
	avg := float64(total) / float64(cnt)
	return avg/float64(v.NumTransactions) > eclatDensityThreshold
}

// frequentItems returns items with support >= minSupport sorted by ascending
// support (the standard Eclat ordering: least frequent first shrinks
// intersections early), allocated at exactly the needed capacity.
func frequentItems(v *dataset.Vertical, minSupport int) []uint32 {
	n := 0
	for _, l := range v.Tids {
		if len(l) >= minSupport {
			n++
		}
	}
	return frequentItemsInto(make([]uint32, 0, n), v, minSupport)
}

// frequentItemsInto is frequentItems appending into a reused buffer.
func frequentItemsInto(items []uint32, v *dataset.Vertical, minSupport int) []uint32 {
	for it, l := range v.Tids {
		if len(l) >= minSupport {
			items = append(items, uint32(it))
		}
	}
	sort.Slice(items, func(a, b int) bool {
		la, lb := len(v.Tids[items[a]]), len(v.Tids[items[b]])
		if la != lb {
			return la < lb
		}
		return items[a] < items[b]
	})
	return items
}

// EclatKTidList is EclatK with sorted tid-list intersections.
func EclatKTidList(v *dataset.Vertical, k, minSupport int) []Result {
	return EclatKTidListParallel(v, k, minSupport, 1)
}

// eclatKTidList runs the DFS, invoking emit for every size-k itemset found.
// emit receives a scratch slice valid only during the call.
func eclatKTidList(v *dataset.Vertical, k, minSupport int, s *Scratch, emit func(Itemset, int)) {
	if k <= 0 || minSupport < 1 {
		panic("mining: EclatK requires k >= 1 and minSupport >= 1")
	}
	s = ensureScratch(s)
	s.items = frequentItemsInto(s.items[:0], v, minSupport)
	if len(s.items) < k {
		return
	}
	items := s.items
	for first := 0; first <= len(items)-k; first++ {
		eclatKTidListSubtree(v, items, k, minSupport, first, s, emit)
	}
}

// eclatKTidListSubtree mines the prefix-tree subtree rooted at items[first]:
// every size-k itemset whose least-frequent member (in eclat order) is
// items[first]. The subtrees for first = 0..len(items)-k partition the full
// search space, which is the unit of work the parallel driver shards; visiting
// them in ascending first reproduces the serial DFS emission order exactly.
func eclatKTidListSubtree(v *dataset.Vertical, items []uint32, k, minSupport, first int, s *Scratch, emit func(Itemset, int)) {
	it := items[first]
	base := v.Tids[it]
	if len(base) < minSupport {
		return
	}
	s.ensureDepth(k)
	prefix := append(s.prefix[:0], it)
	if k == 1 {
		s.emitSortedScratch(prefix, len(base), emit)
		return
	}
	var rec func(start int, tids bitset.TidList)
	rec = func(start int, tids bitset.TidList) {
		depth := len(prefix)
		for i := start; i <= len(items)-(k-depth); i++ {
			next := bitset.IntersectTo(s.tidBufs[depth][:0], tids, v.Tids[items[i]])
			s.tidBufs[depth] = next
			sup := len(next)
			if sup < minSupport {
				continue
			}
			prefix = append(prefix, items[i])
			if depth+1 == k {
				s.emitSortedScratch(prefix, sup, emit)
			} else {
				rec(i+1, next)
			}
			prefix = prefix[:depth]
		}
	}
	rec(first+1, base)
}

// emitSorted hands emit a freshly allocated, id-sorted copy of the prefix
// (items were visited in support order, not id order); the callee owns it.
// The all-sizes miners use it because their collectors retain the slice.
func emitSorted(prefix Itemset, sup int, emit func(Itemset, int)) {
	tmp := prefix.Clone()
	sortSmall(tmp)
	emit(tmp, sup)
}

// EclatKBitset is EclatK with dense bitset intersections.
func EclatKBitset(v *dataset.Vertical, k, minSupport int) []Result {
	return EclatKBitsetParallel(v, k, minSupport, 1)
}

// eclatKBitset runs the dense-bitset DFS, invoking emit for every size-k
// itemset found. emit receives a scratch slice valid only during the call.
func eclatKBitset(v *dataset.Vertical, k, minSupport int, s *Scratch, emit func(Itemset, int)) {
	if k <= 0 || minSupport < 1 {
		panic("mining: EclatK requires k >= 1 and minSupport >= 1")
	}
	s = ensureScratch(s)
	s.items = frequentItemsInto(s.items[:0], v, minSupport)
	if len(s.items) < k {
		return
	}
	items := s.items
	cols := s.columns(v, items)
	s.ensureBits(v.NumTransactions, k)
	for first := 0; first <= len(items)-k; first++ {
		eclatKBitsetSubtree(v, items, cols, s, k, minSupport, first, emit)
	}
}

// eclatKBitsetSubtree is eclatKTidListSubtree over dense bitset columns;
// cols[i] is the column of items[i]. The caller must have sized s's bitset
// scratch via ensureBits.
func eclatKBitsetSubtree(v *dataset.Vertical, items []uint32, cols []*bitset.Bitset, s *Scratch, k, minSupport, first int, emit func(Itemset, int)) {
	it := items[first]
	if len(v.Tids[it]) < minSupport {
		return
	}
	s.ensureDepth(k)
	prefix := append(s.prefix[:0], it)
	if k == 1 {
		s.emitSortedScratch(prefix, len(v.Tids[it]), emit)
		return
	}
	var rec func(start int, acc *bitset.Bitset)
	rec = func(start int, acc *bitset.Bitset) {
		depth := len(prefix)
		for i := start; i <= len(items)-(k-depth); i++ {
			next := s.bits[depth]
			next.And(acc, cols[i])
			sup := next.Count()
			if sup < minSupport {
				continue
			}
			prefix = append(prefix, items[i])
			if depth+1 == k {
				s.emitSortedScratch(prefix, sup, emit)
			} else {
				rec(i+1, next)
			}
			prefix = prefix[:depth]
		}
	}
	rec(first+1, cols[first])
}

// EclatAll mines every itemset (any size >= 1 up to maxLen; maxLen <= 0 means
// unbounded) with support >= minSupport using tid lists.
func EclatAll(v *dataset.Vertical, minSupport, maxLen int) []Result {
	if minSupport < 1 {
		panic("mining: EclatAll requires minSupport >= 1")
	}
	items := frequentItems(v, minSupport)
	var out []Result
	for first := range items {
		out = eclatAllSubtree(v, items, minSupport, maxLen, first, out)
	}
	return out
}

// eclatAllSubtree mines every itemset (all sizes) whose eclat-least item is
// items[first], appending to out. Like the fixed-k subtrees, ascending first
// reproduces the serial DFS order.
func eclatAllSubtree(v *dataset.Vertical, items []uint32, minSupport, maxLen, first int, out []Result) []Result {
	base := v.Tids[items[first]]
	if len(base) < minSupport {
		return out
	}
	prefix := make(Itemset, 1, 16)
	prefix[0] = items[first]
	emitSorted(prefix, len(base), func(is Itemset, s int) {
		out = append(out, Result{Items: is, Support: s})
	})
	var rec func(start int, tids bitset.TidList)
	rec = func(start int, tids bitset.TidList) {
		depth := len(prefix)
		if maxLen > 0 && depth == maxLen {
			return
		}
		for i := start; i < len(items); i++ {
			next := bitset.Intersect(tids, v.Tids[items[i]])
			sup := len(next)
			if sup < minSupport {
				continue
			}
			prefix = append(prefix, items[i])
			emitSorted(prefix, sup, func(is Itemset, s int) {
				out = append(out, Result{Items: is, Support: s})
			})
			rec(i+1, next)
			prefix = prefix[:depth]
		}
	}
	rec(first+1, base)
	return out
}
