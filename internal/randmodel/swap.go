package randmodel

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"sigfim/internal/dataset"
	"sigfim/internal/stats"
)

// Swap randomization (Gionis, Mannila, Mielikäinen, Tsaparas, KDD 2006):
// a Markov chain over 0/1 matrices with fixed row and column sums. One step
// picks two occurrences (t1, i1), (t2, i2) with i1 ≠ i2, t1 ≠ t2,
// i2 ∉ t1, i1 ∉ t2 and rewires them to (t1, i2), (t2, i1). Every state
// reachable this way has exactly the same item supports and transaction
// lengths as the input; running the chain long enough approximates a uniform
// draw from that state space. The paper discusses this as the alternative
// null model of [10]; we ship it as a first-class null for the significance
// pipeline alongside the independence model.

// SwapModel adapts swap randomization to the Model interface: every Generate
// (or GenerateInto) re-runs the chain from the reference dataset with a fresh
// stream, so replicates are independent approximate draws from the fixed-
// margin state space. The per-replicate chain length is the model's burn-in:
// every replicate pays it in full because the chain restarts from Base.
//
// SwapModel implements InPlaceGenerator through a shared immutable snapshot
// of the chain-start state (built once) and a pool of per-worker chain
// scratches, so the Monte Carlo replicate loop generates swap replicates
// without per-replicate allocation. Use it by pointer (&SwapModel{...}):
// the methods have pointer receivers because the model carries the shared
// once-guarded snapshot and the scratch pool, and must not be copied.
//
// The chain tests membership mostly without reading rows: each scratch
// keeps, for rows of up to 128 items, a bucket filter of 64 one-byte counts
// of the row's items by item mod 64. A zero count proves an item absent; a
// nonzero one falls back to scanning the row, so every answer is exact and
// the chain's decisions are those of a plain scan. Filters cost 64 bytes
// per row per scratch, and rows get them longest first while they take at
// most twice the bytes of the scratch's 4-byte occurrence slots.
//
// Callers that take the chain length from outside the program check it with
// Validate before generating: generation panics on a length Validate rejects.
type SwapModel struct {
	Base *dataset.Dataset
	// ProposalsPerOccurrence controls chain length relative to the number of
	// ones in the matrix (default 8 when zero): each replicate runs
	// ProposalsPerOccurrence * |occurrences| proposals.
	ProposalsPerOccurrence int
	// Proposals, when positive, fixes the absolute number of proposals per
	// replicate and overrides ProposalsPerOccurrence.
	Proposals int

	prepOnce sync.Once
	prep     *swapBase
	pool     sync.Pool // *swapScratch
}

// NumTransactions returns t.
func (m *SwapModel) NumTransactions() int { return m.Base.NumTransactions() }

// NumItems returns n.
func (m *SwapModel) NumItems() int { return m.Base.NumItems() }

// ItemFrequencies returns the base dataset's frequencies, which every chain
// state shares (swaps preserve column margins exactly).
func (m *SwapModel) ItemFrequencies() []float64 { return m.Base.Frequencies() }

// Validate reports whether the chain length is usable on Base: both knobs
// must be non-negative, and ProposalsPerOccurrence times the number of ones
// in Base must fit in an int. An overflowing product would wrap to a chain
// of zero or few proposals, and every "null" replicate would be Base itself.
func (m *SwapModel) Validate() error {
	occ := 0
	for _, tr := range m.Base.Transactions() {
		occ += len(tr)
	}
	_, err := m.proposals(occ)
	return err
}

// proposals returns the per-replicate chain length for occ occurrences.
func (m *SwapModel) proposals(occ int) (int, error) {
	if m.ProposalsPerOccurrence < 0 || m.Proposals < 0 {
		return 0, fmt.Errorf("swap chain lengths must be >= 0, got %d proposals per occurrence and %d proposals",
			m.ProposalsPerOccurrence, m.Proposals)
	}
	if m.Proposals > 0 {
		return m.Proposals, nil
	}
	ppo := m.ProposalsPerOccurrence
	if ppo == 0 {
		ppo = 8
	}
	if occ > 0 && ppo > math.MaxInt/occ {
		return 0, fmt.Errorf("swap chain of %d proposals per occurrence over %d occurrences overflows int",
			ppo, occ)
	}
	return ppo * occ, nil
}

// Generate runs a fresh chain into a new Vertical; see GenerateInto.
func (m *SwapModel) Generate(r *stats.RNG) *dataset.Vertical {
	v := &dataset.Vertical{}
	m.GenerateInto(r, v)
	return v
}

// GenerateInto runs a fresh chain in pooled scratch space and materializes
// the result into v (reshaped via Reuse, per-item column backing arrays
// retained). The proposal sequence, the accept/reject decisions and the
// resulting dataset depend only on Base, the chain length and r, so pooled
// generation is interchangeable at every worker count.
func (m *SwapModel) GenerateInto(r *stats.RNG, v *dataset.Vertical) {
	b := m.prepare()
	proposals, err := m.proposals(len(b.occRow))
	if err != nil {
		panic(err)
	}
	sc, _ := m.pool.Get().(*swapScratch)
	if sc == nil {
		sc = &swapScratch{}
	}
	sc.reset(b)
	sc.run(b, proposals, r)
	sc.materialize(b, v)
	m.pool.Put(sc)
}

// swapScanMax is the longest row whose membership test is a linear scan of
// its occurrence slots. A longer row also keeps a sorted copy, searched by
// bisection and shifted on every accepted swap. Measured on uniform rows of
// length L over 4L and 40L items, the scan stays ahead up to L = 256 and
// falls behind by L = 512; on 2,000-item rows it is 4x slower than the
// bisection. 128 leaves a margin on both sides. The bucket filters do not
// move this cutoff: a row of 128 items leaves a given bucket empty with
// probability (63/64)^128, about 13%, so near the cutoff nearly every test
// still scans. The cutoff also caps a filter's count at 128, inside uint8.
const swapScanMax = 128

// swapFilterBytes is the size of one row's bucket filter: a uint8 count of
// the row's items x for each bucket x&63.
const swapFilterBytes = 64

// prepare builds (once) the immutable chain-start snapshot shared by every
// worker's scratch.
func (m *SwapModel) prepare() *swapBase {
	m.prepOnce.Do(func() {
		d := m.Base
		tx := d.Transactions()
		total := 0
		var hist [swapScanMax + 1]int // rows by length, up to swapScanMax
		for _, tr := range tx {
			total += len(tr)
			if len(tr) <= swapScanMax {
				hist[len(tr)]++
			}
		}
		// Filter the rows of filterMin..swapScanMax items, with filterMin
		// as small as keeps every filter together within twice the 4-byte
		// occurrence slots: longer rows first, as their scans cost most.
		b := &swapBase{
			numItems:  d.NumItems(),
			tx:        tx,
			occRow:    make([]uint32, total),
			rows:      make([]swapRow, 0, len(tx)),
			filterMin: swapScanMax + 1,
		}
		for l := swapScanMax; l >= 1 && swapFilterBytes*(b.filtered+hist[l]) <= 2*4*total; l-- {
			b.filtered += hist[l]
			b.filterMin = l
		}
		// Number the filtered rows first, then the rest, each in tid order.
		for _, filtered := range []bool{true, false} {
			off := 0
			for tid, tr := range tx {
				if b.hasFilter(len(tr)) != filtered {
					off += len(tr)
					continue
				}
				r := len(b.rows)
				if len(tr) > swapScanMax {
					if b.sortedOff == nil {
						b.sortedOff = make([]int, len(tx))
					}
					b.sortedOff[r] = b.sortedLen
					b.sortedLen += len(tr)
				}
				b.rows = append(b.rows, swapRow{off: off, n: uint32(len(tr)), tid: uint32(tid)})
				for range tr {
					b.occRow[off] = uint32(r)
					off++
				}
			}
		}
		m.prep = b
	})
	return m.prep
}

// swapBase is the immutable chain-start state shared by every worker: the
// base dataset's sorted rows, and where a scratch keeps each row's chain
// state. Occurrences are enumerated transaction by transaction in ascending
// tid order, so each transaction owns a run of occurrence slots, and the
// chain's occurrence->item array doubles as the row store: a slot always
// belongs to the same row, whichever item it currently holds.
//
// Rows are numbered apart from tids: rows [0, filtered) are those of
// filterMin..swapScanMax items, which keep bucket filters, and the others
// follow. Row r's filter is swapScratch.counts[64r : 64r+64], so a
// proposal reaches the filter from the slot's row number alone.
type swapBase struct {
	numItems  int
	tx        [][]uint32 // the base rows by tid, the chain's start (shared, read-only)
	occRow    []uint32   // occurrence slot -> row number (never mutated by the chain)
	rows      []swapRow  // by row number
	filtered  int        // rows [0, filtered) keep bucket filters
	filterMin int        // the shortest row with a filter
	sortedOff []int      // by row number: a long row's sorted copy starts at swapScratch.sorted[sortedOff[r]]; nil when no row is longer than swapScanMax
	sortedLen int        // length of a scratch's sorted copies
}

// swapRow locates one row's chain state: occurrence slots [off, off+n) of
// transaction tid.
type swapRow struct {
	off    int
	n, tid uint32
}

// hasFilter reports whether a row of l items keeps a bucket filter.
func (b *swapBase) hasFilter(l int) bool { return l >= b.filterMin && l <= swapScanMax }

// swapScratch is one worker's mutable chain state, reset from the base rows
// per replicate. counts holds the bucket filters: counts[64r+k] is the
// number of row r's items x with x&63 == k. The filter is exact in the one
// direction it is used: a zero count means no item of the row falls in x's
// bucket, so x is absent and the row is not read; a nonzero count falls
// back to the scan. A count never exceeds the row's length, at most
// swapScanMax, so uint8 cannot overflow.
type swapScratch struct {
	occItem  []uint32 // occurrence -> item id (chain state, unsorted within rows)
	sorted   []uint32 // sorted copies of the long rows (chain state)
	counts   []uint8  // bucket filters of rows [0, filtered) (chain state)
	filtered int      // the base's filtered row count, kept here so absent and move inline
}

// reset restores the scratch to the chain-start state: every row's slots,
// and each long row's sorted copy or filtered row's bucket counts.
func (sc *swapScratch) reset(b *swapBase) {
	n, nc := len(b.occRow), swapFilterBytes*b.filtered
	sc.occItem = slices.Grow(sc.occItem[:0], n)[:n]
	sc.sorted = slices.Grow(sc.sorted[:0], b.sortedLen)[:b.sortedLen]
	sc.counts = slices.Grow(sc.counts[:0], nc)[:nc]
	clear(sc.counts)
	sc.filtered = b.filtered
	for r, row := range b.rows {
		tr := b.tx[row.tid]
		copy(sc.occItem[row.off:], tr)
		if r < b.filtered {
			f := sc.counts[swapFilterBytes*r : swapFilterBytes*(r+1)]
			for _, x := range tr {
				f[x&63]++
			}
		} else if len(tr) > swapScanMax {
			copy(sc.sorted[b.sortedOff[r]:], tr)
		}
	}
}

// searchU32 returns the first index in w whose value is >= x.
func searchU32(w []uint32, x uint32) int {
	lo, hi := 0, len(w)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if w[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// absent reports whether row r's bucket filter proves that the row does
// not hold x: r keeps a filter and x's bucket count is zero.
func (sc *swapScratch) absent(r, x uint32) bool {
	return int(r) < sc.filtered && sc.counts[swapFilterBytes*int(r)+int(x&63)] == 0
}

// move records in row r's bucket filter that the row gave up item old for
// item new. It reports false, recording nothing, when r keeps no filter.
func (sc *swapScratch) move(r, old, new uint32) bool {
	if int(r) >= sc.filtered {
		return false
	}
	f := sc.counts[swapFilterBytes*int(r):]
	f[old&63]--
	f[new&63]++
	return true
}

// holds reports whether row r holds x, by bisecting its sorted copy when it
// has one, else by scanning its slots.
func (sc *swapScratch) holds(b *swapBase, r, x uint32) bool {
	row := b.rows[r]
	n := int(row.n)
	if n > swapScanMax {
		s := sc.sorted[b.sortedOff[r]:][:n]
		i := searchU32(s, x)
		return i < n && s[i] == x
	}
	for _, y := range sc.occItem[row.off : row.off+n] {
		if y == x {
			return true
		}
	}
	return false
}

// replace records that the unfiltered row r gave up item old for item new
// in its sorted copy, when it is long enough to keep one. The caller
// rewrites the slot itself.
func (sc *swapScratch) replace(b *swapBase, r, old, new uint32) {
	if n := int(b.rows[r].n); n > swapScanMax {
		replaceSorted(sc.sorted[b.sortedOff[r]:][:n], old, new)
	}
}

// replaceSorted swaps item old for item new in the sorted row w, keeping it
// sorted. old must be present and new absent (the chain checks both).
func replaceSorted(w []uint32, old, new uint32) {
	p := searchU32(w, old)
	q := searchU32(w, new)
	if q > p {
		copy(w[p:q-1], w[p+1:q])
		w[q-1] = new
	} else {
		copy(w[q+1:p+1], w[q:p])
		w[q] = new
	}
}

// run executes the Markov chain of Gionis et al.: two draws from [0, n) per
// proposal, the values r.Intn(n) would return (none when fewer than two
// occurrences exist); a proposal is rejected when it picks one slot twice,
// two slots of one transaction or of one item, or when either rewired
// transaction already holds the incoming item. Most membership tests on a
// filtered row end at a zero bucket count, reached from the slot's row
// number without reading the row. An accepted swap rewrites the two slots
// and adjusts each row's filter or sorted copy.
func (sc *swapScratch) run(b *swapBase, proposals int, r *stats.RNG) {
	n := len(b.occRow)
	if n < 2 {
		return
	}
	occ, occRow := sc.occItem, b.occRow
	draw := stats.NewFixedIntn(n)
	for p := 0; p < proposals; p++ {
		a, ok := draw.Reduce(r.Uint64())
		if !ok {
			a = draw.Draw(r)
		}
		c, ok := draw.Reduce(r.Uint64())
		if !ok {
			c = draw.Draw(r)
		}
		if a == c {
			continue
		}
		r1, i1 := occRow[a], occ[a]
		r2, i2 := occRow[c], occ[c]
		if r1 == r2 || i1 == i2 ||
			!sc.absent(r1, i2) && sc.holds(b, r1, i2) ||
			!sc.absent(r2, i1) && sc.holds(b, r2, i1) {
			continue
		}
		if !sc.move(r1, i1, i2) {
			sc.replace(b, r1, i1, i2)
		}
		if !sc.move(r2, i2, i1) {
			sc.replace(b, r2, i2, i1)
		}
		occ[a], occ[c] = i2, i1
	}
}

// materialize writes the current chain state into v in vertical layout.
// Slots are visited in ascending order, which is ascending tid order, so
// every item's tid list comes out sorted although rows are unsorted.
func (sc *swapScratch) materialize(b *swapBase, v *dataset.Vertical) {
	v.Reuse(len(b.tx), b.numItems)
	for j, it := range sc.occItem {
		v.Tids[it] = append(v.Tids[it], b.rows[b.occRow[j]].tid)
	}
}
