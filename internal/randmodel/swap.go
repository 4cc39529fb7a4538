package randmodel

import (
	"fmt"
	"math"
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
	proposals, err := m.proposals(len(b.occTid))
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
// bisection. 128 leaves a margin on both sides.
const swapScanMax = 128

// prepare builds (once) the immutable chain-start snapshot shared by every
// worker's scratch.
func (m *SwapModel) prepare() *swapBase {
	m.prepOnce.Do(func() {
		d := m.Base
		t := d.NumTransactions()
		total := 0
		for tid := 0; tid < t; tid++ {
			total += len(d.Transaction(tid))
		}
		b := &swapBase{
			numItems: d.NumItems(),
			numTx:    t,
			occTid:   make([]uint32, 0, total),
			occItem:  make([]uint32, 0, total),
			txOff:    make([]int, t+1),
		}
		for tid := 0; tid < t; tid++ {
			tr := d.Transaction(tid)
			b.txOff[tid] = len(b.occItem)
			b.occItem = append(b.occItem, tr...)
			for range tr {
				b.occTid = append(b.occTid, uint32(tid))
			}
			if len(tr) > swapScanMax {
				if b.sortedOff == nil {
					b.sortedOff = make([]int, t)
				}
				b.sortedOff[tid] = len(b.sorted)
				b.sorted = append(b.sorted, tr...)
			}
		}
		b.txOff[t] = len(b.occItem)
		m.prep = b
	})
	return m.prep
}

// swapBase is the immutable chain-start state. Occurrences are enumerated
// transaction by transaction in ascending tid order, so transaction t owns
// the occurrence slots [txOff[t], txOff[t+1]) and the chain's
// occurrence->item array doubles as the row store: slot j always belongs to
// transaction occTid[j], whichever item it currently holds.
type swapBase struct {
	numItems  int
	numTx     int
	occTid    []uint32 // occurrence -> transaction id (never mutated by the chain)
	occItem   []uint32 // occurrence -> item id at the chain start
	txOff     []int    // transaction t owns occurrence slots [txOff[t], txOff[t+1])
	sorted    []uint32 // sorted copies of the rows longer than swapScanMax
	sortedOff []int    // such a row t starts at sorted[sortedOff[t]]; nil when no row is that long
}

// swapScratch is one worker's mutable chain state, reset from the base
// snapshot with bulk copies per replicate.
type swapScratch struct {
	occItem []uint32 // occurrence -> item id (chain state, unsorted within rows)
	sorted  []uint32 // sorted copies of the long rows (chain state)
}

// reset restores the scratch to the chain-start state.
func (sc *swapScratch) reset(b *swapBase) {
	sc.occItem = append(sc.occItem[:0], b.occItem...)
	sc.sorted = append(sc.sorted[:0], b.sorted...)
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

// sortedRow returns the sorted copy of transaction t, whose row holds l
// items, or nil when the row is short enough to be scanned in place.
func (sc *swapScratch) sortedRow(b *swapBase, t uint32, l int) []uint32 {
	if l <= swapScanMax {
		return nil
	}
	off := b.sortedOff[t]
	return sc.sorted[off : off+l]
}

// member reports whether a row holds x: by bisecting its sorted copy when
// it has one, else by scanning its slots.
func member(row, sorted []uint32, x uint32) bool {
	if sorted != nil {
		i := searchU32(sorted, x)
		return i < len(sorted) && sorted[i] == x
	}
	for _, y := range row {
		if y == x {
			return true
		}
	}
	return false
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

// run executes the Markov chain of Gionis et al.: two Intn draws per
// proposal (none when fewer than two occurrences exist); a proposal is
// rejected when it picks one slot twice, two slots of one transaction or of
// one item, or when either rewired transaction already holds the incoming
// item. An accepted swap rewrites the two slots.
func (sc *swapScratch) run(b *swapBase, proposals int, r *stats.RNG) {
	n := len(b.occTid)
	if n < 2 {
		return
	}
	occ, occTid, txOff := sc.occItem, b.occTid, b.txOff
	for p := 0; p < proposals; p++ {
		a := r.Intn(n)
		c := r.Intn(n)
		if a == c {
			continue
		}
		t1, i1 := occTid[a], occ[a]
		t2, i2 := occTid[c], occ[c]
		if t1 == t2 || i1 == i2 {
			continue
		}
		row1 := occ[txOff[t1]:txOff[t1+1]]
		s1 := sc.sortedRow(b, t1, len(row1))
		if member(row1, s1, i2) {
			continue
		}
		row2 := occ[txOff[t2]:txOff[t2+1]]
		s2 := sc.sortedRow(b, t2, len(row2))
		if member(row2, s2, i1) {
			continue
		}
		if s1 != nil {
			replaceSorted(s1, i1, i2)
		}
		if s2 != nil {
			replaceSorted(s2, i2, i1)
		}
		occ[a], occ[c] = i2, i1
	}
}

// materialize writes the current chain state into v in vertical layout.
// Slots are visited in ascending tid order, so every item's tid list comes
// out sorted although rows are unsorted.
func (sc *swapScratch) materialize(b *swapBase, v *dataset.Vertical) {
	v.Reuse(b.numTx, b.numItems)
	for j, it := range sc.occItem {
		v.Tids[it] = append(v.Tids[it], b.occTid[j])
	}
}
