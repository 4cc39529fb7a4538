package randmodel

import (
	"hash/fnv"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"sigfim/internal/dataset"
	"sigfim/internal/stats"
)

// In-place swap-generation tests: (*SwapModel).GenerateInto must consume the
// exact RNG stream of the map-based oracle chain and produce the identical
// dataset, including against golden fingerprints captured from the
// pre-refactor (map-based, allocating) implementation.

// swapGoldenBase rebuilds the fixed dataset the golden fingerprints were
// captured on: one independence-model draw at seed 99 (n=150, t=3000,
// power-law frequencies), materialized horizontally.
func swapGoldenBase() *dataset.Dataset {
	z := stats.FitPowerLaw(150, 1e-3, 0.12, 4)
	im := IndependentModel{T: 3000, Freqs: z.Frequencies()}
	return im.Generate(stats.NewRNG(99)).Horizontal()
}

// verticalFingerprint hashes a vertical layout column by column.
func verticalFingerprint(v *dataset.Vertical) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	w32 := func(x uint32) {
		buf[0], buf[1], buf[2], buf[3] = byte(x), byte(x>>8), byte(x>>16), byte(x>>24)
		h.Write(buf[:])
	}
	w32(uint32(v.NumTransactions))
	for it, l := range v.Tids {
		w32(uint32(it))
		w32(uint32(len(l)))
		for _, tid := range l {
			w32(tid)
		}
	}
	return h.Sum64()
}

// swapGoldenFingerprints pins SwapModel generation (ProposalsPerOccurrence 4)
// on swapGoldenBase for seeds 1..5, captured from the pre-refactor allocating
// implementation. Both Generate and GenerateInto must reproduce them.
var swapGoldenFingerprints = map[uint64]uint64{
	1: 0xd951f5d54992b85c,
	2: 0x77c50106d3b5b3f8,
	3: 0x3a96bbe88d813bec,
	4: 0xa9eecdf278321750,
	5: 0x58b35377601206d0,
}

func TestSwapGenerateMatchesPreRefactorGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second swap chains")
	}
	m := &SwapModel{Base: swapGoldenBase(), ProposalsPerOccurrence: 4}
	v := &dataset.Vertical{}
	for seed, want := range swapGoldenFingerprints {
		if got := verticalFingerprint(m.Generate(stats.NewRNG(seed))); got != want {
			t.Errorf("seed %d: Generate fingerprint %#x, want pre-refactor %#x", seed, got, want)
		}
		// The pooled path reuses v across seeds (dirty reuse on purpose).
		m.GenerateInto(stats.NewRNG(seed), v)
		if got := verticalFingerprint(v); got != want {
			t.Errorf("seed %d: GenerateInto fingerprint %#x, want pre-refactor %#x", seed, got, want)
		}
	}
}

// swapRows builds a dataset over n items from rows of the given lengths,
// each a uniform random subset of the universe.
func swapRows(n int, lens []int, seed uint64) *dataset.Dataset {
	r := stats.NewRNG(seed)
	tx := make([][]uint32, len(lens))
	for i, l := range lens {
		for _, it := range r.Perm(n)[:l] {
			tx[i] = append(tx[i], uint32(it))
		}
	}
	return dataset.MustNew(n, tx)
}

// repeatLens returns count copies of each length, interleaved.
func repeatLens(count int, lens ...int) []int {
	var out []int
	for i := 0; i < count; i++ {
		out = append(out, lens...)
	}
	return out
}

// oracleVertical runs the map-based reference chain for m's chain length
// from seed.
func oracleVertical(t *testing.T, m *SwapModel, seed uint64) *dataset.Vertical {
	t.Helper()
	sr := NewSwapRandomizer(m.Base)
	proposals, err := m.proposals(len(sr.occTid))
	if err != nil {
		t.Fatal(err)
	}
	sr.Run(proposals, stats.NewRNG(seed))
	return sr.Dataset().Vertical()
}

// bucketCollisionBase builds rows that load the bucket filters: rows whose
// items all fall in bucket 5 (item mod 64 = 5), one of them holding
// swapScanMax such items so that its count reaches 128, and rows that mix
// bucket-5 items with items from other buckets. 200 rows of five items make
// the filter budget bind, so that the shortest filtered length lands at 6
// and rows of 5, 6 and 7 items sit on both sides of it.
func bucketCollisionBase(t *testing.T) *dataset.Dataset {
	const buckets = swapScanMax + 2
	n := 64 * buckets
	r := stats.NewRNG(4)
	colliding := func(l int) []uint32 {
		var row []uint32
		for _, k := range r.Perm(buckets)[:l] {
			row = append(row, uint32(64*k+5))
		}
		return row
	}
	mixed := func(l int) []uint32 {
		row := colliding(l / 2)
		for len(row) < l {
			if it := uint32(r.Intn(n)); it%64 != 5 && !slices.Contains(row, it) {
				row = append(row, it)
			}
		}
		return row
	}
	tx := [][]uint32{colliding(swapScanMax), colliding(9), colliding(20), colliding(60)}
	for _, l := range []int{16, 32, 64, 100} {
		tx = append(tx, mixed(l))
	}
	for _, l := range append(repeatLens(10, 6, 7), repeatLens(200, 5)...) {
		tx = append(tx, mixed(l))
	}
	d := dataset.MustNew(n, tx)
	if got := (&SwapModel{Base: d}).prepare().filterMin; got != 6 {
		t.Fatalf("bucket-collision base: filters start at rows of %d items, want 6", got)
	}
	return d
}

func TestSwapGenerateIntoMatchesGenerate(t *testing.T) {
	// The pooled chain must reproduce the map-based oracle exactly: same RNG
	// stream, same accept/reject decisions, same dataset. The bases put rows
	// on both sides of swapScanMax, far beyond it, and in a mix, so a slip in
	// the long rows' sorted-copy upkeep changes a membership answer and
	// shows up as a differing column. The bucket-collision base does the
	// same for the bucket filters' counts.
	bases := []struct {
		name string
		d    *dataset.Dataset
	}{
		{"small", dataset.MustNew(12, [][]uint32{
			{0, 1, 2}, {1, 2, 3}, {3, 4, 5}, {0, 5, 6}, {6, 7},
			{2, 7, 8}, {8, 9, 10}, {0, 9, 11}, {4, 10, 11}, {1, 6, 9},
		})},
		{"at-cutoff", swapRows(3*swapScanMax, append(
			repeatLens(2, swapScanMax-1, swapScanMax, swapScanMax+1),
			repeatLens(20, 3)...), 1)},
		{"very-long", swapRows(32*swapScanMax, append(
			[]int{30*swapScanMax + 5}, repeatLens(40, 4)...), 2)},
		{"mixed", swapRows(4*swapScanMax, repeatLens(4,
			2, 2*swapScanMax, 5, swapScanMax+1, 9, 3*swapScanMax, 1, swapScanMax/2), 3)},
		{"bucket-collision", bucketCollisionBase(t)},
	}
	for _, base := range bases {
		for _, m := range []*SwapModel{
			{Base: base.d},
			{Base: base.d, ProposalsPerOccurrence: 3},
			{Base: base.d, Proposals: 137},
		} {
			v := &dataset.Vertical{}
			for seed := uint64(0); seed < 50; seed++ {
				want := oracleVertical(t, m, seed)
				m.GenerateInto(stats.NewRNG(seed), v)
				if v.NumTransactions != want.NumTransactions || len(v.Tids) != len(want.Tids) {
					t.Fatalf("%s seed %d: shape mismatch", base.name, seed)
				}
				for it := range want.Tids {
					if !reflect.DeepEqual(append([]uint32{}, want.Tids[it]...), append([]uint32{}, v.Tids[it]...)) {
						t.Fatalf("%s seed %d (ppo=%d proposals=%d): column %d differs between pooled chain and oracle",
							base.name, seed, m.ProposalsPerOccurrence, m.Proposals, it)
					}
				}
			}
		}
	}
}

func TestSwapFilterBudget(t *testing.T) {
	// On every input the bucket filters of one scratch take at most twice
	// the bytes of its 4-byte occurrence slots, longest rows first.
	shapes := swapBenchShapes()
	for _, c := range []struct {
		name      string
		d         *dataset.Dataset
		filterMin int
	}{
		{"one-item rows", swapRows(50, repeatLens(100, 1), 5), 2},
		{"one-item rows and one of 9", swapRows(50, append(repeatLens(100, 1), 9), 6), 2},
		{"short", shapes[0].d, 1},
		{"long", shapes[2].d, 1},
		{"bucket-collision", bucketCollisionBase(t), 6},
		{"empty", dataset.MustNew(0, nil), 1},
	} {
		b := (&SwapModel{Base: c.d}).prepare()
		if b.filterMin != c.filterMin {
			t.Errorf("%s: filters start at rows of %d items, want %d", c.name, b.filterMin, c.filterMin)
		}
		if got, bound := swapFilterBytes*b.filtered, 2*4*len(b.occRow); got > bound {
			t.Errorf("%s: %d filter bytes exceed twice the %d slot bytes", c.name, got, 4*len(b.occRow))
		}
		for r, row := range b.rows {
			if want := r < b.filtered; b.hasFilter(int(row.n)) != want {
				t.Fatalf("%s: row %d of %d items is numbered on the wrong side of %d filtered rows",
					c.name, r, row.n, b.filtered)
			}
		}
	}
}

func TestSwapChainLengthValidation(t *testing.T) {
	d := dataset.MustNew(3, [][]uint32{{0, 1}, {1, 2}})
	for _, m := range []*SwapModel{
		{Base: d, ProposalsPerOccurrence: math.MaxInt / 2},
		{Base: d, ProposalsPerOccurrence: math.MaxInt},
		{Base: d, ProposalsPerOccurrence: -1},
		{Base: d, Proposals: -7},
	} {
		if err := m.Validate(); err == nil {
			t.Errorf("ppo=%d proposals=%d: Validate accepted an unusable chain length",
				m.ProposalsPerOccurrence, m.Proposals)
		}
	}
	for _, m := range []*SwapModel{
		{Base: d},
		{Base: d, ProposalsPerOccurrence: math.MaxInt / 4},
		{Base: d, ProposalsPerOccurrence: math.MaxInt / 2, Proposals: 10},
		{Base: dataset.MustNew(0, nil), ProposalsPerOccurrence: math.MaxInt},
	} {
		if err := m.Validate(); err != nil {
			t.Errorf("ppo=%d proposals=%d: %v", m.ProposalsPerOccurrence, m.Proposals, err)
		}
	}
}

func TestSwapGenerateIntoPreservesMargins(t *testing.T) {
	d := swapGoldenBase()
	m := &SwapModel{Base: d, Proposals: 20000}
	v := &dataset.Vertical{}
	m.GenerateInto(stats.NewRNG(7), v)
	wantSup := d.ItemSupports()
	for it := range v.Tids {
		if len(v.Tids[it]) != wantSup[it] {
			t.Fatalf("item %d support changed: %d -> %d", it, wantSup[it], len(v.Tids[it]))
		}
	}
	// Row margins: rebuild horizontally and compare transaction lengths.
	h := v.Horizontal()
	for tid := 0; tid < d.NumTransactions(); tid++ {
		if len(h.Transaction(tid)) != len(d.Transaction(tid)) {
			t.Fatalf("transaction %d length changed: %d -> %d",
				tid, len(d.Transaction(tid)), len(h.Transaction(tid)))
		}
	}
}

func TestSwapGenerateIntoConcurrent(t *testing.T) {
	// Many goroutines share one model: the base snapshot is built once and
	// every worker draws its own scratch from the pool. Each goroutine's
	// output must match the single-threaded result for its seed.
	d := dataset.MustNew(10, [][]uint32{
		{0, 1, 2}, {2, 3, 4}, {4, 5, 6}, {6, 7, 8}, {0, 8, 9}, {1, 5, 9},
	})
	m := &SwapModel{Base: d, ProposalsPerOccurrence: 6}
	want := make([]uint64, 16)
	for seed := range want {
		v := &dataset.Vertical{}
		m.GenerateInto(stats.NewRNG(uint64(seed)), v)
		want[seed] = verticalFingerprint(v)
	}
	var wg sync.WaitGroup
	for seed := range want {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			v := &dataset.Vertical{}
			for rep := 0; rep < 5; rep++ {
				m.GenerateInto(stats.NewRNG(uint64(seed)), v)
				if got := verticalFingerprint(v); got != want[seed] {
					t.Errorf("seed %d rep %d: concurrent GenerateInto diverged", seed, rep)
					return
				}
			}
		}(seed)
	}
	wg.Wait()
}

func TestSwapGenerateIntoDegenerate(t *testing.T) {
	v := &dataset.Vertical{}
	// Single occurrence: the chain can never move and must consume no RNG.
	m := &SwapModel{Base: dataset.MustNew(1, [][]uint32{{0}})}
	r := stats.NewRNG(1)
	m.GenerateInto(r, v)
	if v.NumTransactions != 1 || len(v.Tids) != 1 || len(v.Tids[0]) != 1 {
		t.Fatal("degenerate swap broke dataset")
	}
	if got, want := r.Uint64(), stats.NewRNG(1).Uint64(); got != want {
		t.Fatal("degenerate chain consumed RNG values")
	}
	// Empty dataset.
	m = &SwapModel{Base: dataset.MustNew(0, nil)}
	m.GenerateInto(stats.NewRNG(2), v)
	if v.NumTransactions != 0 || len(v.Tids) != 0 {
		t.Fatal("empty swap broke dataset")
	}
}
