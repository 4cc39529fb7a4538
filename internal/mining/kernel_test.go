package mining

import (
	"reflect"
	"testing"

	"sigfim/internal/dataset"
	"sigfim/internal/stats"
)

// uniformColumns builds a dataset of n items over t transactions in which
// item i occurs in transactions i, i+stride, i+2*stride, ... up to sup
// occurrences: every item has support exactly sup and transactions stay
// short when stride is large.
func uniformColumns(n, t, sup, stride int) *dataset.Dataset {
	tx := make([][]uint32, t)
	for it := 0; it < n; it++ {
		for j := 0; j < sup; j++ {
			tid := (it + j*stride) % t
			tx[tid] = append(tx[tid], uint32(it))
		}
	}
	for i := range tx {
		sortSmall(tx[i])
	}
	return dataset.MustNew(n, tx)
}

// TestChooseKernel pins each threshold of the chooser from both sides.
func TestChooseKernel(t *testing.T) {
	wide := func(width int) *dataset.Vertical {
		tx := []uint32{}
		for it := 0; it < width; it++ {
			tx = append(tx, uint32(it))
		}
		return dataset.MustNew(width, [][]uint32{tx}).Vertical()
	}
	// 160 transactions: support 10 is exactly t/16 (not dense), 11 is above.
	atDensity := uniformColumns(12, 160, 10, 13).Vertical()
	aboveDensity := uniformColumns(12, 160, 11, 13).Vertical()
	// Two frequent items of support 40 among many rare ones: dense() only
	// averages the items that reach the floor.
	mixed := func() *dataset.Vertical {
		tx := make([][]uint32, 160)
		for i := range tx {
			if i < 40 {
				tx[i] = append(tx[i], 0, 1)
			}
			tx[i] = append(tx[i], uint32(2+i%40))
		}
		return dataset.MustNew(42, tx).Vertical()
	}()
	cases := []struct {
		name    string
		v       *dataset.Vertical
		k, sup  int
		algo    Algorithm
		want    Kernel
		comment string
	}{
		{"hash at floor 1", atDensity, 2, 1, Auto, KernelHash, "short transactions, low floor"},
		{"hash at max floor", atDensity, 2, hashPathMaxSupport, Auto, KernelHash, "floor == hashPathMaxSupport"},
		{"no hash above max floor", atDensity, 2, hashPathMaxSupport + 1, Auto, KernelTids, "floor > hashPathMaxSupport"},
		{"no hash for k=1", atDensity, 1, 1, Auto, KernelTids, "k < 2 never enumerates subsets"},
		{"hash within subset budget", wide(2449), 2, 1, Auto, KernelHash, "C(2449,2) <= subsetBudget"},
		{"no hash over subset budget", wide(2500), 2, 1, Auto, KernelBits, "C(2500,2) > subsetBudget; one dense transaction"},
		{"tids at density threshold", atDensity, 2, 9, Auto, KernelTids, "avg support == t/16"},
		{"bits above density threshold", aboveDensity, 2, 9, Auto, KernelBits, "avg support > t/16"},
		{"bits on frequent items only", mixed, 2, 9, Auto, KernelBits, "rare items are below the floor"},
		{"EclatTids on dense columns", mixed, 2, hashPathMaxSupport + 1, EclatTids, KernelTids, "EclatTids never takes bits"},
		{"EclatTids keeps hash", atDensity, 2, 1, EclatTids, KernelHash, "forced tid lists still take the hash path"},
		{"EclatBits forced on sparse", atDensity, 2, 1, EclatBits, KernelBits, "forced bitsets skip the hash path"},
		{"empty dataset", dataset.MustNew(3, nil).Vertical(), 2, 9, Auto, KernelTids, "no transactions"},
	}
	for _, c := range cases {
		if got := chooseKernel(c.v, c.k, c.sup, c.algo, NewScratch()); got != c.want {
			t.Errorf("%s (%s): chooseKernel(k=%d, s=%d, %v) = %d, want %d", c.name, c.comment, c.k, c.sup, c.algo, got, c.want)
		}
	}
}

// TestKernelLayoutsIdentical is the cross-layout identity check behind
// Auto's kernel choice: over randomized small datasets on both sides of the
// density switch, at floors at and above hashPathMaxSupport, the Auto,
// EclatTids and EclatBits kernels emit the identical (itemset, support)
// sequence through VisitKAlgoScratch at workers 1 and 2 with one reused
// Scratch, and SupportHistogramAlgoScratch and CountKParallel agree.
func TestKernelLayoutsIdentical(t *testing.T) {
	r := stats.NewRNG(1207)
	s := NewScratch()
	seen := map[Kernel]int{}
	for trial := 0; trial < 16; trial++ {
		p := []float64{0.03, 0.05, 0.08, 0.25}[trial%4]
		d := plantedDataset(r.Uint64(), 14+r.Intn(10), 400+r.Intn(200), p, []uint32{1, 2, 3}, 10)
		v := d.Vertical()
		for k := 2; k <= 4; k++ {
			for _, floor := range []int{hashPathMaxSupport, hashPathMaxSupport + 1, hashPathMaxSupport + 7} {
				tids := EclatKTidList(v, k, floor)
				if bits := EclatKBitset(v, k, floor); !reflect.DeepEqual(bits, tids) {
					t.Fatalf("trial %d k=%d floor=%d: bitset and tid-list Eclat emit different sequences", trial, k, floor)
				}
				var hashed []Result
				hashMineK(v, k, floor, NewScratch(), func(is Itemset, sup int) {
					hashed = append(hashed, Result{Items: is.Clone(), Support: sup})
				})
				wantHist := make([]int64, v.MaxItemSupport()+1)
				for _, res := range tids {
					wantHist[res.Support]++
				}
				for _, workers := range []int{1, 2} {
					for _, algo := range []Algorithm{Auto, EclatTids, EclatBits} {
						got := collectScratch(func(emit func(Itemset, int)) {
							VisitKAlgoScratch(v, k, floor, workers, algo, s, emit)
						})
						kn := s.LastKernel()
						if want := chooseKernel(v, k, floor, algo, NewScratch()); kn != want {
							t.Fatalf("trial %d k=%d floor=%d %v: ran kernel %d, chooser says %d", trial, k, floor, algo, kn, want)
						}
						if algo == Auto {
							seen[kn]++
						}
						want := tids
						if kn == KernelHash {
							// The hash path emits in first-occurrence order;
							// only its set of pairs must match.
							want = hashed
							if !resultsEqual(append([]Result(nil), hashed...), append([]Result(nil), tids...)) {
								t.Fatalf("trial %d k=%d floor=%d: hash path mines a different set", trial, k, floor)
							}
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("trial %d k=%d floor=%d %v workers=%d (kernel %d): %d emissions differ from the reference's %d",
								trial, k, floor, algo, workers, kn, len(got), len(want))
						}
						if hist := SupportHistogramAlgoScratch(v, k, floor, workers, algo, s); !reflect.DeepEqual(hist, wantHist) {
							t.Fatalf("trial %d k=%d floor=%d %v workers=%d: support histogram differs", trial, k, floor, algo, workers)
						}
					}
					if got := CountKParallel(v, k, floor, workers); got != int64(len(tids)) {
						t.Fatalf("trial %d k=%d floor=%d workers=%d: CountKParallel = %d, want %d", trial, k, floor, workers, got, len(tids))
					}
				}
			}
		}
	}
	for _, kn := range []Kernel{KernelHash, KernelBits, KernelTids} {
		if seen[kn] == 0 {
			t.Errorf("Auto never chose kernel %d over %v; the comparison misses a side of a threshold", kn, seen)
		}
	}
}
