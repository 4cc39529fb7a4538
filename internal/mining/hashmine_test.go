package mining

import (
	"testing"

	"sigfim/internal/dataset"
	"sigfim/internal/stats"
)

// sparseRandom builds short-transaction datasets that exercise the hash path.
func sparseRandom(r *stats.RNG, n, t int, meanLen float64) *dataset.Dataset {
	tx := make([][]uint32, t)
	for i := range tx {
		ln := stats.Poisson{Lambda: meanLen}.Sample(r)
		seen := map[int]bool{}
		for j := 0; j < ln; j++ {
			it := r.Intn(n)
			if !seen[it] {
				seen[it] = true
				tx[i] = append(tx[i], uint32(it))
			}
		}
	}
	return dataset.MustNew(n, tx)
}

func TestHashMineAgreesWithEclat(t *testing.T) {
	r := stats.NewRNG(4242)
	for trial := 0; trial < 15; trial++ {
		d := sparseRandom(r, 30, 200, 3)
		v := d.Vertical()
		for k := 2; k <= 4; k++ {
			for _, minSup := range []int{1, 2, 3} {
				want := map[string]int{}
				eclatKTidList(v, k, minSup, nil, func(items Itemset, sup int) {
					want[items.Key()] = sup
				})
				got := map[string]int{}
				hashMineK(v, k, minSup, NewScratch(), func(items Itemset, sup int) {
					got[items.Key()] = sup
				})
				if len(got) != len(want) {
					t.Fatalf("trial %d k=%d s=%d: hash %d vs eclat %d itemsets",
						trial, k, minSup, len(got), len(want))
				}
				for key, sup := range want {
					if got[key] != sup {
						t.Fatalf("trial %d k=%d s=%d: support mismatch for %v: %d vs %d",
							trial, k, minSup, KeyToItemset(key), got[key], sup)
					}
				}
			}
		}
	}
}

// useHashPath decides whether transaction-subset enumeration beats Eclat.
func useHashPath(v *dataset.Vertical, k, minSupport int) bool {
	if k < 2 || minSupport > hashPathMaxSupport {
		return false
	}
	return useHashPathLens(NewScratch().scratchLengths(v), k, minSupport)
}

func TestVisitKDispatch(t *testing.T) {
	r := stats.NewRNG(11)
	// Sparse data at low threshold must select the hash path.
	sparse := sparseRandom(r, 50, 500, 2).Vertical()
	if !useHashPath(sparse, 3, 1) {
		t.Error("sparse low-threshold input should use hash path")
	}
	// High thresholds must not.
	if useHashPath(sparse, 3, 100) {
		t.Error("high threshold should use Eclat")
	}
	// k = 1 is answered directly from item supports.
	count := 0
	VisitK(sparse, 1, 3, func(items Itemset, sup int) {
		if len(items) != 1 || sup < 3 {
			t.Fatalf("bad k=1 emission: %v %d", items, sup)
		}
		count++
	})
	want := 0
	for _, l := range sparse.Tids {
		if len(l) >= 3 {
			want++
		}
	}
	if count != want {
		t.Fatalf("k=1 count %d, want %d", count, want)
	}
}

func TestVisitKPanicsOnBadArgs(t *testing.T) {
	v := dataset.MustNew(2, [][]uint32{{0, 1}}).Vertical()
	for _, bad := range [][2]int{{0, 1}, {1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("VisitK(%v) should panic", bad)
				}
			}()
			VisitK(v, bad[0], bad[1], func(Itemset, int) {})
		}()
	}
}

func TestSubsetEnumerationCost(t *testing.T) {
	lens := []int{5, 3, 2, 10}
	// C(5,2)+C(3,2)+C(2,2)+C(10,2) = 10+3+1+45 = 59.
	if got := subsetEnumerationCost(lens, 2, 1000); got != 59 {
		t.Fatalf("cost = %d, want 59", got)
	}
	// Limit short-circuits.
	if got := subsetEnumerationCost(lens, 2, 10); got != 11 {
		t.Fatalf("capped cost = %d, want 11", got)
	}
	// Transactions shorter than k contribute nothing.
	if got := subsetEnumerationCost([]int{1, 2}, 3, 100); got != 0 {
		t.Fatalf("short transactions cost = %d", got)
	}
}

func TestMineKMatchesEclatOnDense(t *testing.T) {
	// Dense data routes through Eclat; MineK must agree with EclatK.
	r := stats.NewRNG(5)
	d := randomDataset(r, 8, 40)
	v := d.Vertical()
	a := MineK(v, 2, 2)
	b := EclatKTidList(v, 2, 2)
	if !resultsEqual(a, b) {
		t.Fatal("MineK disagrees with EclatK")
	}
}
