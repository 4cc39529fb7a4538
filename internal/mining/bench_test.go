package mining

import (
	"fmt"
	"testing"

	"sigfim/internal/dataset"
	"sigfim/internal/stats"
)

// Ablation benchmarks for the mining engine: the algorithm choices DESIGN.md
// calls out (tid-list vs bitset Eclat, Apriori vs FP-Growth, hash path vs
// DFS at low thresholds, counting vs materializing).

// benchDataset builds a power-law dataset with planted pairs: 800 items,
// 20000 transactions, mean length ~8.
func benchDataset(b *testing.B) *dataset.Dataset {
	b.Helper()
	r := stats.NewRNG(99)
	z := stats.FitPowerLaw(800, 1e-4, 0.25, 8)
	freqs := z.Frequencies()
	const t = 20000
	tx := make([][]uint32, t)
	for item, f := range freqs {
		for _, pos := range stats.AppendBernoulli(nil, t, f, r) {
			tx[pos] = append(tx[pos], uint32(item))
		}
	}
	return dataset.MustNew(800, tx)
}

// sparseDataset is short-transaction data where the hash path wins.
func sparseDataset(b *testing.B) *dataset.Dataset {
	b.Helper()
	r := stats.NewRNG(7)
	const t = 30000
	tx := make([][]uint32, t)
	for i := range tx {
		ln := 1 + stats.Poisson{Lambda: 2.0}.Sample(r)
		seen := map[int]bool{}
		for j := 0; j < ln; j++ {
			it := r.Intn(400)
			if !seen[it] {
				seen[it] = true
				tx[i] = append(tx[i], uint32(it))
			}
		}
	}
	return dataset.MustNew(400, tx)
}

func BenchmarkEclatTidListK2(b *testing.B) {
	v := benchDataset(b).Vertical()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EclatKTidList(v, 2, 200)
	}
}

func BenchmarkEclatBitsetK2(b *testing.B) {
	v := benchDataset(b).Vertical()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EclatKBitset(v, 2, 200)
	}
}

func BenchmarkAprioriK2(b *testing.B) {
	d := benchDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AprioriK(d, 2, 200)
	}
}

func BenchmarkFPGrowthK2(b *testing.B) {
	d := benchDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FPGrowthK(d, 2, 200)
	}
}

func BenchmarkEclatTidListK3(b *testing.B) {
	v := benchDataset(b).Vertical()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EclatKTidList(v, 3, 60)
	}
}

func BenchmarkEclatBitsetK3(b *testing.B) {
	v := benchDataset(b).Vertical()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EclatKBitset(v, 3, 60)
	}
}

// Low-threshold regime: the VisitK dispatcher should pick the hash path and
// beat raw Eclat by a wide margin.
func BenchmarkLowThresholdHashPath(b *testing.B) {
	v := sparseDataset(b).Vertical()
	if !useHashPath(v, 3, 1) {
		b.Fatal("expected hash path to be selected")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		VisitK(v, 3, 1, func(Itemset, int) { n++ })
	}
}

func BenchmarkLowThresholdEclat(b *testing.B) {
	v := sparseDataset(b).Vertical()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		eclatKTidList(v, 3, 1, nil, func(Itemset, int) { n++ })
	}
}

// Parallel-engine scaling on the dense synthetic profile. On multi-core
// hardware workers=4 should be >= 2x workers=1; on a single-core runner the
// sub-benchmarks collapse to roughly equal times (the engine adds only
// buffer-merge overhead).
func BenchmarkEclatParallel(b *testing.B) {
	v := benchDataset(b).Vertical()
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				EclatKTidListParallel(v, 3, 60, w)
			}
		})
	}
}

func BenchmarkEclatBitsetParallel(b *testing.B) {
	v := benchDataset(b).Vertical()
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				EclatKBitsetParallel(v, 3, 60, w)
			}
		})
	}
}

// BenchmarkFPGrowthParallel measures the sharded conditional-tree miner next
// to the Eclat scaling benchmarks: the serial global-tree build is a fixed
// cost, so the per-worker speedup ceiling is set by the mining fraction
// (Amdahl) and by header-item skew.
func BenchmarkFPGrowthParallel(b *testing.B) {
	d := benchDataset(b)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				FPGrowthKParallel(d, 3, 60, w)
			}
		})
	}
}

func BenchmarkCountKParallel(b *testing.B) {
	v := benchDataset(b).Vertical()
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				CountKParallel(v, 2, 50, w)
			}
		})
	}
}

func BenchmarkCountVsMaterialize(b *testing.B) {
	v := benchDataset(b).Vertical()
	b.Run("CountK", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			CountK(v, 2, 50)
		}
	})
	b.Run("MineK", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MineK(v, 2, 50)
		}
	})
}

func BenchmarkSupportHistogram(b *testing.B) {
	v := benchDataset(b).Vertical()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SupportHistogram(v, 2, 50)
	}
}

func BenchmarkClosedEnumeration(b *testing.B) {
	v := benchDataset(b).Vertical()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		VisitClosed(v, 400, func(Itemset, int) bool { n++; return true })
	}
}
