package randmodel

import (
	"testing"

	"sigfim/internal/dataset"
	"sigfim/internal/stats"
)

// Generation benchmarks: Algorithm 1 draws Delta datasets per run, so
// generation cost bounds the whole methodology's wall clock.

func benchModel() IndependentModel {
	z := stats.FitPowerLaw(2000, 1e-5, 0.3, 8)
	return IndependentModel{T: 50000, Freqs: z.Frequencies()}
}

// BenchmarkGenerateSkipSampling times one independence-null replicate per
// op: a fresh Generate on the power-law model, and pooled GenerateInto (the
// Monte Carlo path) on three shapes. powerlaw is sparse (2,000 items, mean
// row ~8), dense has ~50 items per row at frequencies in [0.05, 0.9], and
// golden is the null model of testdata/golden_input.dat.
func BenchmarkGenerateSkipSampling(b *testing.B) {
	b.Run("fresh", func(b *testing.B) {
		m := benchModel()
		r := stats.NewRNG(1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.Generate(r.Split())
		}
	})
	golden, err := dataset.ReadFIMIFile("../../testdata/golden_input.dat")
	if err != nil {
		b.Fatal(err)
	}
	for _, sh := range []struct {
		name string
		m    IndependentModel
	}{
		{"powerlaw", benchModel()},
		{"dense", IndependentModel{T: 2000, Freqs: stats.FitPowerLaw(200, 0.05, 0.9, 50).Frequencies()}},
		{"golden", FromProfile(dataset.Extract("golden", golden))},
	} {
		b.Run(sh.name, func(b *testing.B) {
			v := &dataset.Vertical{}
			r := stats.NewRNG(1)
			sh.m.GenerateInto(r.Split(), v)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sh.m.GenerateInto(r.Split(), v)
			}
		})
	}
}

// BenchmarkGenerateNaive is the O(t*n) baseline the geometric-skip
// generator replaces.
func BenchmarkGenerateNaive(b *testing.B) {
	m := benchModel()
	r := stats.NewRNG(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rr := r.Split()
		tx := make([][]uint32, m.T)
		for item, f := range m.Freqs {
			for tid := 0; tid < m.T; tid++ {
				if rr.Float64() < f {
					tx[tid] = append(tx[tid], uint32(item))
				}
			}
		}
		_ = tx
	}
}

// swapBenchShapes are the row-length regimes the pooled swap chain must
// handle: many short rows (membership is a scan of a few slots), dense rows
// around fifty items, and a base whose occurrences sit mostly in 2,000-item
// rows (membership there must not degrade to a linear scan). Each holds
// ~100k occurrences, so a replicate at 4 proposals per occurrence runs 400k
// proposals.
func swapBenchShapes() []swapBenchShape {
	indep := func(n, t int, fmin, fmax, mean float64, seed uint64) *dataset.Dataset {
		z := stats.FitPowerLaw(n, fmin, fmax, mean)
		return IndependentModel{T: t, Freqs: z.Frequencies()}.Generate(stats.NewRNG(seed)).Horizontal()
	}
	// Long rows: 40 rows holding a random half of 4,000 items each, plus
	// 2,000 rows of five items drawn from the same universe.
	const n = 4000
	r := stats.NewRNG(12)
	var tx [][]uint32
	for i := 0; i < 40; i++ {
		var row []uint32
		for it := uint32(0); it < n; it++ {
			if r.Bernoulli(0.5) {
				row = append(row, it)
			}
		}
		tx = append(tx, row)
	}
	for i := 0; i < 2000; i++ {
		row := make([]uint32, 5)
		for j := range row {
			row[j] = uint32(r.Intn(n))
		}
		tx = append(tx, row)
	}
	return []swapBenchShape{
		{"short", indep(2000, 10000, 1e-4, 0.3, 10, 10)},
		{"dense", indep(200, 2000, 0.05, 0.9, 50, 11)},
		{"long", dataset.MustNew(n, tx)},
	}
}

type swapBenchShape struct {
	name string
	d    *dataset.Dataset
}

// BenchmarkSwapGenerateInto times one pooled swap-null replicate (4
// proposals per occurrence) per op on each row-length shape.
func BenchmarkSwapGenerateInto(b *testing.B) {
	for _, sh := range swapBenchShapes() {
		b.Run(sh.name, func(b *testing.B) {
			m := &SwapModel{Base: sh.d, ProposalsPerOccurrence: 4}
			v := &dataset.Vertical{}
			r := stats.NewRNG(4)
			m.GenerateInto(r.Split(), v) // build the shared snapshot and pool
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.GenerateInto(r.Split(), v)
			}
		})
	}
}

func BenchmarkVerticalToHorizontal(b *testing.B) {
	m := benchModel()
	v := m.Generate(stats.NewRNG(5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = v.Horizontal()
	}
}

var sinkSupport int

func BenchmarkSupportQuery(b *testing.B) {
	m := benchModel()
	v := m.Generate(stats.NewRNG(6))
	query := []uint32{0, 1, 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkSupport = v.Support(query)
	}
}
