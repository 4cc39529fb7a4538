package stats

import "testing"

// Micro-benchmarks for the hot statistical primitives: exact tails are
// called once per itemset in Procedure 1 and once per ladder level in
// Procedure 2; the samplers dominate random dataset generation.

func BenchmarkBinomialUpperTail(b *testing.B) {
	bin := Binomial{N: 1000000, P: 1e-4}
	for i := 0; i < b.N; i++ {
		bin.UpperTail(150)
	}
}

func BenchmarkBinomialLogUpperTailDeep(b *testing.B) {
	bin := Binomial{N: 1000000, P: 1e-5}
	for i := 0; i < b.N; i++ {
		bin.LogUpperTail(300)
	}
}

func BenchmarkPoissonUpperTail(b *testing.B) {
	p := Poisson{Lambda: 2.5}
	for i := 0; i < b.N; i++ {
		p.UpperTail(15)
	}
}

func BenchmarkBinomialSampleSmallMean(b *testing.B) {
	r := NewRNG(1)
	bin := Binomial{N: 100000, P: 1e-4} // mean 10: geometric skips
	for i := 0; i < b.N; i++ {
		bin.Sample(r)
	}
}

func BenchmarkSkipSamplerColumn(b *testing.B) {
	r := NewRNG(2)
	const t = 100000
	const f = 1e-3
	var col []uint32
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		col = AppendBernoulli(col[:0], t, f, r)
	}
}

// BenchmarkNaiveBernoulliColumn is the baseline AppendBernoulli replaces:
// one coin flip per transaction.
func BenchmarkNaiveBernoulliColumn(b *testing.B) {
	r := NewRNG(3)
	const t = 100000
	const f = 1e-3
	for i := 0; i < b.N; i++ {
		count := 0
		for j := 0; j < t; j++ {
			if r.Float64() < f {
				count++
			}
		}
		_ = count
	}
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(4)
	for i := 0; i < b.N; i++ {
		r.Uint64()
	}
}

func BenchmarkRNGIntn(b *testing.B) {
	r := NewRNG(5)
	for i := 0; i < b.N; i++ {
		r.Intn(1000003)
	}
}

func BenchmarkPoissonSampleLarge(b *testing.B) {
	r := NewRNG(6)
	p := Poisson{Lambda: 500}
	for i := 0; i < b.N; i++ {
		p.Sample(r)
	}
}

func BenchmarkWeightedSampler(b *testing.B) {
	r := NewRNG(7)
	w := make([]float64, 10000)
	for i := range w {
		w[i] = float64(i + 1)
	}
	ws := NewWeightedSampler(w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.Sample(r)
	}
}
