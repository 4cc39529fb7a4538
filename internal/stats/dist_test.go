package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBinomialPMFSumsToOne(t *testing.T) {
	for _, c := range []Binomial{{10, 0.3}, {50, 0.05}, {7, 0.9}, {1, 0.5}, {100, 0.001}} {
		sum := 0.0
		for k := 0; k <= c.N; k++ {
			sum += c.PMF(k)
		}
		if !almostEq(sum, 1, 1e-10) {
			t.Errorf("Binomial%v PMF sums to %v", c, sum)
		}
	}
}

func TestBinomialCDFTailComplement(t *testing.T) {
	b := Binomial{N: 40, P: 0.17}
	for s := 0; s <= 41; s++ {
		lhs := b.CDF(s-1) + b.UpperTail(s)
		if !almostEq(lhs, 1, 1e-10) {
			t.Errorf("CDF(%d)+Tail(%d) = %v", s-1, s, lhs)
		}
	}
}

func TestBinomialDegenerate(t *testing.T) {
	b0 := Binomial{N: 10, P: 0}
	if b0.PMF(0) != 1 || b0.UpperTail(1) != 0 || b0.CDF(0) != 1 {
		t.Error("Binomial p=0 should be point mass at 0")
	}
	b1 := Binomial{N: 10, P: 1}
	if b1.PMF(10) != 1 || b1.UpperTail(10) != 1 || b1.CDF(9) != 0 {
		t.Error("Binomial p=1 should be point mass at N")
	}
}

func TestBinomialQuantileInverse(t *testing.T) {
	b := Binomial{N: 30, P: 0.4}
	for _, q := range []float64{0.01, 0.1, 0.5, 0.9, 0.99} {
		k := b.Quantile(q)
		if b.CDF(k) < q {
			t.Errorf("CDF(Quantile(%v)) = %v < q", q, b.CDF(k))
		}
		if k > 0 && b.CDF(k-1) >= q {
			t.Errorf("Quantile(%v) = %d is not minimal", q, k)
		}
	}
}

func TestBinomialLogUpperTailDeep(t *testing.T) {
	// Deep tail that underflows float64: check against direct log-space sum.
	b := Binomial{N: 100000, P: 1e-4}
	s := 100 // mean is 10; Pr(X >= 100) is astronomically small
	got := b.LogUpperTail(s)
	want := math.Inf(-1)
	for k := s; k <= s+200; k++ {
		want = LogSumExp(want, b.LogPMF(k))
	}
	if !almostEq(got, want, 1e-6) {
		t.Errorf("LogUpperTail = %v, want %v", got, want)
	}
	if got > -100 {
		t.Errorf("deep tail not deep: %v", got)
	}
}

func TestBinomialSampleMoments(t *testing.T) {
	r := NewRNG(42)
	cases := []Binomial{{1000, 0.01}, {50, 0.5}, {200, 0.9}, {10, 0.05}}
	const trials = 20000
	for _, b := range cases {
		sum, sumSq := 0.0, 0.0
		for i := 0; i < trials; i++ {
			x := float64(b.Sample(r))
			sum += x
			sumSq += x * x
		}
		mean := sum / trials
		variance := sumSq/trials - mean*mean
		seMean := math.Sqrt(b.Variance() / trials)
		if math.Abs(mean-b.Mean()) > 6*seMean+1e-9 {
			t.Errorf("Binomial%v sample mean %v, want %v", b, mean, b.Mean())
		}
		if b.Variance() > 0 && math.Abs(variance-b.Variance()) > 0.15*b.Variance()+0.1 {
			t.Errorf("Binomial%v sample var %v, want %v", b, variance, b.Variance())
		}
	}
}

func TestBinomialSampleRange(t *testing.T) {
	r := NewRNG(7)
	f := func(nRaw uint8, pRaw uint16) bool {
		n := int(nRaw)%100 + 1
		p := float64(pRaw) / 65535
		b := Binomial{N: n, P: p}
		x := b.Sample(r)
		return x >= 0 && x <= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPoissonPMFSumsToOne(t *testing.T) {
	for _, lam := range []float64{0.1, 1, 5, 30, 200} {
		p := Poisson{Lambda: lam}
		sum := 0.0
		limit := int(lam + 20*math.Sqrt(lam+1) + 20)
		for k := 0; k <= limit; k++ {
			sum += p.PMF(k)
		}
		if !almostEq(sum, 1, 1e-9) {
			t.Errorf("Poisson(%v) PMF sums to %v", lam, sum)
		}
	}
}

func TestPoissonCDFTailComplement(t *testing.T) {
	p := Poisson{Lambda: 7.3}
	for s := 0; s <= 40; s++ {
		lhs := p.CDF(s-1) + p.UpperTail(s)
		if !almostEq(lhs, 1, 1e-10) {
			t.Errorf("CDF(%d)+Tail(%d) = %v", s-1, s, lhs)
		}
	}
}

func TestPoissonZeroLambda(t *testing.T) {
	p := Poisson{Lambda: 0}
	if p.PMF(0) != 1 || p.UpperTail(1) != 0 || p.CDF(0) != 1 {
		t.Error("Poisson(0) should be point mass at 0")
	}
	r := NewRNG(1)
	if p.Sample(r) != 0 {
		t.Error("Poisson(0) sample should be 0")
	}
}

func TestPoissonQuantileInverse(t *testing.T) {
	p := Poisson{Lambda: 12.5}
	for _, q := range []float64{0.001, 0.05, 0.5, 0.95, 0.999} {
		k := p.Quantile(q)
		if p.CDF(k) < q {
			t.Errorf("CDF(Quantile(%v)) < q", q)
		}
		if k > 0 && p.CDF(k-1) >= q {
			t.Errorf("Quantile(%v) = %d not minimal", q, k)
		}
	}
}

func TestPoissonSampleMoments(t *testing.T) {
	r := NewRNG(99)
	const trials = 20000
	for _, lam := range []float64{0.5, 4, 25, 120} {
		p := Poisson{Lambda: lam}
		sum, sumSq := 0.0, 0.0
		for i := 0; i < trials; i++ {
			x := float64(p.Sample(r))
			sum += x
			sumSq += x * x
		}
		mean := sum / trials
		variance := sumSq/trials - mean*mean
		seMean := math.Sqrt(lam / trials)
		if math.Abs(mean-lam) > 6*seMean {
			t.Errorf("Poisson(%v) sample mean %v", lam, mean)
		}
		if math.Abs(variance-lam) > 0.15*lam+0.1 {
			t.Errorf("Poisson(%v) sample var %v", lam, variance)
		}
	}
}

func TestPoissonSampleChiSquare(t *testing.T) {
	r := NewRNG(123)
	p := Poisson{Lambda: 6}
	sample := make([]int, 20000)
	for i := range sample {
		sample[i] = p.Sample(r)
	}
	res := PoissonChiSquare(sample, 6, 0)
	if res.PValue < 1e-4 {
		t.Errorf("Poisson sampler fails chi-square: p=%v stat=%v df=%d",
			res.PValue, res.Statistic, res.DF)
	}
}

func TestNormalCDFQuantileRoundTrip(t *testing.T) {
	n := Normal{Mu: 3, Sigma: 2}
	for _, q := range []float64{1e-6, 0.001, 0.1, 0.5, 0.9, 0.999, 1 - 1e-6} {
		x := n.Quantile(q)
		if got := n.CDF(x); !almostEq(got, q, 1e-7) {
			t.Errorf("CDF(Quantile(%v)) = %v", q, got)
		}
	}
}

func TestNormalKnownValues(t *testing.T) {
	if got := StdNormal.CDF(0); !almostEq(got, 0.5, 1e-12) {
		t.Errorf("Phi(0) = %v", got)
	}
	if got := StdNormal.CDF(1.959963984540054); !almostEq(got, 0.975, 1e-9) {
		t.Errorf("Phi(1.96) = %v", got)
	}
	if got := StdNormal.UpperTail(3); !almostEq(got, 0.0013498980316301, 1e-9) {
		t.Errorf("upper tail at 3 = %v", got)
	}
}

func TestGeometricPMFAndSampler(t *testing.T) {
	g := Geometric{P: 0.25}
	sum := 0.0
	for k := 0; k < 200; k++ {
		sum += g.PMF(k)
	}
	if !almostEq(sum, 1, 1e-10) {
		t.Errorf("Geometric PMF sums to %v", sum)
	}
	r := NewRNG(5)
	const trials = 50000
	total := 0.0
	for i := 0; i < trials; i++ {
		total += float64(g.Sample(r))
	}
	mean := total / trials
	if math.Abs(mean-g.Mean()) > 0.08 {
		t.Errorf("Geometric sample mean %v, want %v", mean, g.Mean())
	}
}

func TestAppendBernoulliMatchesBernoulli(t *testing.T) {
	// The positions AppendBernoulli(n, p) returns must be distributed like
	// independent Bernoulli(p) indicators: count has Binomial(n, p) mean,
	// positions strictly increasing within range.
	r := NewRNG(321)
	n, p := 10000, 0.01
	const trials = 2000
	total := 0
	var col []uint32
	for i := 0; i < trials; i++ {
		col = AppendBernoulli(col[:0], n, p, r)
		prev := -1
		for _, pos := range col {
			if int(pos) <= prev || int(pos) >= n {
				t.Fatalf("positions not strictly increasing in range: %d after %d", pos, prev)
			}
			prev = int(pos)
		}
		total += len(col)
	}
	mean := float64(total) / trials
	want := float64(n) * p
	se := math.Sqrt(want * (1 - p) / trials)
	if math.Abs(mean-want) > 6*se {
		t.Errorf("AppendBernoulli mean count %v, want %v", mean, want)
	}
}

func TestAppendBernoulliEdgeCases(t *testing.T) {
	r := NewRNG(1)
	if got := AppendBernoulli(nil, 100, 0, r); len(got) != 0 {
		t.Errorf("p=0 should yield nothing, got %v", got)
	}
	got := AppendBernoulli(nil, 5, 1, r)
	if len(got) != 5 {
		t.Fatalf("p=1 should yield every position, got %v", got)
	}
	for i, pos := range got {
		if int(pos) != i {
			t.Fatalf("p=1 should yield every position: got %d at step %d", pos, i)
		}
	}
}

func TestTruncatedPowerLawFit(t *testing.T) {
	n, fmin, fmax, target := 1000, 1e-4, 0.5, 8.0
	z := FitPowerLaw(n, fmin, fmax, target)
	if got := z.Sum(); math.Abs(got-target) > 0.05*target {
		t.Errorf("fitted sum %v, want %v", got, target)
	}
	fs := z.Frequencies()
	for i, f := range fs {
		if f < fmin-1e-15 || f > fmax+1e-15 {
			t.Fatalf("frequency %v at rank %d outside clamp", f, i+1)
		}
		if i > 0 && f > fs[i-1]+1e-15 {
			t.Fatalf("frequencies not non-increasing at rank %d", i+1)
		}
	}
}

func TestZipfSampler(t *testing.T) {
	z := NewZipf(50, 1.2)
	r := NewRNG(8)
	counts := make([]float64, 50)
	const trials = 100000
	for i := 0; i < trials; i++ {
		counts[z.Sample(r)-1]++
	}
	expected := make([]float64, 50)
	for k := 1; k <= 50; k++ {
		expected[k-1] = trials * z.PMF(k)
	}
	res := ChiSquareTest(counts, expected, 5, 0)
	if res.PValue < 1e-4 {
		t.Errorf("Zipf sampler chi-square p=%v", res.PValue)
	}
}

func TestHypergeometricPMFSumsToOne(t *testing.T) {
	cases := []Hypergeometric{
		{N: 20, K: 7, Draws: 5},
		{N: 50, K: 25, Draws: 10},
		{N: 10, K: 10, Draws: 3},
		{N: 10, K: 0, Draws: 3},
		{N: 8, K: 5, Draws: 7}, // lo > 0
	}
	for _, h := range cases {
		sum := 0.0
		for x := 0; x <= h.Draws; x++ {
			sum += h.PMF(x)
		}
		if !almostEq(sum, 1, 1e-10) {
			t.Errorf("Hypergeometric%+v PMF sums to %v", h, sum)
		}
	}
}

func TestHypergeometricTailComplement(t *testing.T) {
	h := Hypergeometric{N: 30, K: 12, Draws: 9}
	for x := 0; x <= 10; x++ {
		lhs := h.CDF(x-1) + h.UpperTail(x)
		if !almostEq(lhs, 1, 1e-10) {
			t.Errorf("CDF(%d)+Tail(%d) = %v", x-1, x, lhs)
		}
	}
}

func TestHypergeometricKnownValue(t *testing.T) {
	// Pr(X = 2) for N=10, K=4, draws=3: C(4,2)C(6,1)/C(10,3) = 36/120 = 0.3.
	h := Hypergeometric{N: 10, K: 4, Draws: 3}
	if got := h.PMF(2); !almostEq(got, 0.3, 1e-12) {
		t.Errorf("PMF(2) = %v, want 0.3", got)
	}
	if got := h.Mean(); !almostEq(got, 1.2, 1e-12) {
		t.Errorf("mean = %v", got)
	}
}

func TestHypergeometricSampleMoments(t *testing.T) {
	r := NewRNG(404)
	h := Hypergeometric{N: 100, K: 30, Draws: 20}
	const trials = 30000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < trials; i++ {
		x := float64(h.Sample(r))
		sum += x
		sumSq += x * x
	}
	mean := sum / trials
	variance := sumSq/trials - mean*mean
	if math.Abs(mean-h.Mean()) > 0.05 {
		t.Errorf("sample mean %v, want %v", mean, h.Mean())
	}
	if math.Abs(variance-h.Variance()) > 0.15*h.Variance() {
		t.Errorf("sample var %v, want %v", variance, h.Variance())
	}
}

func TestFisherExactAgainstBinomialLimit(t *testing.T) {
	// For t >> draws the hypergeometric approaches Binomial(suppB, suppA/t).
	t_, suppA, suppB, joint := 100000, 500, 200, 5
	fisher := FisherExactUpper(t_, suppA, suppB, joint)
	binom := Binomial{N: suppB, P: float64(suppA) / float64(t_)}.UpperTail(joint)
	if math.Abs(fisher-binom) > 0.05*binom {
		t.Errorf("Fisher %v vs Binomial limit %v", fisher, binom)
	}
	if FisherExactUpper(100, 50, 50, 0) != 1 {
		t.Error("tail at support lower bound should be 1")
	}
}
