package stats

import "math"

// Geometric is the distribution of the number of failures before the first
// success in Bernoulli(P) trials, supported on {0, 1, 2, ...}. The random
// dataset generator uses geometric gaps to place item occurrences in
// O(expected occurrences) time instead of O(transactions).
type Geometric struct {
	P float64
}

// Mean returns (1-P)/P.
func (g Geometric) Mean() float64 { return (1 - g.P) / g.P }

// Variance returns (1-P)/P^2.
func (g Geometric) Variance() float64 { return (1 - g.P) / (g.P * g.P) }

// PMF returns Pr(X = k) = (1-p)^k p.
func (g Geometric) PMF(k int) float64 {
	if k < 0 {
		return 0
	}
	return math.Exp(float64(k)*math.Log1p(-g.P)) * g.P
}

// CDF returns Pr(X <= k) = 1 - (1-p)^{k+1}.
func (g Geometric) CDF(k int) float64 {
	if k < 0 {
		return 0
	}
	return -math.Expm1(float64(k+1) * math.Log1p(-g.P))
}

// Sample draws one variate by inversion, with the gap kernel of
// AppendBernoulli. A variate beyond the int range saturates at math.MaxInt.
func (g Geometric) Sample(r *RNG) int {
	if g.P >= 1 {
		return 0
	}
	if !(g.P > 0) {
		panic("stats: Geometric with p <= 0 or NaN")
	}
	gg := newGeomGap(g.P)
	x, _ := gg.gap(r.Float64Open())
	if x >= math.MaxInt {
		return math.MaxInt
	}
	return int(x)
}
