package stats

import (
	"math"
	"testing"
)

// refGap is the reference expression the gap kernel must reproduce.
func refGap(u, logq float64) float64 { return math.Floor(math.Log(u) / logq) }

// gridMax is the largest k with k*2^-53 in Float64Open's range (0, 1).
const gridMax = 1<<53 - 1

// gridU is the k-th point of Float64Open's grid: every value it returns is
// k*2^-53 for some k in [1, gridMax].
func gridU(k uint64) float64 { return float64(k) / (1 << 53) }

// gapTestPs is a log grid of p from 1e-9 to 1/2 together with the mirror
// values 1-p, so both tails of the kernel's range are covered.
func gapTestPs() []float64 {
	var ps []float64
	for e := -9.0; e < math.Log10(0.5); e += 0.5 {
		p := math.Pow(10, e)
		ps = append(ps, p, 1-p)
	}
	return append(ps, 0.5)
}

// checkGapWindow asserts kernel == reference on the grid points within
// radius steps of k.
func checkGapWindow(t *testing.T, p float64, g geomGap, k, radius uint64) {
	t.Helper()
	lo, hi := uint64(1), uint64(gridMax)
	if k > lo+radius {
		lo = k - radius
	}
	if k+radius < hi {
		hi = k + radius
	}
	for j := lo; j <= hi; j++ {
		u := gridU(j)
		if got, want := kernelGap(g, u), refGap(u, g.logq); got != want {
			t.Fatalf("p=%v U=%d*2^-53: kernel %v, reference %v", p, j, got, want)
		}
	}
}

func kernelGap(g geomGap, u float64) float64 {
	x, _ := g.gap(u)
	return x
}

// TestGapKernelExactAtBoundaries bisects Float64Open's grid for the points
// where the reference gap drops below g, for small gaps and a few large ones
// (one beyond the 32-bit int range), and checks every grid point within 4096
// steps of each boundary. Near a boundary the fast quotient is closest to an
// integer, so this is where an uncertified floor would differ.
func TestGapKernelExactAtBoundaries(t *testing.T) {
	const radius = 4096
	gaps := []float64{1e3, 123457, 1e7 + 3, 1 << 31, 3e10}
	for g := 64.0; g >= 1; g-- {
		gaps = append(gaps, g)
	}
	boundaries := 0
	for _, p := range gapTestPs() {
		gg := newGeomGap(p)
		// The ends of the grid: the largest gaps and the U closest to 1.
		checkGapWindow(t, p, gg, 1, radius)
		checkGapWindow(t, p, gg, gridMax, radius)
		for _, g := range gaps {
			if refGap(gridU(1), gg.logq) < g {
				continue // no U yields a gap this large
			}
			// Invariant: ref(lo) >= g > ref(hi).
			lo, hi := uint64(1), uint64(gridMax)
			for hi-lo > 1 {
				mid := lo + (hi-lo)/2
				if refGap(gridU(mid), gg.logq) >= g {
					lo = mid
				} else {
					hi = mid
				}
			}
			checkGapWindow(t, p, gg, hi, radius)
			boundaries++
		}
	}
	t.Logf("%d boundaries", boundaries)
	if boundaries < 500 {
		t.Fatalf("only %d boundaries checked", boundaries)
	}
}

// TestGapKernelRandomDraws compares kernel and reference on 10^7 random
// (p, U) pairs, p log-uniform towards 0 or towards 1, and bounds the rate at
// which the fast path falls back to the reference: a margin so wide that
// every draw took the slow path would be exact but no faster.
func TestGapKernelRandomDraws(t *testing.T) {
	const ps, perP = 1000, 10000
	r := NewRNG(20240611)
	fallbacks := 0
	for i := 0; i < ps; i++ {
		p := math.Pow(10, -9*r.Float64())
		if i%2 == 1 {
			p = 1 - p
		}
		if p <= 0 || p >= 1 {
			continue
		}
		g := newGeomGap(p)
		for j := 0; j < perP; j++ {
			u := r.Float64Open()
			got, fast := g.gap(u)
			if want := refGap(u, g.logq); got != want {
				t.Fatalf("p=%v U=%v: kernel %v, reference %v", p, u, got, want)
			}
			if !fast {
				fallbacks++
			}
		}
	}
	if rate := float64(fallbacks) / (ps * perP); rate >= 1e-6 {
		t.Errorf("fallback rate %v (%d draws), want < 1e-6", rate, fallbacks)
	}
}

// TestFastLogWithinBound checks fastLog against math.Log on every table
// cell's ends and middle at every exponent Float64Open can produce, and on
// the U closest to 1. The allowance is the derived bound
// (2.58*E + 3.11) * 2^-53 plus one ulp for math.Log itself.
func TestFastLogWithinBound(t *testing.T) {
	worst := 0.0
	check := func(u float64) {
		e := -math.Ilogb(u)
		ref := math.Log(u)
		ulp := math.Nextafter(math.Abs(ref), math.Inf(1)) - math.Abs(ref)
		bound := (2.58*float64(e)+3.11)*0x1p-53 + ulp
		err := math.Abs(fastLog(u) - ref)
		if err > bound {
			t.Fatalf("fastLog(%v) = %v, math.Log %v: error %g > bound %g", u, fastLog(u), ref, err, bound)
		}
		worst = math.Max(worst, err/bound)
	}
	for e := -53; e <= -1; e++ {
		for j := 0; j < 256; j++ {
			lo := math.Ldexp(1+float64(j)/256, e)
			hi := math.Ldexp(1+float64(j+1)/256, e)
			check(lo)
			check(math.Nextafter(hi, 0))
			check(math.Ldexp(1+(float64(j)+0.5)/256, e))
		}
	}
	for k := uint64(0); k < 4096; k++ {
		check(gridU(gridMax - k))
	}
	t.Logf("largest error / bound: %.3f", worst)
}

// TestGapKernelHugeGaps: when p is so small that a gap exceeds the int range
// (or 1/logq overflows), columns must end rather than wrap, on 32-bit
// platforms too.
func TestGapKernelHugeGaps(t *testing.T) {
	r := NewRNG(9)
	for _, p := range []float64{1e-9, 1e-300, 5e-324} {
		for i := 0; i < 200; i++ {
			for _, pos := range AppendBernoulli(nil, 1000, p, r) {
				if pos >= 1000 {
					t.Fatalf("p=%v: position %d out of range", p, pos)
				}
			}
			if n := (Binomial{N: 1000, P: p}).Sample(r); n < 0 || n > 1000 {
				t.Fatalf("p=%v: Binomial sample %d out of range", p, n)
			}
		}
		if p < 1e-100 {
			if x := (Geometric{P: p}).Sample(r); x != math.MaxInt {
				t.Errorf("p=%v: Geometric sample %d, want saturation at MaxInt", p, x)
			}
		}
	}
}
