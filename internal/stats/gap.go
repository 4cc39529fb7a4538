package stats

import "math"

// Geometric gaps by inversion. A Bernoulli(p) process over positions
// 0..n-1 is sampled by drawing the gaps between successes: with U uniform on
// (0,1) and logq = log1p(-p), each gap is the reference value
//
//	floor(math.Log(U) / logq)
//
// This file computes that value bit-for-bit at a lower cost. One U is
// drawn per gap with RNG.Float64Open, exactly as the reference does, so the
// RNG stream is unchanged. The fast path replaces math.Log with a table
// logarithm and the divide with a multiply by 1/logq. It returns floor(y)
// only when y is more than a certified margin away from an integer, so that
// every implementation of math.Log within the bound below floors to the same
// value. Otherwise it recomputes the reference expression.
//
// The margin, in units of u = 2^-53. E = -exponent(U) lies in [1, 53].
//   - fastLog's absolute error is at most E*2.58u + 3.11u. The E terms are
//     ln 2's representation (E*u/2) and three roundings of magnitude at most
//     E*ln2: the product e*ln2, its sum with the table entry, and the final
//     sum. The rest: the table entry 2u (two ulps of a value below 1), the
//     product m*inv 1.01u, the degree-5 truncation |r|^6/6 <= 0.09u and the
//     polynomial's own roundings 0.01u. Since E < |ln U|/ln2 + 1, this is
//     at most |ln U|*3.73u + 5.69u.
//   - The fast quotient y = fl(fastLog(U) * fl(1/logq)) therefore lies
//     within z*5.73u + 5.70u/|logq| of z = ln(U)/logq.
//   - The reference is within z*5.01u of z. That budget allows math.Log two
//     ulps (Go documents less than one), plus the rounding of the divide.
//   - Together: |y - reference| <= 10.75u*y + 5.71u*|1/logq|, up to terms
//     of order u^2.
//
// gapMarginB and gapMarginA round those factors up to 12u and 8u. The slack
// absorbs the rounding of the margin itself. A fused multiply-add (arm64,
// ppc64le and s390x contract x*y+z) only removes roundings from the bound,
// so the margin holds with or without fusion. The explicit float64
// conversion of y keeps y one rounded value: floor(y) and y-floor(y) are
// then both exact.

const (
	gapMarginA = 0x1p-50     // 8u, times |1/logq|
	gapMarginB = 0x1p-51 * 3 // 12u, times y
)

// geomGap holds the per-p constants of the gap kernel.
type geomGap struct {
	logq float64 // log1p(-p) < 0, the reference divisor
	inv  float64 // fl(1/logq)
	a    float64 // gapMarginA * |inv|
}

func newGeomGap(p float64) geomGap {
	logq := math.Log1p(-p)
	inv := 1 / logq
	return geomGap{logq: logq, inv: inv, a: gapMarginA * math.Abs(inv)}
}

// gap returns floor(math.Log(u)/g.logq) for u in (0, 1), as a float64 (the
// value can exceed the int range when p is tiny), and whether the fast path
// certified it. NaN and infinite fast quotients are never certified.
func (g *geomGap) gap(u float64) (x float64, fast bool) {
	y := float64(fastLog(u) * g.inv)
	f := math.Floor(y)
	fr := y - f
	if m := g.a + gapMarginB*y; fr > m && 1-fr > m {
		return f, true
	}
	return g.exact(u), false
}

// exact is the reference expression, kept out of line so that the fast path
// stays small.
//
//go:noinline
func (g *geomGap) exact(u float64) float64 {
	return math.Floor(math.Log(u) / g.logq)
}

// logTab[j] covers the mantissas m in [1+j/256, 1+(j+1)/256): inv is
// fl(1/c) for the cell centre c, and log is -ln(inv), so that
// ln m = log + ln(1 + r) with r = m*inv - 1 and |r| <= 2^-9.
var logTab [256]struct{ inv, log float64 }

func init() {
	for j := range logTab {
		inv := 1 / (1 + (float64(j)+0.5)/256)
		logTab[j].inv = inv
		logTab[j].log = -math.Log(inv)
	}
}

// fastLog returns ln u for a positive normal u, within the absolute error
// bound derived above.
func fastLog(u float64) float64 {
	bits := math.Float64bits(u)
	t := &logTab[bits>>44&0xff]
	r := math.Float64frombits(bits&(1<<52-1)|1023<<52)*t.inv - 1
	// ln(1+r) to degree 5 (the first omitted term is below 2^-56), in
	// Estrin's form for a short dependency chain.
	r2 := r * r
	return (float64(int(bits>>52)-1023)*math.Ln2 + t.log) +
		(r + r2*((-0.5+r*(1.0/3))+r2*(-0.25+r*0.2)))
}

// AppendBernoulli appends to dst the positions in [0, n), in increasing
// order, at which independent Bernoulli(p) trials succeed, and returns the
// extended slice. It visits only the successes, so the expected cost is
// O(np). p <= 0 (or NaN) appends nothing, and p >= 1 appends every position;
// neither draws from r. The positions are those of the reference generator
// for the same RNG stream (see the comment at the top of this file).
func AppendBernoulli(dst []uint32, n int, p float64, r *RNG) []uint32 {
	if n <= 0 || !(p > 0) {
		return dst
	}
	if p >= 1 {
		for i := 0; i < n; i++ {
			dst = append(dst, uint32(i))
		}
		return dst
	}
	g := newGeomGap(p)
	pos := -1
	// rem counts the positions after pos. The comparison stays in float64,
	// so a gap beyond the int range ends the column instead of wrapping.
	for rem := float64(n); ; {
		gap, _ := g.gap(r.Float64Open())
		if gap >= rem {
			return dst
		}
		rem -= gap + 1
		pos += int(gap) + 1
		dst = append(dst, uint32(pos))
	}
}
