// Package stats provides the statistical substrate for sigfim: special
// functions, discrete distributions with exact tails, random samplers, and
// goodness-of-fit tests.
//
// Everything in this package is implemented from scratch on top of the Go
// standard library (math only). The distributions expose exact upper tails
// (survival functions) because the paper's procedures compute p-values of the
// form Pr(Bin(t,f) >= s) and Pr(Poisson(lambda) >= q), where naive summation
// would be both slow and numerically unstable.
package stats

import (
	"math"
	"math/bits"
)

// RNG is a small, fast, seedable pseudo-random generator based on
// xoshiro256**. It is deliberately not safe for concurrent use; callers that
// parallelize create one RNG per goroutine via Split.
//
// A hand-rolled generator (rather than math/rand) keeps replicate streams
// reproducible across Go versions, which matters for the Monte Carlo
// experiments: EXPERIMENTS.md records numbers tied to specific seeds.
type RNG struct {
	s [4]uint64
}

// splitmix64 is the recommended seeding generator for xoshiro: it guarantees
// the four words of state are well mixed even for small consecutive seeds.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a generator seeded from the given seed. Two RNGs built from
// the same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Split derives an independent generator from the current one. It consumes
// one value from the parent stream, so repeated Splits yield distinct
// children. Used to hand one RNG per worker goroutine.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}

// Uint64 returns the next 64 uniformly distributed bits. It works on local
// copies of the state so that it is cheap enough to inline into Intn,
// Float64 and Float64Open, the per-draw calls of the swap chain and of the
// geometric-skip generator.
func (r *RNG) Uint64() uint64 {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	s2 ^= s0
	s3 ^= s1
	r.s = [4]uint64{s0 ^ s3, s1 ^ s2, s2 ^ s1<<17, bits.RotateLeft64(s3, 45)}
	return bits.RotateLeft64(s1*5, 7) * 9
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform value in (0, 1); it never returns 0, which
// keeps log(U) finite in exponential/geometric inversions.
func (r *RNG) Float64Open() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return u
		}
	}
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Uses Lemire's multiply-shift rejection method to avoid modulo bias.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	bound := uint64(n)
	for {
		hi, lo := bits.Mul64(r.Uint64(), bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// FixedIntn draws uniform integers in [0, n) for an n fixed in advance. For
// every n and every RNG state it returns exactly what r.Intn(n) returns and
// leaves r in the same state: it runs Intn's rejection test with Lemire's
// threshold 2^64 mod n computed once, by NewFixedIntn, instead of per draw.
// (Intn accepts when lo >= n or lo >= 2^64 mod n; as 2^64 mod n < n, that
// is lo >= 2^64 mod n.)
//
// Reduce is the accepting path, small enough to inline into a caller's
// loop; Draw finishes a rejected draw:
//
//	x, ok := f.Reduce(r.Uint64())
//	if !ok {
//		x = f.Draw(r)
//	}
type FixedIntn struct {
	n, thresh uint64
}

// NewFixedIntn returns the sampler of [0, n). It panics if n <= 0.
func NewFixedIntn(n int) FixedIntn {
	if n <= 0 {
		panic("stats: NewFixedIntn with non-positive n")
	}
	b := uint64(n)
	return FixedIntn{n: b, thresh: -b % b}
}

// Reduce maps one stream value v into [0, n). ok is false when the
// rejection test discards v; the draw then continues with Draw.
func (f FixedIntn) Reduce(v uint64) (x int, ok bool) {
	hi, lo := bits.Mul64(v, f.n)
	return int(hi), lo >= f.thresh
}

// Draw returns the next uniform integer in [0, n), exactly r.Intn(n).
func (f FixedIntn) Draw(r *RNG) int {
	for {
		if x, ok := f.Reduce(r.Uint64()); ok {
			return x
		}
	}
}

// Int63 returns a non-negative 63-bit integer.
func (r *RNG) Int63() int64 { return int64(r.Uint64() >> 1) }

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle performs a Fisher-Yates shuffle over n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// NormFloat64 returns a standard normal variate (polar Marsaglia method).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// ExpFloat64 returns an Exp(1) variate by inversion.
func (r *RNG) ExpFloat64() float64 {
	return -math.Log(r.Float64Open())
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	return r.Float64() < p
}
