package stats

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

func TestRNGDeterministicBySeed(t *testing.T) {
	a, b := NewRNG(12345), NewRNG(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRNG(12346)
	same := 0
	a2 := NewRNG(12345)
	for i := 0; i < 1000; i++ {
		if a2.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d collisions in 1000 draws", same)
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	// Must not be stuck at zero.
	allZero := true
	for i := 0; i < 10; i++ {
		if r.Uint64() != 0 {
			allZero = false
		}
	}
	if allZero {
		t.Fatal("zero seed produced all-zero stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(77)
	for i := 0; i < 100000; i++ {
		u := r.Float64()
		if u < 0 || u >= 1 {
			t.Fatalf("Float64 out of range: %v", u)
		}
	}
}

func TestFloat64Uniformity(t *testing.T) {
	r := NewRNG(31337)
	const bins = 20
	const trials = 200000
	counts := make([]float64, bins)
	for i := 0; i < trials; i++ {
		counts[int(r.Float64()*bins)]++
	}
	expected := make([]float64, bins)
	for i := range expected {
		expected[i] = trials / bins
	}
	res := ChiSquareTest(counts, expected, 5, 0)
	if res.PValue < 1e-4 {
		t.Errorf("uniformity chi-square p=%v", res.PValue)
	}
}

func TestIntnUnbiased(t *testing.T) {
	r := NewRNG(2024)
	const n = 7
	const trials = 140000
	counts := make([]float64, n)
	for i := 0; i < trials; i++ {
		v := r.Intn(n)
		if v < 0 || v >= n {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	expected := make([]float64, n)
	for i := range expected {
		expected[i] = trials / n
	}
	res := ChiSquareTest(counts, expected, 5, 0)
	if res.PValue < 1e-4 {
		t.Errorf("Intn chi-square p=%v", res.PValue)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	NewRNG(1).Intn(0)
}

// intnPins fingerprint r.Intn(n) from NewRNG(seed): hash is the FNV-64a of
// the first 64 outputs written in decimal, each followed by a comma, and
// next is the Uint64 drawn after them, which pins the values the rejection
// loop consumed. Captured before Intn used bits.Mul64. The last two bounds
// exceed 2^32 and run on 64-bit platforms only; 2^62+1 rejects about a
// quarter of its draws.
var intnPins = []struct {
	n, seed, hash, next uint64
}{
	{1, 1, 0xbc64bf95c2475b25, 0x9436a47fa3eb824b},
	{1, 15, 0xbc64bf95c2475b25, 0x6272100e8056947a},
	{2, 1, 0xf4f45ddb3ea50774, 0x9436a47fa3eb824b},
	{2, 15, 0x21b0fd25a99d5b35, 0x6272100e8056947a},
	{3, 1, 0xa4b1ba9805e41d17, 0x9436a47fa3eb824b},
	{3, 15, 0xd06a4f06c561a136, 0x6272100e8056947a},
	{1000003, 1, 0xce8f7c0a310073c3, 0x9436a47fa3eb824b},
	{1000003, 15, 0x2041d28836842e3c, 0x6272100e8056947a},
	{1<<31 - 1, 1, 0x252327025af0e543, 0x9436a47fa3eb824b},
	{1<<31 - 1, 15, 0xe17f5a5f4c699155, 0x6272100e8056947a},
	{3<<40 + 7, 1, 0x3d0f1f7c8478c84f, 0x9436a47fa3eb824b},
	{3<<40 + 7, 15, 0xc7ef050d4631bd41, 0x6272100e8056947a},
	{1<<62 + 1, 1, 0x882087dc1ef90b7c, 0x52901f44bbf9062b},
	{1<<62 + 1, 15, 0x9fee94be81971d9, 0x6252997eb890546f},
}

// intnFingerprint draws 64 values with draw and returns intnPins' hash and
// next for them.
func intnFingerprint(r *RNG, draw func(*RNG) int) (hash, next uint64) {
	h := fnv.New64a()
	for i := 0; i < 64; i++ {
		fmt.Fprintf(h, "%d,", draw(r))
	}
	return h.Sum64(), r.Uint64()
}

func TestIntnPinned(t *testing.T) {
	for _, p := range intnPins {
		if p.n > math.MaxInt {
			continue // beyond int on this platform
		}
		n := int(p.n)
		hash, next := intnFingerprint(NewRNG(p.seed), func(r *RNG) int { return r.Intn(n) })
		if hash != p.hash || next != p.next {
			t.Errorf("Intn(%d) from seed %d: fingerprint %#x, next %#x; want %#x, %#x",
				n, p.seed, hash, next, p.hash, p.next)
		}
	}
}

func TestFixedIntnMatchesIntn(t *testing.T) {
	// Draw alone and the Reduce-then-Draw pattern must return Intn's values
	// and leave the RNG where Intn leaves it, on the pinned bounds and on
	// bounds whose rejection zone is large or tiny.
	ns := []uint64{1, 2, 3, 7, 1000003, 1<<31 - 1, 1 << 30, 3 << 29}
	for _, p := range intnPins {
		ns = append(ns, p.n)
	}
	ns = append(ns, 1<<63-1, 1<<62+1, 3<<61, 1<<63/3*2+1)
	for _, un := range ns {
		if un > math.MaxInt {
			continue
		}
		n := int(un)
		f := NewFixedIntn(n)
		for _, seed := range []uint64{1, 15, 99} {
			want, fixed, pattern := NewRNG(seed), NewRNG(seed), NewRNG(seed)
			for i := 0; i < 4096; i++ {
				w := want.Intn(n)
				if got := f.Draw(fixed); got != w {
					t.Fatalf("n=%d seed=%d draw %d: Draw %d, Intn %d", n, seed, i, got, w)
				}
				got, ok := f.Reduce(pattern.Uint64())
				if !ok {
					got = f.Draw(pattern)
				}
				if got != w {
					t.Fatalf("n=%d seed=%d draw %d: Reduce/Draw %d, Intn %d", n, seed, i, got, w)
				}
			}
			if w, a, b := want.Uint64(), fixed.Uint64(), pattern.Uint64(); a != w || b != w {
				t.Fatalf("n=%d seed=%d: RNG state after Draw (%#x) or Reduce/Draw (%#x) differs from Intn's (%#x)",
					n, seed, a, b, w)
			}
		}
	}
}

func TestFixedIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewFixedIntn(0) should panic")
		}
	}()
	NewFixedIntn(0)
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(55)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(4242)
	const trials = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < trials; i++ {
		x := r.NormFloat64()
		sum += x
		sumSq += x * x
	}
	mean := sum / trials
	variance := sumSq / trials
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean %v", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance %v", variance)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewRNG(9)
	c1 := parent.Split()
	c2 := parent.Split()
	same := 0
	for i := 0; i < 1000; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("split children collide %d times", same)
	}
}

func TestWeightedSampler(t *testing.T) {
	weights := []float64{1, 2, 3, 4}
	ws := NewWeightedSampler(weights)
	r := NewRNG(66)
	const trials = 100000
	counts := make([]float64, len(weights))
	for i := 0; i < trials; i++ {
		counts[ws.Sample(r)]++
	}
	expected := make([]float64, len(weights))
	for i, w := range weights {
		expected[i] = trials * w / 10
	}
	res := ChiSquareTest(counts, expected, 5, 0)
	if res.PValue < 1e-4 {
		t.Errorf("alias sampler chi-square p=%v", res.PValue)
	}
}

func TestSampleKOfN(t *testing.T) {
	r := NewRNG(17)
	for trial := 0; trial < 200; trial++ {
		k, n := 5, 20
		s := SampleKOfN(k, n, r)
		if len(s) != k {
			t.Fatalf("wrong size %d", len(s))
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("invalid sample %v", s)
			}
			seen[v] = true
		}
	}
	// k = n must return everything.
	s := SampleKOfN(10, 10, r)
	if len(s) != 10 {
		t.Fatal("k=n sample wrong size")
	}
}

func TestSampleKOfNUniform(t *testing.T) {
	// Each element should appear with probability k/n.
	r := NewRNG(23)
	const trials = 50000
	k, n := 3, 10
	counts := make([]float64, n)
	for i := 0; i < trials; i++ {
		for _, v := range SampleKOfN(k, n, r) {
			counts[v]++
		}
	}
	expected := make([]float64, n)
	for i := range expected {
		expected[i] = trials * float64(k) / float64(n)
	}
	res := ChiSquareTest(counts, expected, 5, 0)
	if res.PValue < 1e-4 {
		t.Errorf("Floyd sampling chi-square p=%v", res.PValue)
	}
}

func TestReservoir(t *testing.T) {
	r := NewRNG(3)
	const trials = 30000
	const streamLen = 50
	const capacity = 5
	counts := make([]float64, streamLen)
	for i := 0; i < trials; i++ {
		rv := NewReservoir(capacity, r)
		for x := 0; x < streamLen; x++ {
			rv.Offer(x)
		}
		for _, v := range rv.Items() {
			counts[v]++
		}
	}
	expected := make([]float64, streamLen)
	for i := range expected {
		expected[i] = trials * float64(capacity) / float64(streamLen)
	}
	res := ChiSquareTest(counts, expected, 5, 0)
	if res.PValue < 1e-4 {
		t.Errorf("reservoir chi-square p=%v", res.PValue)
	}
}
