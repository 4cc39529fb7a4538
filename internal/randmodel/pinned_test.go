package randmodel

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"sigfim/internal/dataset"
	"sigfim/internal/stats"
)

// pinnedModels are the independence-null shapes whose generated bits are
// pinned: the benchmark power law, a dense model (~50 items per row), and
// frequencies at the edges of the gap sampler's range.
func pinnedModels() []struct {
	name string
	m    IndependentModel
} {
	const edgeT = 20000
	return []struct {
		name string
		m    IndependentModel
	}{
		{"powerlaw", benchModel()},
		{"dense", IndependentModel{T: 3000, Freqs: stats.FitPowerLaw(120, 0.05, 0.9, 50).Frequencies()}},
		{"edge", IndependentModel{T: edgeT, Freqs: []float64{1e-9, 1.0 / edgeT, 0.5, 1 - 1e-12, 1}}},
	}
}

// pinnedFingerprints are FNV-64a fingerprints of the generated columns for
// seeds 1-5, captured from the reference generator (one
// floor(log(U)/log1p(-f)) per occurrence). Any change to the RNG stream, to
// the gap arithmetic or to the column layout moves them.
var pinnedFingerprints = map[string][5]uint64{
	"powerlaw": {0x5f76d3d6a99fc5b5, 0xe25109211faa0f88, 0x6bc978465203fc78, 0xb5d5b3af113abf83, 0x553def68dcfb854b},
	"dense":    {0x2858c14799dc713b, 0x1cafab9aaa385470, 0xa3e33b455e0c141c, 0x3f0be9b0ebbf2166, 0x1924f352d545bec1},
	"edge":     {0x89e688efefb6cc08, 0x195b4ef454b1601c, 0xa5d84299aca53498, 0xcf61023f8eb73349, 0x8d43142344ef11d5},
}

// columnFingerprint hashes every column's length and tids in order.
func columnFingerprint(v *dataset.Vertical) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, col := range v.Tids {
		binary.LittleEndian.PutUint32(buf[:], uint32(len(col)))
		h.Write(buf[:])
		for _, tid := range col {
			binary.LittleEndian.PutUint32(buf[:], tid)
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

func TestIndependentGenerateMatchesPinned(t *testing.T) {
	for _, pm := range pinnedModels() {
		want := pinnedFingerprints[pm.name]
		pooled := &dataset.Vertical{}
		for seed := uint64(1); seed <= 5; seed++ {
			pm.m.GenerateInto(stats.NewRNG(seed), pooled)
			fresh := pm.m.Generate(stats.NewRNG(seed))
			gotPooled, gotFresh := columnFingerprint(pooled), columnFingerprint(fresh)
			if gotPooled != want[seed-1] || gotFresh != want[seed-1] {
				t.Errorf("%s seed %d: fingerprint GenerateInto %#x, Generate %#x, want %#x",
					pm.name, seed, gotPooled, gotFresh, want[seed-1])
			}
		}
	}
}
