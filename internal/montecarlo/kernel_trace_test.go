package montecarlo

import (
	"context"
	"reflect"
	"strconv"
	"testing"

	"sigfim/internal/mining"
	"sigfim/internal/trace"
)

// spanInt returns the integer attribute key of sp, failing when it is absent.
func spanInt(t *testing.T, sp trace.Span, key string) int {
	t.Helper()
	for _, a := range sp.Attrs {
		if a.Key == key {
			n, err := strconv.Atoi(a.Value)
			if err != nil {
				t.Fatalf("%s attr %s=%q: %v", sp.Name, key, a.Value, err)
			}
			return n
		}
	}
	t.Fatalf("%s span lacks attr %s: %v", sp.Name, key, sp.Attrs)
	return 0
}

// TestMineSpanCountsKernels checks the kernel decision is observable on the
// montecarlo.mine span and nowhere else: a dense null under Auto mines its
// replicates with bitset Eclat, every locally mined replicate is counted
// under exactly one kernel, and tracing leaves the result unchanged.
func TestMineSpanCountsKernels(t *testing.T) {
	m := uniformModel(20, 300, 0.3)
	for _, algo := range []mining.Algorithm{mining.Auto, mining.EclatTids} {
		cfg := Config{K: 2, Delta: 40, Epsilon: 0.01, Seed: 3, Workers: 2, Algorithm: algo}
		plain, err := FindPoissonThreshold(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.NewRecorder("kernels")
		traced, err := FindPoissonThresholdCtx(trace.NewContext(context.Background(), rec), m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(traced.Curve, plain.Curve) || traced.SMin != plain.SMin {
			t.Fatalf("%v: tracing changed the result", algo)
		}
		bits, spans := 0, 0
		for _, sp := range rec.Snapshot().Spans {
			if sp.Name != "montecarlo.mine" {
				continue
			}
			spans++
			h, b, tids := spanInt(t, sp, "kernel_hash"), spanInt(t, sp, "kernel_bits"), spanInt(t, sp, "kernel_tids")
			if reps := spanInt(t, sp, "replicates"); h+b+tids != reps {
				t.Errorf("%v: kernels hash=%d bits=%d tids=%d do not add up to %d replicates", algo, h, b, tids, reps)
			}
			bits += b
		}
		if spans == 0 {
			t.Fatalf("%v: no montecarlo.mine span recorded", algo)
		}
		if algo == mining.Auto && bits == 0 {
			t.Errorf("Auto on a dense null never chose bitset Eclat")
		}
		if algo == mining.EclatTids && bits != 0 {
			t.Errorf("EclatTids ran bitset Eclat on %d replicates", bits)
		}
	}
}
