package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		name   string
		xs     []float64
		ok     bool
		p, v   float64
		beyond int
	}{
		{"too few samples", seq(19), false, 0, 0, 0},
		{"twenty samples reach only the median", seq(20), true, 50, 10, 10},
		{"forty samples reach p75", seq(40), true, 75, 30, 10},
		{"a hundred samples reach p90", seq(100), true, 90, 90, 10},
		{"a thousand samples reach p99", seq(1000), true, 99, 990, 10},
		{"ties above the percentile do not count as beyond it", make([]float64, 100), false, 0, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := tailOf(tc.xs)
			if ok != tc.ok {
				t.Fatalf("ok = %v, want %v (%+v)", ok, tc.ok, got)
			}
			if !ok {
				return
			}
			if got.P != tc.p || got.Value != tc.v || got.Beyond != tc.beyond || got.N != len(tc.xs) {
				t.Fatalf("tail = %+v, want p%g = %g with %d beyond of %d", got, tc.p, tc.v, tc.beyond, len(tc.xs))
			}
		})
	}
}

func TestTailIgnoresSampleOrder(t *testing.T) {
	xs := seq(100)
	for i, j := 0, len(xs)-1; i < j; i, j = i+1, j-1 {
		xs[i], xs[j] = xs[j], xs[i]
	}
	got, ok := tailOf(xs)
	if !ok || got.P != 90 || got.Value != 90 {
		t.Fatalf("tail of reversed samples = %+v, %v; want p90 = 90", got, ok)
	}
	if xs[0] != 100 {
		t.Fatal("tailOf reordered its input")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of odd count = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of even count = %g, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %g, want 0", got)
	}
}

func TestTallyCountsEveryAttempt(t *testing.T) {
	var tl tally
	if tl.failRatio() != 0 {
		t.Fatal("empty tally has a nonzero fail ratio")
	}
	for i := 0; i < 30; i++ {
		tl.check(i%3 != 0, "attempt %d", i)
	}
	if tl.attempted != 30 || tl.failed != 10 {
		t.Fatalf("attempted=%d failed=%d, want 30 and 10", tl.attempted, tl.failed)
	}
	if got := tl.failRatio(); got != 10.0/30 {
		t.Fatalf("fail ratio = %g, want 1/3", got)
	}
	if len(tl.reasons) != 10 || tl.reasons[1] != "attempt 3" {
		t.Fatalf("reasons = %q", tl.reasons)
	}
	for i := 0; i < 30; i++ {
		tl.check(false, "more")
	}
	if len(tl.reasons) != 20 || tl.failed != 40 {
		t.Fatalf("kept %d reasons for %d failures, want 20 kept and every failure counted", len(tl.reasons), tl.failed)
	}
}

// resultLine decodes the JSON line of a result report.
func resultLine(t *testing.T, r *result, traced bool) (correct bool, attempted, failed int, metrics map[string]map[string]any) {
	t.Helper()
	var out bytes.Buffer
	line, err := r.report(&out, "test", runConfig{seed: 1, traced: traced})
	if err != nil {
		t.Fatal(err)
	}
	var v struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}
	if err := json.Unmarshal(line, &v); err != nil {
		t.Fatalf("result line %s: %v", line, err)
	}
	return v.Correct, v.Attempted, v.Failed, v.Metrics
}

func fullResult() *result {
	r := newResult(machine{NumCPU: 1})
	r.setup("setup_s", 0.5)
	h := startHeapSampler(time.Millisecond, time.Second)
	h.finish()
	t0 := time.Now()
	ops := []timedOp{{start: t0, end: t0.Add(time.Second)}, {start: t0, end: t0.Add(3 * time.Second)}, {start: t0, end: t0.Add(2 * time.Second)}}
	r.endToEnd(ops, 6*time.Second, h, 0)
	return r
}

func TestEndToEndMetrics(t *testing.T) {
	r := fullResult()
	if got := r.e2e["op_s.p50"].Value; got != 2 {
		t.Errorf("op_s.p50 = %g, want 2", got)
	}
	if got := r.e2e["ops_per_s"].Value; got != 0.5 {
		t.Errorf("ops_per_s = %g, want 0.5", got)
	}
	if got := r.e2e["peak_heap_mb"].Value; got <= 0 {
		t.Errorf("peak_heap_mb = %g, want the sampled heap", got)
	}
}

func TestHeapPeakPerInterval(t *testing.T) {
	t0 := time.Now()
	h := &heapSampler{start: t0,
		at:    []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond},
		bytes: []uint64{1e6, 5e6, 2e6, 3e6}}
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	for _, tc := range []struct {
		from, to int
		want     float64
	}{
		{0, 30, 5},
		{15, 30, 3},
		{11, 12, 2}, // no sample inside: the next one
		{31, 40, 3}, // after the last sample: the last one
		{-5, 5, 1},
	} {
		if got := h.peakMB(at(tc.from), at(tc.to)); got != tc.want {
			t.Errorf("peak over [%d, %d] ms = %g MB, want %g", tc.from, tc.to, got, tc.want)
		}
	}
}

func TestFailedCheckMakesResultIncorrect(t *testing.T) {
	r := fullResult()
	r.tally.check(true, "op")
	correct, attempted, failed, _ := resultLine(t, r, false)
	if !correct || attempted != 1 || failed != 0 {
		t.Fatalf("passing run: correct=%v attempted=%d failed=%d", correct, attempted, failed)
	}
	r.tally.check(false, "wrong bytes")
	correct, attempted, failed, _ = resultLine(t, r, false)
	if correct || attempted != 2 || failed != 1 {
		t.Fatalf("failing run: correct=%v attempted=%d failed=%d", correct, attempted, failed)
	}
}

func TestResultWithNothingAttemptedIsIncorrect(t *testing.T) {
	if correct, _, _, _ := resultLine(t, fullResult(), false); correct {
		t.Fatal("a run that attempted nothing reported correct")
	}
}

func TestContractMetrics(t *testing.T) {
	r := fullResult()
	r.tally.check(true, "op")
	_, _, _, ms := resultLine(t, r, false)
	if len(ms) != len(endToEndMetrics) {
		t.Fatalf("untraced run reported %d metrics, want %d", len(ms), len(endToEndMetrics))
	}
	for _, d := range endToEndMetrics {
		if ms[d.Name]["unit"] != d.Unit {
			t.Errorf("%s: unit %v, want %s", d.Name, ms[d.Name]["unit"], d.Unit)
		}
	}
	_, _, _, ms = resultLine(t, r, true)
	if len(ms) != len(layerMetrics) {
		t.Fatalf("traced run reported %d metrics, want every layer metric (%d)", len(ms), len(layerMetrics))
	}

	missing := newResult(machine{})
	missing.setup("setup_s", 1)
	if _, err := missing.report(&bytes.Buffer{}, "test", runConfig{}); err == nil {
		t.Fatal("an untraced run missing end-to-end metrics reported no error")
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "dense-k3", "-trace", "2"},
		{"-workload", "dense-k3", "-seconds", "0"},
		{"-bogus"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with stdout %q, want 2 and no result", args, code, out.String())
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json's workloads and
// metrics in step with what the command runs and reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) < 2 {
		t.Errorf("BENCHMARK.json lists %d workloads, want at least 2", len(spec.Workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %s, which the command does not run", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(spec.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(spec.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range spec.EndToEnd {
		d := endToEndMetrics[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %d: %+v, code has %+v", i, m, d)
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range spec.PerLayer {
		d := layerMetrics[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: %+v, code has %+v", i, m, d)
		}
	}
}
