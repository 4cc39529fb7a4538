package main

import (
	"testing"
	"time"
)

// sp is a synthetic span: its parent's position (1-based, 0 for a root),
// name, and start and end in milliseconds.
type sp struct {
	parent     int
	name       string
	start, end int
}

// build records synthetic spans of one operation in order.
func build(specs ...sp) []span {
	r := &recorder{}
	for _, s := range specs {
		r.add(1, s.parent, s.name, ms(s.start), ms(s.end))
	}
	return r.snapshot()
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := build(
		sp{0, "op", 0, 100},
		sp{1, "a", 10, 30},
		sp{2, "a.child", 15, 25},
		sp{1, "b", 40, 70},
	)
	self := selfTimes(spans)
	for i, want := range []time.Duration{ms(50), ms(10), ms(10), ms(30)} {
		if self[i] != want {
			t.Errorf("self of %s = %v, want %v", spans[i].Name, self[i], want)
		}
	}
}

func TestSelfTimeCountsOverlapOnceAndClipsToParent(t *testing.T) {
	spans := build(
		sp{0, "op", 0, 100},
		sp{1, "a", 10, 30},
		sp{1, "b", 20, 40},  // overlaps a by 10
		sp{1, "c", 90, 120}, // runs past the parent's end
	)
	if got := selfTimes(spans)[0]; got != ms(100-30-10) {
		t.Fatalf("root self = %v, want %v", got, ms(60))
	}
}

func TestBreakdownAddsUpToOperationTime(t *testing.T) {
	spans := build(
		sp{0, "op", 0, 100},
		sp{1, "parse", 0, 5},
		sp{1, "mine", 5, 80},
		sp{3, "gen", 10, 20},
		sp{3, "gen", 30, 40},
		sp{1, "encode", 90, 95},
		sp{0, "replay", 100, 300}, // another root: not part of any op
		sp{7, "mine", 100, 290},
		sp{0, "op", 300, 350},
		sp{9, "parse", 300, 310},
	)
	bds := breakdowns(spans, "op")
	if len(bds) != 2 {
		t.Fatalf("%d breakdowns, want one per op root", len(bds))
	}
	first := bds[0]
	want := map[string]time.Duration{"parse": ms(5), "mine": ms(55), "gen": ms(20), "encode": ms(5)}
	for name, d := range want {
		if first.Self[name] != d {
			t.Errorf("self[%s] = %v, want %v", name, first.Self[name], d)
		}
	}
	if len(first.Self) != len(want) {
		t.Errorf("self times %v include spans of another root", first.Self)
	}
	if first.Residual != ms(15) || first.Total != ms(100) {
		t.Errorf("residual %v of total %v, want 15ms of 100ms", first.Residual, first.Total)
	}
	for _, b := range bds {
		sum := b.Residual
		for _, d := range b.Self {
			sum += d
		}
		if sum != b.Total {
			t.Errorf("self times plus residual = %v, op time %v", sum, b.Total)
		}
	}
	if bds[1].Residual != ms(40) || bds[1].Self["parse"] != ms(10) {
		t.Errorf("second op: %+v", bds[1])
	}
}

func TestSpanSumsPerRoot(t *testing.T) {
	spans := build(
		sp{0, "replay", 0, 100},
		sp{1, "gen", 0, 10},
		sp{1, "gen", 20, 35},
		sp{0, "op", 100, 200},
		sp{4, "gen", 100, 150},
	)
	sums := spanSums(spans, "replay")
	if len(sums) != 1 || sums[0]["gen"] != ms(25) || sums[0]["replay"] != ms(100) {
		t.Fatalf("replay sums = %v", sums)
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *recorder
	ran := false
	r.timed(1, 0, "x", func() { ran = true })
	if !ran || r.begin(1, 0, "y") != 0 {
		t.Fatal("nil recorder must run the call and return span 0")
	}
}

func TestTraceSummaryChecksArithmetic(t *testing.T) {
	spans := build(sp{0, "op", 0, 100}, sp{1, "a", 10, 60})
	r := newResult(machine{})
	r.traceSummary(breakdowns(spans, "op"), []float64{0.09})
	if r.tally.failed != 0 || r.tally.attempted != 1 {
		t.Fatalf("tally %d/%d, want one passing arithmetic check", r.tally.failed, r.tally.attempted)
	}
	if got := r.layers["trace.overhead_s"].Value; got < 0.0099 || got > 0.0101 {
		t.Errorf("overhead = %g s, want 0.01", got)
	}
	if got := r.layers["trace.residual_s"].Value; got != 0.05 {
		t.Errorf("residual = %g s, want 0.05", got)
	}
	shares := r.trace["self_time_share"].(map[string]float64)
	if shares["a"] != 0.5 || shares["residual"] != 0.5 {
		t.Errorf("shares = %v", shares)
	}
}
