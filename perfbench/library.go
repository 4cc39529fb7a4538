package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"sigfim"
	"sigfim/internal/core"
	"sigfim/internal/dataset"
	"sigfim/internal/mining"
	"sigfim/internal/montecarlo"
	"sigfim/internal/randmodel"
	"sigfim/internal/stats"
	"sigfim/internal/synth"
)

// analysis is the significance analysis a library workload runs, as a user
// would request it through sigfim.Config.
type analysis struct {
	k          int
	delta      int
	swap       bool
	correction string
}

func (a analysis) config(seed uint64) *sigfim.Config {
	return &sigfim.Config{Delta: a.delta, Seed: seed, SwapNull: a.swap, Correction: a.correction}
}

// cliOp is one analysis on the CLI path: parse the FIMI bytes, run
// Significant, encode the report as JSON.
func (a analysis) cliOp(fimi []byte, seed uint64) ([]byte, error) {
	ds, err := sigfim.ReadFIMI(bytes.NewReader(fimi))
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	rep, err := ds.Significant(a.k, a.config(seed))
	if err != nil {
		return nil, fmt.Errorf("significant: %w", err)
	}
	return json.Marshal(rep)
}

// synthesize draws the real variant of a Table 1 profile, scaled down by
// scale, and encodes it as FIMI bytes.
func synthesize(profile string, scale int, seed uint64) ([]byte, error) {
	spec, ok := synth.ByName(profile)
	if !ok {
		return nil, fmt.Errorf("unknown profile %q", profile)
	}
	v := spec.Scale(scale).GenerateReal(seed)
	var buf bytes.Buffer
	if err := dataset.WriteFIMI(&buf, v.Horizontal()); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decomposed holds what a traced operation built, for its replay.
type decomposed struct {
	d     *dataset.Dataset
	v     *dataset.Vertical
	model randmodel.Model
	mc    *montecarlo.Result
	alloc uint64 // bytes allocated during Algorithm 1
}

// mcConfig is the Algorithm 1 configuration Significant derives from the
// analysis.
func (a analysis) mcConfig(seed uint64, workers int) montecarlo.Config {
	return montecarlo.Config{
		K: a.k, Delta: a.delta, Epsilon: 0.01, Seed: seed, Workers: workers,
		Algorithm:    mining.Auto,
		CollectMinPs: a.correction == core.CorrectionWestfallYoung,
	}
}

// tracedOp computes the same report bytes as cliOp by calling each layer's
// exported functions in the order Significant does, with a span named after
// the layer metric around every call. The spans are children of one "op"
// root span.
func (a analysis) tracedOp(rec *recorder, op int, fimi []byte, seed uint64) ([]byte, *decomposed, error) {
	root := rec.begin(op, 0, "op")
	defer rec.end(root)
	st := &decomposed{}
	var err error
	rec.timed(op, root, "dataset.parse_s", func() { st.d, err = dataset.ReadFIMI(bytes.NewReader(fimi)) })
	if err != nil {
		return nil, nil, fmt.Errorf("parse: %w", err)
	}
	rec.timed(op, root, "dataset.index_s", func() {
		st.d.ItemSupports()
		st.v = st.d.Vertical()
	})
	st.model = randmodel.FromProfile(dataset.ExtractVertical("dataset", st.v))
	if a.swap {
		st.model = &randmodel.SwapModel{Base: st.d}
	}
	rec.timed(op, root, "montecarlo.alg1_s", func() {
		before := allocatedBytes()
		st.mc, err = montecarlo.FindPoissonThresholdCtx(context.Background(), st.model, a.mcConfig(seed, 0))
		st.alloc = allocatedBytes() - before
	})
	if err != nil {
		return nil, nil, fmt.Errorf("algorithm 1: %w", err)
	}
	b, err := a.finish(rec, op, root, st.v, st.mc, 0)
	return b, st, err
}

// finish runs Procedures 2 and 1 and the final mining on top of an
// Algorithm 1 result and encodes the report exactly as Significant builds
// it.
func (a analysis) finish(rec *recorder, op, parent int, v *dataset.Vertical, mc *montecarlo.Result, workers int) ([]byte, error) {
	const alpha, beta = 0.05, 0.05
	sMin := max(mc.SMin, mc.Floor)
	lambda := func(s int) float64 { return mc.Lambda(max(s, mc.Floor)) }
	var p2 *core.Procedure2Result
	var err error
	rec.timed(op, parent, "core.proc2_s", func() {
		p2, err = core.Procedure2Ex(v, a.k, sMin, lambda, alpha, beta, core.SplitEqual, workers, mining.Auto)
	})
	if err != nil {
		return nil, fmt.Errorf("procedure 2: %w", err)
	}
	var p1 *core.Procedure1Result
	if a.correction != "" {
		rec.timed(op, parent, "core.proc1_s", func() {
			p1, err = core.Procedure1Ex(v, a.k, sMin, beta, a.correction, mc.MinPs)
		})
		if err != nil {
			return nil, fmt.Errorf("procedure 1: %w", err)
		}
	}
	rep := &sigfim.Report{K: a.k, SMin: p2.SMin, Alpha: p2.Alpha, Beta: p2.Beta}
	for _, s := range p2.Steps {
		rep.Steps = append(rep.Steps, sigfim.LadderStep{S: s.S, Q: s.Q, Lambda: s.Lambda, PValue: s.PValue, Rejected: s.Rejected})
	}
	if p2.Found {
		rep.SStar, rep.NumSignificant, rep.Lambda = p2.SStar, p2.Q, p2.Lambda
		if rep.NumSignificant <= 100000 {
			var rs []mining.Result
			rec.timed(op, parent, "mining.final_mine_s", func() {
				rs, err = mining.MineVertical(v, mining.Options{K: a.k, MinSupport: rep.SStar, Algorithm: mining.Auto, Workers: workers})
				mining.SortResults(rs)
			})
			if err != nil {
				return nil, fmt.Errorf("final mine: %w", err)
			}
			rep.Significant = make([]sigfim.Pattern, len(rs))
			for i, r := range rs {
				rep.Significant[i] = sigfim.Pattern{Items: r.Items, Support: r.Support}
			}
		}
	} else {
		rep.Infinite = true
	}
	if p1 != nil {
		b := &sigfim.BaselineReport{Correction: p1.Correction, NumSignificant: p1.FamilySize, NumTested: p1.NumMined}
		for _, s := range p1.Family {
			b.Significant = append(b.Significant, sigfim.Pattern{Items: s.Items, Support: s.Support})
		}
		rep.Baseline = b
		rep.PowerRatio = core.Ratio(p2, p1)
	}
	var out []byte
	rec.timed(op, parent, "report.encode_s", func() { out, err = json.Marshal(rep) })
	return out, err
}

// replayCounts are the work counts of one serial replay.
type replayCounts struct {
	replicates int
	itemsets   int
}

// replay re-runs a traced operation's Algorithm 1 with one worker, then
// replays its replicates one by one — generating each with the same seed
// stream and mining it at the result's floor — under a "replay" root span
// of the same op. It returns the report rebuilt from the serial result.
func (a analysis) replay(rec *recorder, op int, st *decomposed, seed uint64) ([]byte, replayCounts, error) {
	root := rec.begin(op, 0, "replay")
	defer rec.end(root)
	var mc1 *montecarlo.Result
	var err error
	rec.timed(op, root, "montecarlo.alg1_serial_s", func() {
		mc1, err = montecarlo.FindPoissonThresholdCtx(context.Background(), st.model, a.mcConfig(seed, 1))
	})
	if err != nil {
		return nil, replayCounts{}, fmt.Errorf("serial algorithm 1: %w", err)
	}
	gen, ok := st.model.(randmodel.InPlaceGenerator)
	if !ok {
		return nil, replayCounts{}, fmt.Errorf("null model %T has no GenerateInto", st.model)
	}
	var n replayCounts
	rng := stats.NewRNG(seed)
	v := &dataset.Vertical{}
	scr := mining.NewScratch()
	count := func(mining.Itemset, int) { n.itemsets++ }
	for i := 0; i < a.delta; i++ {
		s := rng.Uint64()
		rec.timed(op, root, "randmodel.generate_s", func() { gen.GenerateInto(stats.NewRNG(s), v) })
		rec.timed(op, root, "mining.replicate_mine_s", func() {
			mining.VisitKAlgoScratch(v, a.k, mc1.Floor, 1, mining.Auto, scr, count)
		})
		n.replicates++
	}
	var out []byte
	rep := rec.begin(op, root, "replay.report")
	out, err = a.finish(nil, op, 0, st.v, mc1, 1)
	rec.end(rep)
	return out, n, err
}

// libraryWorkload runs a library workload: the input is a synthetic profile
// analyzed on the CLI path, one analysis at a time.
type libraryWorkload struct {
	profile string
	scale   int
	a       analysis
}

// setupRepeats is how many times a run sets up, to report the median.
const setupRepeats = 5

func (w libraryWorkload) run(rc runConfig) (*result, error) {
	res := newResult(describeMachine(1))
	seed := rc.seed

	// Set-up: synthesize and encode the input, then one untimed warm-up
	// analysis, which also yields the reference report bytes.
	var fimi, ref []byte
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		in, err := synthesize(w.profile, w.scale, seed)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		b, err := w.a.cliOp(in, seed)
		if err != nil {
			return nil, fmt.Errorf("setup warm-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if ref != nil {
			res.tally.check(bytes.Equal(b, ref), "setup %d: report differs from setup 0", i)
		}
		fimi, ref = in, b
	}
	res.setup("setup_s", median(setups))
	res.note("input_bytes", float64(len(fimi)), "bytes")

	if rc.traced {
		w.tracedPhase(rc, res, fimi, ref)
	} else {
		w.timedPhase(rc, res, fimi, ref)
	}
	checkReport(&res.tally, fimi, ref, w.a.k)
	return res, nil
}

// timedPhase runs analyses back to back for the run's duration.
func (w libraryWorkload) timedPhase(rc runConfig, res *result, fimi, ref []byte) {
	runtime.GC()
	heap := startHeapSampler(heapInterval, rc.dur)
	var ops []timedOp
	steal0, start := stealSeconds(), time.Now()
	for len(ops) == 0 || time.Since(start) < rc.dur {
		s0 := stealSeconds()
		o := timedOp{start: time.Now()}
		b, err := w.a.cliOp(fimi, rc.seed)
		o.end = time.Now()
		o.steal = stealSeconds() - s0
		ops = append(ops, o)
		res.tally.check(err == nil && bytes.Equal(b, ref), "op %d: err=%v, report differs=%v", len(ops), err, !bytes.Equal(b, ref))
	}
	elapsed := time.Since(start)
	heap.finish()
	res.endToEnd(ops, elapsed, heap, stealSeconds()-steal0)
}

// tracedPhase interleaves an untraced analysis, a traced one and the traced
// operation's serial replay for the run's duration, then reports every
// layer metric as the median over operations.
func (w libraryWorkload) tracedPhase(rc runConfig, res *result, fimi, ref []byte) {
	rec := newRecorder()
	var untraced []float64
	var lt libraryTrace
	start := time.Now()
	for op := 1; op == 1 || time.Since(start) < rc.dur; op++ {
		t0 := time.Now()
		b, err := w.a.cliOp(fimi, rc.seed)
		untraced = append(untraced, time.Since(t0).Seconds())
		res.tally.check(err == nil && bytes.Equal(b, ref), "op %d: untraced report differs (err=%v)", op, err)
		lt.run(rec, op, w.a, &res.tally, fimi, ref, rc.seed)
	}
	res.spans = rec.snapshot()
	lt.layers(res, res.spans, w.a, ref)
	res.hash(fimi)
	res.traceSummary(breakdowns(res.spans, "op"), untraced)
}

// libraryTrace accumulates the per-operation counts of traced library
// operations.
type libraryTrace struct {
	allocs, entries []float64
	counts          []replayCounts
	floor           int // Algorithm 1's mining floor in the last operation
}

// run performs one traced operation and its serial replay, checking both
// against the reference report.
func (lt *libraryTrace) run(rec *recorder, op int, a analysis, t *tally, fimi, ref []byte, seed uint64) {
	b, st, err := a.tracedOp(rec, op, fimi, seed)
	if !t.check(err == nil && bytes.Equal(b, ref), "op %d: traced report differs (err=%v)", op, err) {
		return
	}
	lt.allocs = append(lt.allocs, float64(st.alloc)/1e6)
	lt.entries = append(lt.entries, float64(st.mc.NumItemsets))
	lt.floor = st.mc.Floor
	b, n, err := a.replay(rec, op, st, seed)
	t.check(err == nil && bytes.Equal(b, ref), "op %d: workers=1 replay report differs (err=%v)", op, err)
	lt.counts = append(lt.counts, n)
}

// layers reports every library layer metric as the median over the traced
// operations.
func (lt *libraryTrace) layers(res *result, spans []span, a analysis, ref []byte) {
	ops := spanSums(spans, "op")
	replays := spanSums(spans, "replay")
	med := func(ms []map[string]time.Duration, name string) float64 {
		var xs []float64
		for _, m := range ms {
			xs = append(xs, m[name].Seconds())
		}
		return median(xs)
	}
	for _, name := range []string{"dataset.parse_s", "dataset.index_s", "montecarlo.alg1_s",
		"core.proc2_s", "core.proc1_s", "mining.final_mine_s", "report.encode_s"} {
		res.layer(name, med(ops, name), "s")
	}
	alg1, serial := med(ops, "montecarlo.alg1_s"), med(replays, "montecarlo.alg1_serial_s")
	gen, mine := med(replays, "randmodel.generate_s"), med(replays, "mining.replicate_mine_s")
	res.layer("montecarlo.alg1_serial_s", serial, "s")
	res.layer("randmodel.generate_s", gen, "s")
	res.layer("mining.replicate_mine_s", mine, "s")
	res.layer("montecarlo.other_s", serial-gen-mine, "s")
	workers := min(runtime.GOMAXPROCS(0), a.delta)
	res.layer("montecarlo.parallel_eff", serial/(alg1*float64(workers)), "ratio")
	res.layer("montecarlo.entries", median(lt.entries), "count")
	res.layer("montecarlo.alloc_mb", median(lt.allocs), "MB")
	var reps, items []float64
	for _, n := range lt.counts {
		reps = append(reps, float64(n.replicates))
		items = append(items, float64(n.itemsets))
	}
	res.layer("randmodel.replicates", median(reps), "count")
	res.layer("mining.replicate_itemsets", median(items), "count")
	var rep sigfim.Report
	if res.tally.check(json.Unmarshal(ref, &rep) == nil, "decode reference report") {
		res.layer("mining.significant_itemsets", float64(len(rep.Significant)), "count")
		res.layer("core.ladder_steps", float64(len(rep.Steps)), "count")
	}
	res.layer("report.bytes", float64(len(ref)), "bytes")
}

// checkReport verifies a report against the dataset it was computed on:
// every reported pattern's support is its true support (and at least s* for
// the significant family), and NumSignificant is Q_{k,s*}.
func checkReport(t *tally, fimi, ref []byte, k int) {
	ds, err := sigfim.ReadFIMI(bytes.NewReader(fimi))
	if !t.check(err == nil, "check: parse input: %v", err) {
		return
	}
	var rep sigfim.Report
	if !t.check(json.Unmarshal(ref, &rep) == nil, "check: decode report") {
		return
	}
	bad := 0
	for _, p := range rep.Significant {
		if ds.Support(p.Items) != p.Support || p.Support < rep.SStar {
			bad++
		}
	}
	t.check(bad == 0, "check: %d of %d significant patterns have a wrong support or one below s*=%d", bad, len(rep.Significant), rep.SStar)
	if rep.Baseline != nil {
		bad = 0
		for _, p := range rep.Baseline.Significant {
			if ds.Support(p.Items) != p.Support {
				bad++
			}
		}
		t.check(bad == 0, "check: %d baseline patterns have a wrong support", bad)
	}
	if rep.Infinite {
		t.check(rep.NumSignificant == 0 && len(rep.Significant) == 0, "check: s* is infinite but patterns were reported")
		return
	}
	q := ds.CountK(k, rep.SStar)
	t.check(rep.NumSignificant == q, "check: NumSignificant=%d, CountK(%d, %d)=%d", rep.NumSignificant, k, rep.SStar, q)
	t.check(int64(len(rep.Significant)) == q || q > 100000, "check: %d patterns listed, Q=%d", len(rep.Significant), q)
}
