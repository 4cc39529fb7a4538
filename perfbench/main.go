// Command perfbench is the end-to-end benchmark of the sigfim module. It
// runs one named workload for a fixed wall time, checks every output it
// produces, and prints each metric by name with its unit; the last line of
// standard output is one JSON object with the contract fields (correct,
// attempted, failed, metrics).
//
// Build and run it from the repository root through the wrapper, which
// keeps the build inside the checkout:
//
//	bash perfbench/run.sh --workload dense-k3 --seed 1 --seconds 15 --trace 0
//
// --trace 0 measures the end-to-end metrics with no tracing. --trace 1 is
// the separate traced run: it times the calls into each layer from this
// package's own files, reports the per-layer metrics, the residual and the
// tracing overhead, and writes the spans to the run record under -out.
// METRICS.md lists the workloads and what each metric should move.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"sigfim"
	"sigfim/internal/core"
)

// runConfig is what the command line fixes for one run.
type runConfig struct {
	seed   uint64
	dur    time.Duration
	traced bool
}

type runner interface {
	run(rc runConfig) (*result, error)
}

// workloads are the benchmark's named workloads; METRICS.md says why each
// was chosen.
var workloads = map[string]runner{
	"dense-k3":    libraryWorkload{profile: "Pumsb*", scale: 16, a: analysis{k: 3, delta: 30}},
	"lowfloor-k3": libraryWorkload{profile: "Bms1", scale: 4, a: analysis{k: 3, delta: 100}},
	// Westfall-Young adjusted p-values are at least 1/(Delta+1), so swap-wy
	// needs Delta >= 19 for Procedure 1 to be able to reject at beta = 0.05.
	"swap-wy":        libraryWorkload{profile: "Retail", scale: 8, a: analysis{k: 2, delta: 20, swap: true, correction: core.CorrectionWestfallYoung}},
	"service-fabric": serviceWorkload{a: analysis{k: 2, delta: 1000}, fixture: "testdata/golden_input.dat"},
}

// metricDef is a metric of the contract: its unit and direction.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEndMetrics are reported by every untraced run.
var endToEndMetrics = []metricDef{
	{"op_s.p50", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"peak_heap_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// layerMetrics are reported by every traced run; a layer that does not run
// on a workload reports 0.
var layerMetrics = []metricDef{
	{"dataset.parse_s", "s", "lower"},
	{"dataset.index_s", "s", "lower"},
	{"dataset.hash_s", "s", "lower"},
	{"randmodel.generate_s", "s", "lower"},
	{"randmodel.replicates", "count", "lower"},
	{"mining.replicate_mine_s", "s", "lower"},
	{"mining.replicate_itemsets", "count", "lower"},
	{"mining.final_mine_s", "s", "lower"},
	{"mining.significant_itemsets", "count", "higher"},
	{"montecarlo.alg1_s", "s", "lower"},
	{"montecarlo.alg1_serial_s", "s", "lower"},
	{"montecarlo.parallel_eff", "ratio", "higher"},
	{"montecarlo.other_s", "s", "lower"},
	{"montecarlo.entries", "count", "lower"},
	{"montecarlo.alloc_mb", "MB", "lower"},
	{"core.proc2_s", "s", "lower"},
	{"core.ladder_steps", "count", "lower"},
	{"core.proc1_s", "s", "lower"},
	{"report.encode_s", "s", "lower"},
	{"report.bytes", "bytes", "lower"},
	{"service.submit_s.p50", "s", "lower"},
	{"service.queue_s.p50", "s", "lower"},
	{"service.run_s.p50", "s", "lower"},
	{"service.hit_s.p50", "s", "lower"},
	{"service.cache_hit_ratio", "ratio", "higher"},
	{"fabric.ranges", "count", "lower"},
	{"fabric.partial_s.p50", "s", "lower"},
	{"fabric.retries", "count", "lower"},
	{"fabric.local_fallbacks", "count", "lower"},
	{"trace.op_s.p50", "s", "lower"},
	{"trace.untraced_op_s.p50", "s", "lower"},
	{"trace.overhead_s", "s", "lower"},
	{"trace.residual_s", "s", "lower"},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: dense-k3, lowfloor-k3, swap-wy or service-fabric")
	seed := fs.Uint64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 15, "wall time the run measures")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	out := fs.String("out", "", "directory for the run record (empty writes none)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: want -workload in %v, -seconds > 0 and -trace 0 or 1\n", workloadNames())
		return 2
	}
	rc := runConfig{seed: *seed, dur: time.Duration(*seconds * float64(time.Second)), traced: *traced == 1}
	res, err := w.run(rc)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := res.report(stdout, *name, rc)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if *out != "" {
		if err := res.writeRecord(*out, *name, rc); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: write record: %v\n", *name, err)
			return 1
		}
	}
	fmt.Fprintln(stdout, string(line))
	if res.tally.failed > 0 {
		for _, r := range res.tally.reasons {
			fmt.Fprintln(stderr, "perfbench: failed:", r)
		}
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metric is one measured value.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result collects what one run measured.
type result struct {
	machine machine
	tally   tally
	e2e     map[string]metric // end-to-end metrics (untraced run)
	layers  map[string]metric // per-layer metrics (traced run)
	notes   []metric          // printed and recorded, outside the contract
	tail    *tail
	spans   []span
	trace   map[string]any
	perOp   map[string][]float64
}

func newResult(m machine) *result {
	return &result{machine: m, e2e: map[string]metric{}, layers: map[string]metric{}}
}

func (r *result) setup(name string, v float64) { r.e2e[name] = metric{name, v, "s"} }

func (r *result) layer(name string, v float64, unit string) { r.layers[name] = metric{name, v, unit} }

func (r *result) note(name string, v float64, unit string) {
	r.notes = append(r.notes, metric{name, v, unit})
}

// timedOp is one operation of a timed phase.
type timedOp struct {
	start, end time.Time
	steal      float64 // CPU seconds the hypervisor took during the op
}

func (o timedOp) seconds() float64 { return o.end.Sub(o.start).Seconds() }

// heapInterval is how often the timed phase samples the heap.
const heapInterval = 2 * time.Millisecond

// endToEnd records the timed phase of an untraced run: the median operation
// time, completed operations per second, and the median over operations of
// the peak heap sampled while each ran. steal is the CPU time the
// hypervisor took from the machine meanwhile, reported so noisy runs show.
func (r *result) endToEnd(ops []timedOp, elapsed time.Duration, heap *heapSampler, steal float64) {
	var lat, peaks, steals []float64
	for _, o := range ops {
		lat = append(lat, o.seconds())
		peaks = append(peaks, heap.peakMB(o.start, o.end))
		steals = append(steals, o.steal)
	}
	r.e2e["op_s.p50"] = metric{"op_s.p50", median(lat), "s"}
	r.e2e["ops_per_s"] = metric{"ops_per_s", float64(len(ops)) / elapsed.Seconds(), "1/s"}
	r.e2e["peak_heap_mb"] = metric{"peak_heap_mb", median(peaks), "MB"}
	r.note("ops", float64(len(ops)), "count")
	r.note("steal_share", steal/(elapsed.Seconds()*float64(r.machine.NumCPU)), "ratio")
	if t, ok := tailOf(lat); ok {
		r.tail = &t
	}
	r.perOp = map[string][]float64{"op_s": lat, "peak_heap_mb": peaks, "steal_s": steals}
}

// hash times Dataset.Hash on freshly parsed copies of the input.
func (r *result) hash(fimi []byte) {
	var xs []float64
	for i := 0; i < 3; i++ {
		ds, err := sigfim.ReadFIMI(bytes.NewReader(fimi))
		if !r.tally.check(err == nil, "hash: parse input: %v", err) {
			return
		}
		t0 := time.Now()
		ds.Hash()
		xs = append(xs, time.Since(t0).Seconds())
	}
	r.layer("dataset.hash_s", median(xs), "s")
}

// traceSummary reports the traced operation time, its residual and the
// tracing overhead, records each layer's share of the traced operation, and
// checks that self times plus the residual add up to the operation time.
func (r *result) traceSummary(bds []breakdown, untraced []float64) {
	var totals, residuals []float64
	shares := map[string]float64{}
	var sumTotal time.Duration
	for i, b := range bds {
		totals = append(totals, b.Total.Seconds())
		residuals = append(residuals, b.Residual.Seconds())
		sum := b.Residual
		for name, d := range b.Self {
			sum += d
			shares[name] += d.Seconds()
		}
		sumTotal += b.Total
		r.tally.check(sum == b.Total, "trace op %d: self times plus residual %v != op time %v", i+1, sum, b.Total)
	}
	var resid float64
	for _, x := range residuals {
		resid += x
	}
	for name := range shares {
		shares[name] /= sumTotal.Seconds()
	}
	shares["residual"] = resid / sumTotal.Seconds()
	traced, plain := median(totals), median(untraced)
	r.layer("trace.op_s.p50", traced, "s")
	r.layer("trace.untraced_op_s.p50", plain, "s")
	r.layer("trace.overhead_s", traced-plain, "s")
	r.layer("trace.residual_s", median(residuals), "s")
	r.trace = map[string]any{
		"traced_ops":      len(bds),
		"self_time_share": shares,
		"overhead_share":  (traced - plain) / plain,
	}
}

// contract returns the metrics of the run's mode in the contract's order;
// layers that did not run report 0.
func (r *result) contract(traced bool) ([]metric, error) {
	defs, got := endToEndMetrics, r.e2e
	if traced {
		defs, got = layerMetrics, r.layers
	}
	var out []metric
	for _, d := range defs {
		m, ok := got[d.Name]
		switch {
		case !ok && traced:
			m = metric{d.Name, 0, d.Unit}
		case !ok:
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		case m.Unit != d.Unit:
			return nil, fmt.Errorf("metric %s measured in %s, want %s", d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return nil, fmt.Errorf("metric %s is %v", d.Name, m.Value)
		}
		out = append(out, m)
	}
	return out, nil
}

// report prints every metric by name with its unit and returns the JSON
// result line.
func (r *result) report(w io.Writer, name string, rc runConfig) ([]byte, error) {
	ms, err := r.contract(rc.traced)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%g trace=%v\n", name, rc.seed, rc.dur.Seconds(), rc.traced)
	fmt.Fprintf(w, "machine %s\n", r.machine)
	for _, m := range append(ms, r.notes...) {
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	if !rc.traced {
		if r.tail != nil {
			fmt.Fprintf(w, "  %-30s %14.6g s (p%g of %d ops, %d beyond)\n", "op_s.tail", r.tail.Value, r.tail.P, r.tail.N, r.tail.Beyond)
		} else {
			fmt.Fprintf(w, "  %-30s %14s (fewer than %d ops beyond any percentile)\n", "op_s.tail", "n/a", minBeyond)
		}
	}
	fmt.Fprintf(w, "  %-30s %14.6g ratio (%d failed of %d attempted)\n", "fail_ratio", r.tally.failRatio(), r.tally.failed, r.tally.attempted)
	if r.trace != nil {
		shares, _ := json.Marshal(r.trace)
		fmt.Fprintf(w, "  trace %s\n", shares)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range ms {
		metrics[m.Name] = value{m.Value, m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.tally.failed == 0 && r.tally.attempted > 0, r.tally.attempted, r.tally.failed, metrics})
}

// writeRecord writes everything the run measured — machine, metrics, notes,
// failures and spans — to a JSON file under dir.
func (r *result) writeRecord(dir, name string, rc runConfig) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	ms, err := r.contract(rc.traced)
	if err != nil {
		return err
	}
	rec := map[string]any{
		"workload": name, "seed": rc.seed, "seconds": rc.dur.Seconds(), "traced": rc.traced,
		"machine": r.machine, "metrics": ms, "notes": r.notes, "tail": r.tail,
		"attempted": r.tally.attempted, "failed": r.tally.failed, "failures": r.tally.reasons,
		"trace": r.trace, "spans": r.spans, "per_op": r.perOp,
	}
	b, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	trace := 0
	if rc.traced {
		trace = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", name, rc.seed, trace))
	return os.WriteFile(path, b, 0o644)
}
