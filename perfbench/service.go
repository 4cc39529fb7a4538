package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sigfim"
	"sigfim/internal/client"
	"sigfim/internal/service"
	"sigfim/internal/stats"
)

// serviceWorkload drives an in-process sigfimd coordinator, whose fabric is
// one in-process sigfimd worker on loopback, with a closed loop of nproc
// clients. Three in four jobs are significant jobs at a fresh seed (result
// cache misses, shipped over the fabric); the fourth resubmits a finished
// job exactly (a cache hit).
type serviceWorkload struct {
	a       analysis
	fixture string // FIMI file of the one registered dataset
}

const datasetName = "golden"

// node is one in-process sigfimd serving HTTP on a loopback port.
type node struct {
	srv  *service.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

func startNode(opts service.Options, fimi []byte) (*node, error) {
	opts.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	srv := service.New(opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err == nil {
		_, err = srv.Registry().RegisterReader(datasetName, bytes.NewReader(fimi))
		if err != nil {
			ln.Close()
		}
	}
	if err != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return nil, errors.Join(err, srv.Shutdown(ctx))
	}
	n := &node{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(n.done)
		_ = n.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return n, nil
}

// close stops accepting requests, drains the job engine and waits for the
// serving goroutine to return.
func (n *node) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := errors.Join(n.hs.Shutdown(ctx), n.srv.Shutdown(ctx))
	<-n.done
	return err
}

// fabric is a coordinator with one remote worker, and the HTTP client the
// benchmark's clients share.
type fabric struct {
	worker, coord *node
	hc            *http.Client
	cl            *client.Client // talks to the coordinator
}

func startFabric(fimi []byte) (*fabric, error) {
	w, err := startNode(service.Options{}, fimi)
	if err != nil {
		return nil, fmt.Errorf("start worker: %w", err)
	}
	c, err := startNode(service.Options{RemoteWorkers: []string{w.url}}, fimi)
	if err != nil {
		return nil, errors.Join(fmt.Errorf("start coordinator: %w", err), w.close())
	}
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	return &fabric{worker: w, coord: c, hc: hc, cl: client.New(c.url, hc)}, nil
}

func (f *fabric) close() error {
	f.hc.CloseIdleConnections()
	return errors.Join(f.coord.close(), f.worker.close())
}

// jobOp is one job from submit to its terminal status, timed by the client.
type jobOp struct {
	hit                   bool
	start, submitted, end time.Time
	steal                 float64 // CPU seconds the hypervisor took meanwhile
	status                service.JobStatus
}

func (o jobOp) seconds() float64 { return o.end.Sub(o.start).Seconds() }

// submit posts req and, unless the submission was answered from the cache,
// follows the job's event stream to its terminal status.
func (f *fabric) submit(ctx context.Context, req service.JobRequest) (jobOp, error) {
	steal0 := stealSeconds()
	o := jobOp{start: time.Now()}
	st, err := f.cl.Submit(ctx, req)
	o.submitted = time.Now()
	if err == nil && !st.State.Terminal() {
		st, err = f.cl.Watch(ctx, st.ID, nil)
	}
	o.end = time.Now()
	o.steal = stealSeconds() - steal0
	// The server indents its responses; the result's stored bytes are the
	// compact encoding.
	if err == nil && len(st.Result) > 0 {
		var buf bytes.Buffer
		if err = json.Compact(&buf, st.Result); err == nil {
			st.Result = buf.Bytes()
		}
	}
	o.status = st
	return o, err
}

// loop is the closed-loop client population of one timed phase.
type loop struct {
	f     *fabric
	a     analysis
	seed  uint64
	tally *tally

	next atomic.Int64
	mu   sync.Mutex
	done []finished // completed misses, the pool hits resubmit from
	ops  []jobOp
}

// finished is a completed miss: its seed and result bytes.
type finished struct {
	seed   uint64
	result []byte
}

func (l *loop) request(seed uint64) service.JobRequest {
	return service.JobRequest{Dataset: datasetName, Kind: service.KindSignificant, K: l.a.k, Config: l.a.config(seed)}
}

// missSeed is the analysis seed of the n-th miss of a run; distinct n give
// distinct seeds, hence distinct cache keys.
func (l *loop) missSeed(n int64) uint64 { return l.seed<<24 + uint64(n) }

// one runs the loop's next job: every fourth is an exact resubmit of the
// latest finished job, which must be a cache hit with identical bytes. (The
// latest is the most recently used cache entry, so the bounded result cache
// cannot have evicted it.)
func (l *loop) one(ctx context.Context) {
	n := l.next.Add(1)
	if n%4 == 0 {
		l.mu.Lock()
		orig := l.done[len(l.done)-1]
		l.mu.Unlock()
		o, err := l.f.submit(ctx, l.request(orig.seed))
		o.hit = true
		l.tally.check(err == nil && o.status.CacheHit && bytes.Equal(o.status.Result, orig.result),
			"hit %d: err=%v cache_hit=%v, result differs from the original=%v", n, err, o.status.CacheHit, !bytes.Equal(o.status.Result, orig.result))
		l.record(o, nil)
		return
	}
	seed := l.missSeed(n)
	o, err := l.f.submit(ctx, l.request(seed))
	ok := l.tally.check(err == nil && o.status.State == service.StateDone && !o.status.CacheHit && len(o.status.Result) > 0,
		"miss %d: err=%v state=%s cache_hit=%v %s", n, err, o.status.State, o.status.CacheHit, o.status.Error)
	var fin *finished
	if ok {
		fin = &finished{seed: seed, result: o.status.Result}
	}
	l.record(o, fin)
}

func (l *loop) record(o jobOp, fin *finished) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ops = append(l.ops, o)
	if fin != nil {
		l.done = append(l.done, *fin)
	}
}

// runFor drives the loop with clients concurrent clients until dur has
// passed, each client waiting for its job before submitting the next.
func (l *loop) runFor(ctx context.Context, dur time.Duration, clients int) (ops []jobOp, elapsed time.Duration) {
	l.mu.Lock()
	l.ops = nil
	l.mu.Unlock()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur {
				l.one(ctx)
			}
		}()
	}
	wg.Wait()
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ops, time.Since(start)
}

func (w serviceWorkload) run(rc runConfig) (*result, error) {
	clients := runtime.NumCPU()
	res := newResult(describeMachine(clients))
	ctx := context.Background()

	// Set-up: read the fixture, start and register both servers, then one
	// untimed miss and its cache hit. The last set-up's fabric is measured.
	var fimi []byte
	var f *fabric
	var l *loop
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if f != nil {
			if err := f.close(); err != nil {
				return nil, fmt.Errorf("setup: close: %w", err)
			}
		}
		t0 := time.Now()
		var err error
		if fimi, err = os.ReadFile(w.fixture); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		if f, err = startFabric(fimi); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		l = &loop{f: f, a: w.a, seed: rc.seed, tally: &res.tally}
		l.next.Store(2) // the warm-up below is miss 3 and hit 4
		l.one(ctx)
		l.one(ctx)
		setups = append(setups, time.Since(t0).Seconds())
		if len(l.done) == 0 {
			return nil, errors.Join(fmt.Errorf("setup: warm-up job failed"), f.close())
		}
	}
	res.setup("setup_s", median(setups))
	err := w.measure(ctx, rc, res, l, clients, fimi)
	if cerr := f.close(); cerr != nil && err == nil {
		err = fmt.Errorf("shutdown: %w", cerr)
	}
	return res, err
}

// measure runs the timed phase and then checks the first miss against the
// direct library call, outside the timed phase.
func (w serviceWorkload) measure(ctx context.Context, rc runConfig, res *result, l *loop, clients int, fimi []byte) error {
	if rc.traced {
		if err := w.tracedPhase(ctx, rc, res, l, clients, fimi); err != nil {
			return err
		}
	} else {
		runtime.GC()
		heap := startHeapSampler(heapInterval, rc.dur)
		steal0 := stealSeconds()
		ops, elapsed := l.runFor(ctx, rc.dur, clients)
		heap.finish()
		var timed []timedOp
		var hits []float64
		for _, o := range ops {
			timed = append(timed, timedOp{start: o.start, end: o.end, steal: o.steal})
			if o.hit {
				hits = append(hits, o.seconds())
			}
		}
		res.endToEnd(timed, elapsed, heap, stealSeconds()-steal0)
		res.note("hit_s.p50", median(hits), "s")
		res.note("hits", float64(len(hits)), "count")
	}
	orig := l.done[0]
	direct, err := w.a.cliOp(fimi, orig.seed)
	res.tally.check(err == nil && bytes.Equal(direct, orig.result), "direct: service result differs from the library call (err=%v)", err)
	checkReport(&res.tally, fimi, orig.result, w.a.k)
	return nil
}

// tracedPhase runs the closed loop untraced for half the run and traced
// for the other half, reads the coordinator's cache and fabric counters
// around the traced half, times one worker partial, and decomposes one
// job's analysis into the library layers.
func (w serviceWorkload) tracedPhase(ctx context.Context, rc runConfig, res *result, l *loop, clients int, fimi []byte) error {
	plain, _ := l.runFor(ctx, rc.dur/2, clients)
	var untraced []float64
	for _, o := range plain {
		untraced = append(untraced, o.seconds())
	}

	before, err := l.f.cl.Stats(ctx)
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	traced, _ := l.runFor(ctx, rc.dur-rc.dur/2, clients)
	after, err := l.f.cl.Stats(ctx)
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}

	rec := newRecorder()
	var submit, queue, runS, hits []float64
	misses := 0
	for i, o := range traced {
		op := i + 1
		root := rec.add(op, 0, "op", rec.at(o.start), rec.at(o.end))
		rec.add(op, root, "service.submit", rec.at(o.start), rec.at(o.submitted))
		if o.hit {
			hits = append(hits, o.seconds())
			continue
		}
		misses++
		st := o.status
		submit = append(submit, o.submitted.Sub(o.start).Seconds())
		if st.StartedAt == nil || st.FinishedAt == nil {
			continue
		}
		queue = append(queue, st.StartedAt.Sub(st.CreatedAt).Seconds())
		runS = append(runS, st.FinishedAt.Sub(*st.StartedAt).Seconds())
		// Server-side phases, clipped to the part after Submit returned so
		// siblings never overlap.
		sub, end := rec.at(o.submitted), rec.at(o.end)
		clip := func(t time.Time) time.Duration { return min(max(rec.at(t), sub), end) }
		rec.add(op, root, "service.queue", clip(st.CreatedAt), clip(*st.StartedAt))
		rec.add(op, root, "service.run", clip(*st.StartedAt), clip(*st.FinishedAt))
	}
	res.spans = rec.snapshot()
	res.layer("service.submit_s.p50", median(submit), "s")
	res.layer("service.queue_s.p50", median(queue), "s")
	res.layer("service.run_s.p50", median(runS), "s")
	res.layer("service.hit_s.p50", median(hits), "s")
	hitN := float64(after.Cache.Hits - before.Cache.Hits)
	missN := float64(after.Cache.Misses - before.Cache.Misses)
	res.layer("service.cache_hit_ratio", hitN/max(hitN+missN, 1), "ratio")
	if after.Fabric != nil && before.Fabric != nil {
		ranges, retries := fabricDelta(before.Fabric, after.Fabric)
		res.layer("fabric.ranges", float64(ranges)/float64(max(misses, 1)), "count")
		res.layer("fabric.retries", float64(retries), "count")
		res.layer("fabric.local_fallbacks", float64(after.Fabric.LocalFallbacks-before.Fabric.LocalFallbacks), "count")
	}
	res.traceSummary(breakdowns(res.spans, "op"), untraced)

	// One job's analysis, decomposed into the library layers.
	orig := l.done[0]
	librec := newRecorder()
	var lt libraryTrace
	lt.run(librec, 1, w.a, &res.tally, fimi, orig.result, orig.seed)
	lt.layers(res, librec.snapshot(), w.a, orig.result)
	res.hash(fimi)
	return w.partial(ctx, res, l.f, fimi, lt.floor, orig.seed)
}

// partialReplicates is the size of the range the partial probe mines.
const partialReplicates = 100

// partial times POST /v1/partials on the worker for one range of the first
// job's replicates at its mining floor.
func (w serviceWorkload) partial(ctx context.Context, res *result, f *fabric, fimi []byte, floor int, seed uint64) error {
	ds, err := sigfim.ReadFIMI(bytes.NewReader(fimi))
	if err != nil {
		return err
	}
	rng := stats.NewRNG(seed)
	seeds := make([]uint64, partialReplicates)
	for i := range seeds {
		seeds[i] = rng.Uint64()
	}
	req := sigfim.PartialRequest{DatasetHash: ds.Hash(), From: 0, To: partialReplicates, K: w.a.k, Floor: floor, Seeds: seeds}
	cl := client.New(f.worker.url, f.hc)
	var xs []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		p, err := cl.Partial(ctx, req)
		xs = append(xs, time.Since(t0).Seconds())
		res.tally.check(err == nil && len(p.Counts) == partialReplicates, "partial %d: err=%v", i, err)
	}
	res.layer("fabric.partial_s.p50", median(xs), "s")
	return nil
}

// fabricDelta sums the range dispatches and the retried ones (failures and
// honored back-offs) across workers between two snapshots.
func fabricDelta(before, after *sigfim.FabricStats) (ranges, retries uint64) {
	prev := map[string]sigfim.WorkerStatus{}
	for _, w := range before.Workers {
		prev[w.URL] = w
	}
	for _, w := range after.Workers {
		p := prev[w.URL]
		ranges += (w.Successes + w.Failures) - (p.Successes + p.Failures)
		retries += (w.Failures + w.Backoffs) - (p.Failures + p.Backoffs)
	}
	return ranges, retries
}
