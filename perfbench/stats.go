package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// median returns the middle of xs (the mean of the two middle values for an
// even count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank p-th percentile of sorted: the
// smallest sample with at least p% of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// tailLadder lists the percentiles a tail latency is reported at.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// minBeyond is how many samples must lie above a percentile for it to be
// reported as the tail.
const minBeyond = 10

// tail is the highest ladder percentile with at least minBeyond samples
// strictly above it.
type tail struct {
	P      float64 // the percentile
	Value  float64 // its value
	N      int     // samples in the run
	Beyond int     // samples strictly above Value
}

// tailOf applies the tail rule to xs; ok is false when even the lowest
// ladder percentile has fewer than minBeyond samples above it.
func tailOf(xs []float64) (t tail, ok bool) {
	if len(xs) == 0 {
		return tail{}, false
	}
	s := sortedCopy(xs)
	for i := len(tailLadder) - 1; i >= 0; i-- {
		v := percentile(s, tailLadder[i])
		beyond := len(s) - sort.Search(len(s), func(j int) bool { return s[j] > v })
		if beyond >= minBeyond {
			return tail{P: tailLadder[i], Value: v, N: len(s), Beyond: beyond}, true
		}
	}
	return tail{}, false
}

// tally counts attempted and failed operations and checks; a failure keeps
// its reason for the run record.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	reasons   []string
}

// check records one attempt that failed unless ok.
func (t *tally) check(ok bool, format string, args ...any) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if !ok {
		t.failed++
		if len(t.reasons) < 20 {
			t.reasons = append(t.reasons, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// failRatio is failed / attempted (0 when nothing was attempted).
func (t *tally) failRatio() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// heapSampler samples the in-use heap (live and not yet swept objects) at a
// fixed interval while it runs.
type heapSampler struct {
	start time.Time
	stop  chan struct{}
	done  chan struct{}
	at    []time.Duration // sample offsets from start
	bytes []uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

// startHeapSampler samples every interval until finish; expected sizes the
// sample buffer so sampling does not grow the heap it measures.
func startHeapSampler(interval, expected time.Duration) *heapSampler {
	n := int(expected/interval) + 64
	h := &heapSampler{start: time.Now(), stop: make(chan struct{}), done: make(chan struct{}),
		at: make([]time.Duration, 0, n), bytes: make([]uint64, 0, n)}
	s := []metrics.Sample{{Name: heapMetric}}
	sample := func() {
		metrics.Read(s)
		h.at = append(h.at, time.Since(h.start))
		h.bytes = append(h.bytes, s[0].Value.Uint64())
	}
	sample()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				sample()
				return
			case <-tick.C:
				sample()
			}
		}
	}()
	return h
}

// finish stops the sampler; its samples may be read afterwards.
func (h *heapSampler) finish() {
	close(h.stop)
	<-h.done
}

// peakMB is the largest sample, in MB (10^6 bytes), taken between from and
// to — or the first one after from when the interval holds none.
func (h *heapSampler) peakMB(from, to time.Time) float64 {
	lo := sort.Search(len(h.at), func(i int) bool { return h.at[i] >= from.Sub(h.start) })
	if lo == len(h.at) {
		lo--
	}
	peak := h.bytes[lo]
	for i := lo + 1; i < len(h.at) && h.at[i] <= to.Sub(h.start); i++ {
		peak = max(peak, h.bytes[i])
	}
	return float64(peak) / 1e6
}

// allocatedBytes is the cumulative heap allocation of the process.
func allocatedBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// machine describes where a result was measured.
type machine struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Clients    int    `json:"clients"`
}

func describeMachine(clients int) machine {
	m := machine{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        "unknown",
		Go:         runtime.Version(),
		Clients:    clients,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				m.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return m
}

func (m machine) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d cpu=%q go=%s clients=%d",
		m.NumCPU, m.GOMAXPROCS, m.CPU, m.Go, m.Clients)
}

// stealSeconds is the CPU time the hypervisor has taken from this machine's
// virtual CPUs since boot, summed over CPUs (0 where /proc/stat is absent).
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}
