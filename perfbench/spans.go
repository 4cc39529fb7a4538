package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one operation share Op;
// Parent is the ID of the enclosing span (0 for a root). Start and End are
// offsets from the recorder's epoch.
type span struct {
	Op     int           `json:"op"`
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory for the run record. A nil recorder records
// nothing, so untraced code paths share the traced ones.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// now is the current offset from the epoch.
func (r *recorder) now() time.Duration { return time.Since(r.epoch) }

// at converts a wall-clock time (such as a server timestamp) to an offset.
func (r *recorder) at(t time.Time) time.Duration { return t.Round(0).Sub(r.epoch.Round(0)) }

// add records a finished span and returns its ID.
func (r *recorder) add(op, parent int, name string, start, end time.Duration) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{Op: op, ID: id, Parent: parent, Name: name, Start: start, End: end})
	return id
}

// begin opens a span that end closes.
func (r *recorder) begin(op, parent int, name string) int {
	if r == nil {
		return 0
	}
	now := r.now()
	return r.add(op, parent, name, now, now)
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := r.now()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// timed runs fn inside a span.
func (r *recorder) timed(op, parent int, name string, fn func()) {
	id := r.begin(op, parent, name)
	fn()
	r.end(id)
}

// snapshot copies the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, for each span (indexed like spans, whose IDs must be
// index+1), its duration minus the part of its interval that its children
// cover. Overlapping children are counted once.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's interval.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			total += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b - cur.a
	}
	return total
}

// breakdown is one root span's tree split into self time per span name.
// The root's own self time is the residual: time inside the operation that
// no timed layer call accounts for.
type breakdown struct {
	Total    time.Duration
	Residual time.Duration
	Self     map[string]time.Duration
}

// breakdowns splits every root span named rootName into self times per name.
// Self times plus the residual add up to Total whenever sibling spans do not
// overlap.
func breakdowns(spans []span, rootName string) []breakdown {
	self := selfTimes(spans)
	rootOf := make([]int, len(spans)) // index of each span's root
	byRoot := make(map[int]*breakdown)
	var order []int
	for i, s := range spans {
		if s.Parent == 0 {
			rootOf[i] = i
			if s.Name == rootName {
				byRoot[i] = &breakdown{Total: s.dur(), Residual: self[i], Self: map[string]time.Duration{}}
				order = append(order, i)
			}
			continue
		}
		rootOf[i] = rootOf[s.Parent-1]
		if b := byRoot[rootOf[i]]; b != nil {
			b.Self[s.Name] += self[i]
		}
	}
	out := make([]breakdown, 0, len(order))
	for _, i := range order {
		out = append(out, *byRoot[i])
	}
	return out
}

// spanSums sums the durations of the spans of each name under every root
// named rootName, one map per root, in recording order.
func spanSums(spans []span, rootName string) []map[string]time.Duration {
	rootOf := make([]int, len(spans))
	byRoot := make(map[int]map[string]time.Duration)
	var order []int
	for i, s := range spans {
		if s.Parent == 0 {
			rootOf[i] = i
			if s.Name == rootName {
				byRoot[i] = map[string]time.Duration{rootName: s.dur()}
				order = append(order, i)
			}
			continue
		}
		rootOf[i] = rootOf[s.Parent-1]
		if m := byRoot[rootOf[i]]; m != nil {
			m[s.Name] += s.dur()
		}
	}
	out := make([]map[string]time.Duration, 0, len(order))
	for _, i := range order {
		out = append(out, byRoot[i])
	}
	return out
}
