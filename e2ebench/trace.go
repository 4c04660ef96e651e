package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// now is the benchmark's one wall-clock read: every latency, lag and
// set-up time below is a difference of two now() values.
func now() time.Time {
	return time.Now() //aimlint:allow no-wallclock — the benchmark measures host time; it never feeds a simulated result
}

// span is one interval at a layer boundary. Times are offsets from the
// tracer's origin. Req ties the spans of one served request together;
// set-up and probe spans carry -1.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for a root
	Req    int64         `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// layer is the span name up to its first dot: "compiler.CompileStage"
// belongs to the compiler layer.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps spans in memory; write dumps them when the run ends.
// With on false it records nothing, so the untraced pass pays only the
// time reads it makes anyway.
type tracer struct {
	on     bool
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, origin: now()} }

// at converts a wall time to a tracer offset.
func (t *tracer) at(w time.Time) time.Duration { return w.Sub(t.origin) }

// add records a span and returns its id (-1 when tracing is off).
func (t *tracer) add(parent int, req int64, name string, start, end time.Duration) int {
	if !t.on {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	return id
}

// around times fn, records it as a span when tracing, and returns the
// elapsed time either way.
func (t *tracer) around(parent int, name string, fn func()) time.Duration {
	start := now()
	fn()
	end := now()
	t.add(parent, -1, name, t.at(start), t.at(end))
	return end.Sub(start)
}

// part is one modelled child of a measured span: a layer and the
// isolated cost of its call.
type part struct {
	name string
	dur  time.Duration
}

// nest lays parts out back to back inside [start, end] so that the
// last ends at end (a request's answer is the last thing to happen),
// and records them as children of parent. Parts whose isolated costs
// add up to more than the measured interval are scaled down to fit: a
// layer is never charged more time than the request spent. It returns
// the recorded spans in the order given. A negative cost counts as 0.
func (t *tracer) nest(parent int, req int64, start, end time.Duration, parts []part) []span {
	total := time.Duration(0)
	for _, p := range parts {
		total += max(p.dur, 0)
	}
	scale := 1.0
	if avail := end - start; total > avail && total > 0 {
		scale = float64(avail) / float64(total)
	}
	out := make([]span, len(parts))
	cur := end
	for i := len(parts) - 1; i >= 0; i-- {
		d := time.Duration(float64(max(parts[i].dur, 0)) * scale)
		out[i] = span{Parent: parent, Req: req, Name: parts[i].name, Start: cur - d, End: cur}
		out[i].ID = t.add(parent, req, parts[i].name, cur-d, cur)
		cur -= d
	}
	return out
}

// covered is the length of the union of intervals, clipped to
// [lo, hi]: overlapping children are counted once.
func covered(lo, hi time.Duration, iv [][2]time.Duration) time.Duration {
	clipped := make([][2]time.Duration, 0, len(iv))
	for _, v := range iv {
		a, b := max(v[0], lo), min(v[1], hi)
		if b > a {
			clipped = append(clipped, [2]time.Duration{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, v := range clipped {
		switch {
		case !open:
			curA, curB, open = v[0], v[1], true
		case v[0] <= curB:
			curB = max(curB, v[1])
		default:
			total += curB - curA
			curA, curB = v[0], v[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfTimes is each span's duration minus the part of it its children
// cover, indexed by span id.
func selfTimes(spans []span) []time.Duration {
	kids := make([][][2]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(s.Start, s.End, kids[i])
	}
	return self
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
