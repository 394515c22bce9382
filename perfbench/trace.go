package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark around its own calls into the program (the program itself
// is not instrumented).
type span struct {
	Name   string
	Req    string // request id; spans of one request share it
	Start  time.Time
	End    time.Time
	Parent int // index of the enclosing span of the same request, -1 at the root
	// Attrs are counts observed at the boundary (guest instructions,
	// compilations, Go allocations), so ratios are formed where the
	// work happened.
	Attrs map[string]float64
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced configuration: every method is a no-op, so the
// measuring code calls it unconditionally.
type tracer struct {
	mu    sync.Mutex
	spans []span
	open  map[string][]int // request id -> stack of open span indexes
}

func newTracer() *tracer { return &tracer{open: map[string][]int{}} }

// begin opens a span for req. Its parent is the innermost span of the
// same request still open, which also links spans opened on different
// goroutines (a handler wrapper) to the caller that caused them.
func (t *tracer) begin(name, req string) int {
	if t == nil {
		return -1
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if st := t.open[req]; len(st) > 0 {
		parent = st[len(st)-1]
	}
	t.spans = append(t.spans, span{Name: name, Req: req, Start: now, Parent: parent})
	id := len(t.spans) - 1
	t.open[req] = append(t.open[req], id)
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	st := t.open[t.spans[id].Req]
	for i := len(st) - 1; i >= 0; i-- {
		if st[i] == id {
			st = append(st[:i], st[i+1:]...)
			break
		}
	}
	if len(st) == 0 {
		delete(t.open, t.spans[id].Req)
	} else {
		t.open[t.spans[id].Req] = st
	}
}

// set attaches a count to span id.
func (t *tracer) set(id int, key string, v float64) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.spans[id].Attrs == nil {
		t.spans[id].Attrs = map[string]float64{}
	}
	t.spans[id].Attrs[key] = v
}

// snapshot returns the closed spans and, for each, its children.
func (t *tracer) snapshot() ([]span, [][]int) {
	if t == nil {
		return nil, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := append([]span(nil), t.spans...)
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	return spans, kids
}

// selfTime is a span's duration minus the part of its interval that
// its children cover. Overlapping children (a retried request whose
// attempts overlap, concurrent sub-calls) count once: the child
// intervals are clipped to the parent and merged before summing.
func selfTime(spans []span, kids []int, id int) time.Duration {
	p := spans[id]
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := spans[k].Start, spans[k].End
		if a.Before(p.Start) {
			a = p.Start
		}
		if b.After(p.End) {
			b = p.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			covered += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.b.Sub(cur.a)
	}
	return p.dur() - covered
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
