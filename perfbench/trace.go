package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a module. Parent is the
// ID of the span that caused it (0 for a root) and Pass the measured pass
// it belongs to. Times are offsets from the tracer's start.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Pass   int           `json:"pass"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	open  map[int64]span
	next  int64
	pass  int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), open: make(map[int64]span)}
}

// setPass tags spans begun from now on with pass.
func (t *tracer) setPass(pass int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.pass = pass
	t.mu.Unlock()
}

// begin opens a span and returns its ID for end and for children.
func (t *tracer) begin(name string, parent int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.open[t.next] = span{ID: t.next, Parent: parent, Pass: t.pass, Name: name, Start: now}
	return t.next
}

// end closes the span id.
func (t *tracer) end(id int64) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.open[id]
	if !ok {
		return
	}
	delete(t.open, id)
	s.End = now
	t.spans = append(t.spans, s)
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent int64, fn func(id int64)) {
	id := t.begin(name, parent)
	defer t.end(id)
	fn(id)
}

// closed returns the finished spans in start order.
func (t *tracer) closed() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// writeSpans writes one span per line as JSON.
func writeSpans(w io.Writer, spans []span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return nil
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by the union of its children (children may overlap,
// as cells do on a parallel sweep, and may outlive the parent; only the
// covered part inside the parent counts). The map is keyed by span ID.
func selfTimes(spans []span) map[int64]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered returns how much of [lo, hi) the union of the spans' intervals
// covers.
func covered(lo, hi time.Duration, spans []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var curA, curB time.Duration
	started := false
	for _, v := range ivs {
		switch {
		case !started:
			curA, curB, started = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if started {
		total += curB - curA
	}
	return total
}

// spanTotals aggregates spans by name: call count, summed duration, and
// summed self time.
type spanTotal struct {
	Name  string
	Calls int
	Total time.Duration
	Self  time.Duration
}

func spanTotals(spans []span) []spanTotal {
	self := selfTimes(spans)
	byName := make(map[string]*spanTotal)
	var order []string
	for _, s := range spans {
		st, ok := byName[s.Name]
		if !ok {
			st = &spanTotal{Name: s.Name}
			byName[s.Name] = st
			order = append(order, s.Name)
		}
		st.Calls++
		st.Total += s.dur()
		st.Self += self[s.ID]
	}
	out := make([]spanTotal, 0, len(order))
	for _, n := range order {
		out = append(out, *byName[n])
	}
	return out
}
