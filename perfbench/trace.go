package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request share
// Req; Parent is the ID of the enclosing span, or -1 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out. A nil
// *tracer records nothing, so untraced runs pass nil and pay one branch
// per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID for end and for children.
func (t *tracer) begin(name, req string, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: now, End: -1})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose bounds were measured elsewhere (the trainer's
// own stage spans, for example).
func (t *tracer) add(name, req string, parent int, start time.Time, dur time.Duration) int {
	if t == nil {
		return -1
	}
	s := int64(start.Sub(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: s, End: s + int64(dur)})
	return id
}

// durations lists the lengths of every closed span with this name, in
// recording order.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// total sums the lengths of the spans with this name.
func (t *tracer) total(name string) time.Duration {
	var sum time.Duration
	for _, d := range t.durations(name) {
		sum += d
	}
	return sum
}

// medianUs is the median span length with this name, in microseconds.
func (t *tracer) medianUs(name string) float64 {
	ds := t.durations(name)
	us := make([]float64, len(ds))
	for i, d := range ds {
		us[i] = float64(d) / 1e3
	}
	return median(us)
}

// write stores every span as one JSON document.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	raw, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
