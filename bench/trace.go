package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed interval of a traced run. Spans are recorded by the
// benchmark around its calls into each layer's public functions, kept in
// memory, and written out when the run ends.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Attrs  attrs  `json:"attrs"`
}

// attrs are a span's labels. Fixed fields rather than a map keep a
// per-injection span to one slice append.
type attrs struct {
	Bench   string `json:"bench,omitempty"`
	Config  string `json:"config,omitempty"`
	Target  string `json:"target,omitempty"` // structure, FPM or "soft"
	Live    bool   `json:"live,omitempty"`
	Early   bool   `json:"early_stop,omitempty"`
	Outcome string `json:"outcome,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records spans on the client goroutine. A nil *tracer records
// nothing, so untraced code paths pass nil.
type tracer struct {
	origin time.Time
	run    string
	spans  []span
}

func newTracer(run string) *tracer { return &tracer{origin: time.Now(), run: run} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a span under parent (0 for none) and returns its id.
func (t *tracer) begin(parent int, name string, a attrs) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: t.run, Name: name, Start: t.now(), Attrs: a})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = t.now()
}

// add records an already measured span.
func (t *tracer) add(parent int, name string, start, end int64, a attrs) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: t.run, Name: name, Start: start, End: end, Attrs: a})
}

// timed runs fn inside a span and returns fn's error.
func (t *tracer) timed(parent int, name string, a attrs, fn func() error) error {
	id := t.begin(parent, name, a)
	err := fn()
	t.end(id)
	return err
}

// selfTimes returns each span's duration minus the time its child spans
// cover. Children of one parent never overlap: every span is recorded
// on the one client goroutine.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.Parent > 0 {
			self[s.Parent-1] -= s.dur()
		}
	}
	return self
}

// writeSpans dumps the spans as one JSON array.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
