package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// spanRec is one finished span: a timed call into a layer, recorded from
// the benchmark's own code around that layer's public functions.
type spanRec struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Trace is the request's traceparent trace ID; the client, admission
	// and handler spans of one HTTP request share it.
	Trace string `json:"trace,omitempty"`
	Start int64  `json:"start_ns"` // since the tracer's origin
	End   int64  `json:"end_ns"`
}

func (r spanRec) dur() time.Duration { return time.Duration(r.End - r.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op and span handles are nil.
type tracer struct {
	origin time.Time
	next   atomic.Uint64

	mu    sync.Mutex
	spans []spanRec
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// span is an open span; end records it. A nil *span ends as a no-op.
type span struct {
	t   *tracer
	rec spanRec
}

// start opens a span under parent (0 for a root).
func (t *tracer) start(name string, parent uint64) *span {
	return t.startIn(name, parent, "")
}

// startIn opens a span belonging to the request trace traceID.
func (t *tracer) startIn(name string, parent uint64, traceID string) *span {
	if t == nil {
		return nil
	}
	return &span{t: t, rec: spanRec{
		ID: t.next.Add(1), Parent: parent, Name: name, Trace: traceID,
		Start: int64(time.Since(t.origin)),
	}}
}

// id is the span's ID, 0 for a nil span (so children become roots).
func (s *span) id() uint64 {
	if s == nil {
		return 0
	}
	return s.rec.ID
}

func (s *span) end() {
	if s == nil {
		return
	}
	s.rec.End = int64(time.Since(s.t.origin))
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, s.rec)
	s.t.mu.Unlock()
}

// timed runs fn inside a span named name and returns its result.
func timed[T any](t *tracer, name string, parent uint64, fn func() T) T {
	sp := t.start(name, parent)
	v := fn()
	sp.end()
	return v
}

// finished returns a copy of every recorded span.
func (t *tracer) finished() []spanRec {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// durations returns the durations of every span named name, in seconds.
func durations(spans []spanRec, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur().Seconds())
		}
	}
	return out
}

// selfTimes sums, per span name, each span's self time: its duration minus
// the part of its interval that its child spans cover. Children may
// overlap one another (parallel work), so their intervals are merged
// before subtracting, and clipped to the parent's interval.
func selfTimes(spans []spanRec) map[string]time.Duration {
	children := map[uint64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.dur() - time.Duration(covered(s.Start, s.End, children[s.ID]))
	}
	return out
}

// covered is the length of [lo, hi) covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	slices.SortFunc(clipped, func(x, y [2]int64) int { return int(x[0] - y[0]) })
	var total, end int64
	end = lo
	for _, iv := range clipped {
		a := max(iv[0], end)
		if iv[1] > a {
			total += iv[1] - a
			end = iv[1]
		}
	}
	return total
}

// writeSpans writes spans as JSON lines to path.
func writeSpans(path string, spans []spanRec) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
