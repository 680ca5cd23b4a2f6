package main

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// spanRec records wall-clock spans from the harness into an obs.Trace,
// one track per client or worker. A Trace is not safe for concurrent
// use, so every access holds mu. A nil *spanRec records nothing: the
// untraced run pays two clock reads per span and no more.
type spanRec struct {
	mu sync.Mutex
	tr *obs.Trace
	t0 time.Time
}

func newSpanRec() *spanRec { return &spanRec{tr: obs.NewTrace(), t0: time.Now()} }

// span is an open interval; end closes it and returns its length.
type span struct {
	rec   *spanRec
	id    obs.SpanID
	start time.Time
}

// begin opens a span on the track; spans of one track nest, so a span
// opened inside another becomes its child.
func (r *spanRec) begin(track int, name string) span {
	now := time.Now()
	if r == nil {
		return span{start: now}
	}
	r.mu.Lock()
	id := r.tr.Begin(obs.CatTask, name, track, now.Sub(r.t0))
	r.mu.Unlock()
	return span{rec: r, id: id, start: now}
}

func (s span) end() time.Duration {
	now := time.Now()
	if s.rec != nil {
		s.rec.mu.Lock()
		s.rec.tr.End(s.id, now.Sub(s.rec.t0))
		s.rec.mu.Unlock()
	}
	return now.Sub(s.start)
}
