package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer's public function, recorded by the
// benchmark around the call. Spans of one operation share Req; Parent is
// the ID of the span that made the call (0 for a root).
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced pass calls the same code at the cost of a nil
// check.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	reqs  atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open is a span in flight.
type open struct {
	t      *tracer
	name   string
	id     uint64
	parent uint64
	req    uint64
	start  int64
}

// request allocates a request ID shared by every span of one operation.
func (t *tracer) request() uint64 {
	if t == nil {
		return 0
	}
	return t.reqs.Add(1)
}

// begin opens a root span of request req.
func (t *tracer) begin(name string, req uint64) open {
	if t == nil {
		return open{}
	}
	return open{t: t, name: name, id: t.ids.Add(1), req: req, start: int64(time.Since(t.epoch))}
}

// child opens a span caused by o.
func (o open) child(name string) open {
	if o.t == nil {
		return open{}
	}
	c := o.t.begin(name, o.req)
	c.parent = o.id
	return c
}

// end closes the span and keeps it.
func (o open) end() {
	if o.t == nil {
		return
	}
	s := span{Name: o.name, ID: o.id, Parent: o.parent, Req: o.req, Start: o.start, End: int64(time.Since(o.t.epoch))}
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, s)
	o.t.mu.Unlock()
}

// durations returns the durations of every span named name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// dump writes every span as one JSON line to dir/<name>.
func (t *tracer) dump(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dump: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return fmt.Errorf("trace dump: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			_ = f.Close()
			return fmt.Errorf("trace dump: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("trace dump: %w", err)
	}
	return f.Close()
}
