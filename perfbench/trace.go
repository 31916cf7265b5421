package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer of the
// program: name, start and end in nanoseconds since the trace began,
// and the span that caused it (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// open is a span that has started and not yet ended.
type open struct {
	t      *tracer
	id     int64
	parent int64
	name   string
	start  time.Time
}

// start opens a span named name under parent (0 for a root).
func (t *tracer) start(name string, parent int64) open {
	if t == nil {
		return open{}
	}
	return open{t: t, id: t.next.Add(1), parent: parent, name: name, start: time.Now()}
}

// end closes the span; it is a no-op on an untraced run.
func (o open) end() {
	if o.t == nil {
		return
	}
	end := time.Now()
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, span{
		ID: o.id, Parent: o.parent, Name: o.name,
		Start: o.start.Sub(o.t.t0).Nanoseconds(), End: end.Sub(o.t.t0).Nanoseconds(),
	})
	o.t.mu.Unlock()
}

// write stores the spans as JSON lines and returns how many there were.
func (t *tracer) write(path string) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return 0, err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	return len(t.spans), f.Close()
}

// spanCostNs measures what recording one span costs, so the traced
// run's overhead can be put against its span count.
func spanCostNs() float64 {
	t := newTracer()
	const n = 100000
	start := time.Now()
	for i := 0; i < n; i++ {
		t.start("probe", 0).end()
	}
	return float64(time.Since(start).Nanoseconds()) / n
}
