package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the layer's public function.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Req    int64  `json:"req"`   // spans of one request share it
	Start  int64  `json:"start"` // ns since the tracer started
	End    int64  `json:"end"`
	Count  int    `json:"count"` // records the call covered
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per span.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent int, req int64, start, end time.Time, count int) int {
	if t == nil {
		return 0
	}
	id := t.start(name, parent, req, start)
	t.finish(id, end, count)
	return id
}

// start opens a span at the given time and returns its id, so that
// child spans can name it as their parent before it ends.
func (t *tracer) start(name string, parent int, req int64, at time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: at.Sub(t.t0).Nanoseconds()})
	return id
}

// finish closes span id at the given time, covering count records.
func (t *tracer) finish(id int, at time.Time, count int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = at.Sub(t.t0).Nanoseconds()
	t.spans[id-1].Count = count
}

// do runs fn under a span and returns fn's error.
func (t *tracer) do(name string, parent int, req int64, count int, fn func() error) error {
	start := time.Now()
	err := fn()
	t.add(name, parent, req, start, time.Now(), count)
	return err
}

// total is the summed duration and record count of a set of spans.
type total struct {
	ns    int64
	count int
}

// layerTotals sums the spans of each name whose parent is one of roots.
func (t *tracer) layerTotals(roots map[int]bool) map[string]total {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]total{}
	for _, s := range t.spans {
		if roots[s.Parent] {
			v := out[s.Name]
			v.ns += s.End - s.Start
			v.count += s.Count
			out[s.Name] = v
		}
	}
	return out
}

// write stores every span as one JSON line at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err = enc.Encode(&t.spans[i]); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
