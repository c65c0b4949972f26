package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// op share Op; Parent is the ID of the span that caused this one (-1 for
// an op's root).
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans into a fixed in-memory buffer; spans past its
// capacity are counted and dropped. A nil *tracer records nothing, which
// is how untraced runs call the same code.
type tracer struct {
	t0      time.Time
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, capacity)}
}

func (t *tracer) slot() int32 {
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return -1
	}
	return int32(i)
}

// begin opens a span now and returns its ID for end and for children.
func (t *tracer) begin(name string, op int64, parent int32) int32 {
	if t == nil {
		return -1
	}
	id := t.slot()
	if id >= 0 {
		t.spans[id] = span{Name: name, Op: op, ID: id, Parent: parent, Start: int64(time.Since(t.t0))}
	}
	return id
}

func (t *tracer) end(id int32) {
	if t != nil && id >= 0 {
		t.spans[id].End = int64(time.Since(t.t0))
	}
}

// add records a span whose start and end the caller measured.
func (t *tracer) add(name string, op int64, parent int32, start, end time.Time) {
	if t == nil {
		return
	}
	if id := t.slot(); id >= 0 {
		t.spans[id] = span{Name: name, Op: op, ID: id, Parent: parent,
			Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	}
}

// recorded returns the spans written so far. Call it only once every
// goroutine that records has finished.
func (t *tracer) recorded() []span {
	return t.spans[:min(t.next.Load(), int64(len(t.spans)))]
}

// durations returns the sorted durations, in ms, of the finished spans
// named name.
func (t *tracer) durations(name string) []float64 {
	var d []float64
	for _, s := range t.recorded() {
		if s.Name == name && s.End >= s.Start && s.End > 0 {
			d = append(d, float64(s.End-s.Start)/1e6)
		}
	}
	sort.Float64s(d)
	return d
}

// write stores the spans as JSON lines in path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.recorded() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
