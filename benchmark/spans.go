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

// Span is one timed interval recorded by the benchmark around a call into
// a layer. Parent is the span that caused it (0 = root); spans of one
// client call share Op, the call's index in the op stream. Count is how
// many layer operations the interval covers: the ladder times cheap calls
// in blocks, because a clock read costs as much as a 256-byte checksum.
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int    `json:"count"`
}

// Recorder keeps spans in memory until the run ends. Each goroutine
// records into its own Recorder (Fork), so appends take no lock; IDs come
// from one shared counter and stay unique across forks. A nil Recorder
// records nothing, which is how the timed run turns tracing off.
type Recorder struct {
	epoch time.Time
	next  *atomic.Uint64
	spans []Span
}

// NewRecorder returns a recorder with room for capacity spans.
func NewRecorder(capacity int) *Recorder {
	return &Recorder{epoch: time.Now(), next: new(atomic.Uint64), spans: make([]Span, 0, capacity)}
}

// Fork returns a recorder for another goroutine, on the same clock and ID
// sequence. Merge its spans back once that goroutine has finished.
func (r *Recorder) Fork(capacity int) *Recorder {
	if r == nil {
		return nil
	}
	return &Recorder{epoch: r.epoch, next: r.next, spans: make([]Span, 0, capacity)}
}

// Merge appends a finished fork's spans.
func (r *Recorder) Merge(f *Recorder) {
	if r != nil && f != nil {
		r.spans = append(r.spans, f.spans...)
	}
}

// Add records a closed interval and returns its ID.
func (r *Recorder) Add(name string, parent uint64, op int64, start, end time.Time, count int) uint64 {
	if r == nil {
		return 0
	}
	id := r.next.Add(1)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, Op: op,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch)), Count: count})
	return id
}

// Open starts a span whose children are recorded before it closes.
func (r *Recorder) Open(name string, parent uint64, op int64) uint64 {
	if r == nil {
		return 0
	}
	now := time.Now()
	return r.Add(name, parent, op, now, now, 0)
}

// Close ends a span started with Open on this recorder.
func (r *Recorder) Close(id uint64, count int) {
	if r == nil {
		return
	}
	end := int64(time.Since(r.epoch))
	for i := len(r.spans) - 1; i >= 0; i-- {
		if r.spans[i].ID == id {
			r.spans[i].End, r.spans[i].Count = end, count
			return
		}
	}
}

// Spans returns everything recorded so far.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.spans
}

// SelfTimes returns, for every span, its duration minus the part of that
// interval its direct children cover. Overlapping children (two clients
// under one phase span) are counted once.
func SelfTimes(spans []Span) map[uint64]int64 {
	children := make(map[uint64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// spanTotals sums duration and count over the spans with the given name.
func spanTotals(spans []Span, name string) (ns int64, count int) {
	for _, s := range spans {
		if s.Name == name {
			ns += s.End - s.Start
			count += s.Count
		}
	}
	return ns, count
}

// nsPerOp is the mean time per covered operation of the named spans.
func nsPerOp(spans []Span, name string) float64 {
	ns, n := spanTotals(spans, name)
	if n == 0 {
		return 0
	}
	return float64(ns) / float64(n)
}

// writeSpans writes one JSON object per line to path.
func writeSpans(path string, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
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
