package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Spans of one request
// share Req; a span's Parent is the span whose work caused it.
type span struct {
	ID     int64          `json:"id"`
	Parent int64          `json:"parent,omitempty"`
	Req    string         `json:"req,omitempty"`
	Name   string         `json:"name"`
	Start  int64          `json:"start_ns"` // since the tracer's epoch
	End    int64          `json:"end_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

func (s *span) set(key string, v any) {
	if s == nil {
		return
	}
	if s.Attrs == nil {
		s.Attrs = make(map[string]any)
	}
	s.Attrs[key] = v
}

// tracer keeps spans in memory until the run writes them out. A nil
// tracer records nothing, which is how untraced runs call the same code.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent (0 for a root).
func (t *tracer) begin(parent int64, name string) *span {
	if t == nil {
		return nil
	}
	return &span{ID: t.ids.Add(1), Parent: parent, Name: name, Start: time.Since(t.epoch).Nanoseconds()}
}

// end closes s and files it.
func (t *tracer) end(s *span) {
	if t == nil || s == nil {
		return
	}
	s.End = time.Since(t.epoch).Nanoseconds()
	t.add(*s)
}

// add files a span timed elsewhere.
func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (s *span) id() int64 {
	if s == nil {
		return 0
	}
	return s.ID
}

// selfTime sums, per span name, the spans' count, total duration and self
// time: a span's duration minus the part of it its children cover.
type selfTime struct {
	Name    string `json:"name"`
	Count   int    `json:"count"`
	TotalNS int64  `json:"total_ns"`
	SelfNS  int64  `json:"self_ns"`
}

func selfTimes(spans []span) []selfTime {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	by := make(map[string]*selfTime)
	for _, s := range spans {
		st := by[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name}
			by[s.Name] = st
		}
		st.Count++
		st.TotalNS += s.End - s.Start
		st.SelfNS += s.End - s.Start - covered(s, children[s.ID])
	}
	out := make([]selfTime, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfNS > out[j].SelfNS })
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum, reach int64 = 0, parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, reach), min(k.End, parent.End)
		if hi > lo {
			sum += hi - lo
			reach = hi
		}
	}
	return sum
}

// write saves every span and the per-name self times to path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Spans []span     `json:"spans"`
		Self  []selfTime `json:"self"`
	}{t.spans, selfTimes(t.spans)})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
