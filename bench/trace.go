package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the ID of the span that caused this one (-1 for a root).
// Start and End are nanoseconds since the tracer was created.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine only — the traced replay is single-threaded by design.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, req, parent int) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Req: req, Parent: parent, Start: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int) { t.spans[id].End = int64(time.Since(t.t0)) }

// timed records fn as a child span of parent.
func (t *tracer) timed(name string, req, parent int, fn func()) {
	id := t.begin(name, req, parent)
	fn()
	t.end(id)
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover. Overlapping children are merged
// first, so concurrent children are not subtracted twice, and a child is
// clipped to its parent's interval.
func selfTimes(spans []span) []int64 {
	type iv struct{ s, e int64 }
	kids := make(map[int][]iv)
	for _, sp := range spans {
		if sp.Parent >= 0 {
			kids[sp.Parent] = append(kids[sp.Parent], iv{sp.Start, sp.End})
		}
	}
	self := make([]int64, len(spans))
	for i, sp := range spans {
		self[i] = sp.End - sp.Start
		ks := kids[sp.ID]
		sort.Slice(ks, func(a, b int) bool { return ks[a].s < ks[b].s })
		cursor := sp.Start
		for _, k := range ks {
			s, e := max(k.s, cursor), min(k.e, sp.End)
			if e > s {
				self[i] -= e - s
				cursor = e
			}
		}
	}
	return self
}

// spanStats groups span durations (µs) and self times (µs) by name.
type spanStats struct {
	total map[string][]float64
	self  map[string][]float64
}

func (t *tracer) stats() spanStats {
	st := spanStats{total: map[string][]float64{}, self: map[string][]float64{}}
	self := selfTimes(t.spans)
	for i, sp := range t.spans {
		st.total[sp.Name] = append(st.total[sp.Name], float64(sp.End-sp.Start)/1e3)
		st.self[sp.Name] = append(st.self[sp.Name], float64(self[i])/1e3)
	}
	return st
}

// write dumps the spans as JSON under dir.
func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".trace.json"), data, 0o644)
}
