package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one harness-side interval around a call into a layer. Spans of a
// run share the workload name as their identifier; parent is the id of the
// span that was open when this one began (-1 at the root).
type span struct {
	ID     int
	Parent int
	Name   string
	Start  time.Duration // since the tracer's epoch
	End    time.Duration
}

// tracer keeps a run's spans in memory until the run ends. The harness is
// single-threaded, so the open spans form a stack and a new span's parent is
// the top of it. A nil tracer is tracing off: do just calls f.
type tracer struct {
	workload string
	epoch    time.Time
	spans    []span
	open     []int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// do runs f inside a span called name.
func (t *tracer) do(name string, f func()) {
	if t == nil {
		f()
		return
	}
	id := len(t.spans)
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: time.Since(t.epoch)})
	t.open = append(t.open, id)
	f()
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = time.Since(t.epoch)
}

// selfTimes returns each span's duration minus the part its children cover.
// Children of one parent never overlap (one thread), so that part is the sum
// of their durations.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, sp := range spans {
		self[i] += sp.End - sp.Start
		if sp.Parent >= 0 {
			self[sp.Parent] -= sp.End - sp.Start
		}
	}
	return self
}

// writeFile writes the spans as Chrome trace_event JSON (load it in
// about:tracing or Perfetto).
func (t *tracer) writeFile(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Args map[string]any `json:"args"`
	}
	usec := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	self := selfTimes(t.spans)
	events := make([]event, len(t.spans))
	for i, sp := range t.spans {
		events[i] = event{
			Name: sp.Name, Ph: "X", Ts: usec(sp.Start), Dur: usec(sp.End - sp.Start),
			Args: map[string]any{"id": sp.ID, "parent": sp.Parent, "workload": t.workload, "self_us": usec(self[i])},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
