// Package sim models the hybrid platform's sequential hardware resources
// (PCIe DMA engines, GPU compute engines, communication links) as timelines
// on which timed tasks are scheduled, and records the resulting schedules —
// which engine ran what, when — for the Chrome-trace export. For the
// structured pipelines of the GPU kernels (copy/compute overlap) computing
// each task's start and finish directly on per-resource timelines is exact
// and needs no event queue. The paper's Figure 4(b) is such a timeline.
package sim

import (
	"fmt"
	"math"
	"strings"

	"fpmpart/internal/telemetry"
)

// Span is one scheduled task occurrence.
type Span struct {
	// Lane is the resource/engine/process the task ran on ("h2d", "compute").
	Lane string
	// Label identifies the task ("C-tile 3").
	Label string
	// Start and End are times in seconds.
	Start, End float64
}

// Timeline accumulates spans.
type Timeline struct {
	spans []Span
}

// Add records a span; zero-duration spans are kept (they mark events).
func (t *Timeline) Add(lane, label string, start, end float64) error {
	if end < start || math.IsNaN(start) || math.IsNaN(end) {
		return fmt.Errorf("sim: invalid span [%v, %v]", start, end)
	}
	t.spans = append(t.spans, Span{Lane: lane, Label: label, Start: start, End: end})
	return nil
}

// Spans returns a copy of the recorded spans in insertion order.
func (t *Timeline) Spans() []Span {
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Makespan returns the latest span end (0 when empty).
func (t *Timeline) Makespan() float64 {
	var m float64
	for _, s := range t.spans {
		if s.End > m {
			m = s.End
		}
	}
	return m
}

// AddTo adds every span of t to ct under one process; lanes become threads.
// This is how the engine schedules recorded by internal/gpukernel (the
// paper's Figure 4(b)) reach Perfetto.
func (t *Timeline) AddTo(ct *telemetry.ChromeTrace, process string) {
	for _, s := range t.spans {
		ct.Span(process, s.Lane, s.Label, s.Start, s.End)
	}
}

// AddByLane adds t to ct with lane names that encode the process: a lane
// "socket0/core3" becomes thread "core3" of process "socket0"; a lane
// without a separator becomes thread "main" of a process named after it.
func (t *Timeline) AddByLane(ct *telemetry.ChromeTrace) {
	for _, s := range t.spans {
		proc, thread, ok := strings.Cut(s.Lane, "/")
		if !ok {
			proc, thread = s.Lane, "main"
		}
		ct.Span(proc, thread, s.Label, s.Start, s.End)
	}
}

// Resource is a sequential device timeline: work items execute one at a
// time in submission order. It answers "if a task becomes ready at time t
// and needs d seconds of this resource, when does it start and finish?".
type Resource struct {
	lane   string
	freeAt float64
	// tl, when non-nil, receives every scheduled task of non-zero duration
	// as a span on lane.
	tl *Timeline
}

// NewResource returns an idle resource whose scheduled tasks are recorded
// on lane of tl; a nil tl records nothing.
func NewResource(lane string, tl *Timeline) *Resource { return &Resource{lane: lane, tl: tl} }

// FreeAt reports when the resource next becomes idle.
func (r *Resource) FreeAt() float64 { return r.freeAt }

// Exec schedules a task that is ready at time ready and occupies the
// resource for dur seconds; it returns the task's start and finish times.
// dur must be non-negative.
func (r *Resource) Exec(ready, dur float64) (start, finish float64) {
	return r.ExecLabeled("", ready, dur)
}

// ExecLabeled is Exec with a task label for the recorded span.
func (r *Resource) ExecLabeled(label string, ready, dur float64) (start, finish float64) {
	if dur < 0 || math.IsNaN(dur) {
		panic(fmt.Sprintf("sim: invalid duration %v on %s", dur, r.lane))
	}
	start = math.Max(ready, r.freeAt)
	finish = start + dur
	r.freeAt = finish
	if r.tl != nil && finish > start {
		r.tl.spans = append(r.tl.spans, Span{Lane: r.lane, Label: label, Start: start, End: finish})
	}
	return start, finish
}
