// Package sim models the hybrid platform's sequential hardware resources
// (PCIe DMA engines, GPU compute engines) as timelines on which timed tasks
// are scheduled. For the structured pipelines of the GPU kernels
// (copy/compute overlap) computing each task's start and finish directly on
// per-resource timelines is exact and needs no event queue.
package sim

import (
	"fmt"
	"math"
)

// Resource is a sequential device timeline: work items execute one at a
// time in submission order. It answers "if a task becomes ready at time t
// and needs d seconds of this resource, when does it start and finish?".
type Resource struct {
	name   string
	freeAt float64
	busy   float64 // accumulated busy seconds, for utilisation accounting
	// observe, when set, is called with every scheduled task — the hook the
	// engine-span telemetry (trace.Timeline, Chrome export) attaches to.
	observe func(label string, start, end float64)
}

// Observe installs (or, with nil, removes) a task observer: every Exec and
// ExecLabeled call reports its scheduled (label, start, end) to fn. The
// GPU kernel schedules use this to feed engine spans to trace.Timeline and
// from there to the Chrome trace export.
func (r *Resource) Observe(fn func(label string, start, end float64)) { r.observe = fn }

// NewResource returns an idle resource.
func NewResource(name string) *Resource { return &Resource{name: name} }

// Name returns the resource identifier.
func (r *Resource) Name() string { return r.name }

// FreeAt reports when the resource next becomes idle.
func (r *Resource) FreeAt() float64 { return r.freeAt }

// BusyTime reports total busy seconds scheduled so far.
func (r *Resource) BusyTime() float64 { return r.busy }

// Exec schedules a task that is ready at time ready and occupies the
// resource for dur seconds; it returns the task's start and finish times.
// dur must be non-negative.
func (r *Resource) Exec(ready, dur float64) (start, finish float64) {
	return r.ExecLabeled("", ready, dur)
}

// ExecLabeled is Exec with a task label reported to the observer, if any.
func (r *Resource) ExecLabeled(label string, ready, dur float64) (start, finish float64) {
	if dur < 0 || math.IsNaN(dur) {
		panic(fmt.Sprintf("sim: invalid duration %v on %s", dur, r.name))
	}
	start = math.Max(ready, r.freeAt)
	finish = start + dur
	r.freeAt = finish
	r.busy += dur
	if r.observe != nil {
		r.observe(label, start, finish)
	}
	return start, finish
}

// Reset makes the resource idle at time 0 again.
func (r *Resource) Reset() { r.freeAt = 0; r.busy = 0 }
