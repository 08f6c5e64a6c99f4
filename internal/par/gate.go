package par

import (
	"context"
	"errors"

	"fpmpart/internal/telemetry"
)

// Gate metrics: current occupancy (running + waiting), how many requests
// were shed at the door, and how many were abandoned while waiting. Free
// while the registry is disabled.
var (
	gateOccupancy = telemetry.Default().Gauge("par_gate_occupancy")
	gateShedTotal = telemetry.Default().Counter("par_gate_shed_total")
	gateAbandoned = telemetry.Default().Counter("par_gate_abandoned_total")
)

// ErrSaturated is returned by Gate.Acquire when both the execution slots and
// the waiting room are full. Callers translate it into backpressure (the
// fpmd service answers 429 + Retry-After).
var ErrSaturated = errors.New("par: gate saturated")

// Gate is a bounded admission controller for request-driven work: at most
// `width` acquisitions execute concurrently and at most `depth` more wait in
// line. Anything beyond that is shed immediately with ErrSaturated instead
// of queueing without bound — the serving-side complement to ForEach's
// bounded fan-out.
type Gate struct {
	// slots bounds concurrent execution; queue bounds admission overall
	// (running + waiting), so its capacity is width+depth.
	slots chan struct{}
	queue chan struct{}
}

// NewGate returns a gate with `width` execution slots (0 selects GOMAXPROCS,
// as in Workers) and room for `depth` waiters (negative is clamped to 0).
func NewGate(width, depth int) *Gate {
	width = Workers(width)
	if depth < 0 {
		depth = 0
	}
	return &Gate{
		slots: make(chan struct{}, width),
		queue: make(chan struct{}, width+depth),
	}
}

// Width returns the number of execution slots.
func (g *Gate) Width() int { return cap(g.slots) }

// Depth returns the waiting-room capacity. Only tests call it, to check the
// configured queue beside Width.
func (g *Gate) Depth() int { return cap(g.queue) - cap(g.slots) }

// Occupancy returns the number of admitted acquisitions (running + waiting).
// Only tests call it, to wait until requests are queued at the gate.
func (g *Gate) Occupancy() int { return len(g.queue) }

// Acquire admits the caller: it returns nil once an execution slot is held,
// ErrSaturated when the waiting room is full, or the context error when ctx
// expires while waiting. Every nil return must be paired with Release.
//
// When ctx carries a request trace (telemetry.ContextWithTrace), the time
// spent waiting for admission is recorded as a "gate.wait" stage, so a
// request that queued behind a saturated solver shows its admission wait in
// the flight recorder rather than folding it into the solve time.
func (g *Gate) Acquire(ctx context.Context) error {
	defer telemetry.Stage(ctx, "gate.wait")()
	select {
	case g.queue <- struct{}{}:
	default:
		gateShedTotal.Inc()
		return ErrSaturated
	}
	gateOccupancy.Set(float64(len(g.queue)))
	select {
	case g.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		<-g.queue
		gateAbandoned.Inc()
		gateOccupancy.Set(float64(len(g.queue)))
		return ctx.Err()
	}
}

// Release returns the slot taken by a successful Acquire.
func (g *Gate) Release() {
	<-g.slots
	<-g.queue
	gateOccupancy.Set(float64(len(g.queue)))
}
