// Package faults provides deterministic, seed-driven fault injection for
// the simulated devices of the iterative data-parallel application. The
// paper's closing argument — static FPM partitioning is preferable on
// *dedicated, stable* platforms — is only testable on the stable half
// without it: nothing in the repo could crash, stall or degrade mid-run. An
// Injector wraps any dynamic.Oracle (the per-device iteration-time oracle)
// and perturbs it according to a Spec:
//
//   - Crash: from iteration k onward every call on the device fails with
//     ErrCrashed — a permanent loss, the "GPU fell off the bus" scenario.
//   - Stall: starting at iteration k the next Len calls on the device fail
//     with ErrStalled, then the device recovers — a transient outage
//     (driver reset, ECC pause, preemption) that capped-backoff retries can
//     ride out. Len counts *calls*, not iterations, precisely so that a
//     retry of the same iteration makes progress toward recovery.
//   - Slowdown: from iteration k onward the device's time is multiplied by
//     Factor — a sustained degradation (thermal throttling, a co-scheduled
//     tenant) that anomaly detection against the FPM prediction can catch.
//
// Unspecified stall lengths and slowdown factors are resolved from the
// injector's seed with a SplitMix64-derived per-fault stream, so a (Spec,
// seed) pair always produces the same fault plan regardless of how the run
// is driven. An empty Spec is free: Wrap returns a thin adapter and no
// fault state is consulted.
package faults

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"

	"fpmpart/internal/dynamic"
)

// Sentinel failures returned by an injected oracle. Callers distinguish the
// permanent ErrCrashed (retries cannot help) from the transient ErrStalled
// (retries consume the stall) with errors.Is.
var (
	ErrCrashed = errors.New("faults: device crashed")
	ErrStalled = errors.New("faults: device stalled")
)

// Kind enumerates the injected fault classes.
type Kind int

// Fault kinds.
const (
	// Crash permanently fails the device from Iter onward.
	Crash Kind = iota
	// Stall transiently fails the device for Len calls starting at Iter.
	Stall
	// Slowdown multiplies the device's time by Factor from Iter onward.
	Slowdown
)

func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Stall:
		return "stall"
	case Slowdown:
		return "slow"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Fault is one scheduled fault on one device.
type Fault struct {
	// Kind is the fault class.
	Kind Kind
	// Device is the index of the affected device (oracle device index).
	Device int
	// Iter is the first affected iteration (0-based).
	Iter int
	// Len is the number of failing calls of a Stall; 0 means "draw from
	// the seed" (uniform in [2, 5]). Ignored for other kinds.
	Len int
	// Factor is the time multiplier of a Slowdown; 0 means "draw from the
	// seed" (uniform in [1.5, 4)). Must be > 1 when given. Ignored for
	// other kinds.
	Factor float64
}

func (f Fault) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:dev=%d,iter=%d", f.Kind, f.Device, f.Iter)
	if f.Kind == Stall && f.Len > 0 {
		fmt.Fprintf(&b, ",len=%d", f.Len)
	}
	if f.Kind != Crash && f.Factor > 0 {
		fmt.Fprintf(&b, ",factor=%v", f.Factor)
	}
	return b.String()
}

// Spec is a fault plan: a set of faults to inject into one run.
type Spec struct {
	Faults []Fault
}

// Empty reports whether the spec injects nothing.
func (s Spec) Empty() bool { return len(s.Faults) == 0 }

// String renders the spec in the ParseSpec syntax.
func (s Spec) String() string {
	parts := make([]string, len(s.Faults))
	for i, f := range s.Faults {
		parts[i] = f.String()
	}
	return strings.Join(parts, ";")
}

// Validate reports the first structural error of the spec.
func (s Spec) Validate() error {
	for i, f := range s.Faults {
		if f.Kind < Crash || f.Kind > Slowdown {
			return fmt.Errorf("faults: fault %d: unknown kind %d", i, int(f.Kind))
		}
		if f.Device < 0 {
			return fmt.Errorf("faults: fault %d: negative device %d", i, f.Device)
		}
		if f.Iter < 0 {
			return fmt.Errorf("faults: fault %d: negative iteration %d", i, f.Iter)
		}
		if f.Len < 0 {
			return fmt.Errorf("faults: fault %d: negative stall length %d", i, f.Len)
		}
		if f.Factor != 0 && (f.Factor <= 1 || math.IsNaN(f.Factor) || math.IsInf(f.Factor, 0)) {
			return fmt.Errorf("faults: fault %d: factor %v must be > 1", i, f.Factor)
		}
	}
	return nil
}

// ParseSpec parses the compact -fault-spec syntax: semicolon-separated
// faults, each "kind:key=value,key=value". Kinds are crash, stall and slow;
// keys are dev, iter, len (stall only) and factor (stall/slow). Example:
//
//	crash:dev=0,iter=30;stall:dev=1,iter=5,len=3;slow:dev=2,iter=20,factor=2.5
//
// An empty string parses to the empty (free) spec.
func ParseSpec(s string) (Spec, error) {
	var spec Spec
	s = strings.TrimSpace(s)
	if s == "" {
		return spec, nil
	}
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kindStr, args, ok := strings.Cut(part, ":")
		if !ok {
			return Spec{}, fmt.Errorf("faults: %q: want kind:key=value,...", part)
		}
		var f Fault
		switch strings.TrimSpace(kindStr) {
		case "crash":
			f.Kind = Crash
		case "stall":
			f.Kind = Stall
		case "slow", "slowdown":
			f.Kind = Slowdown
		default:
			return Spec{}, fmt.Errorf("faults: unknown fault kind %q (want crash, stall or slow)", kindStr)
		}
		f.Iter = -1
		f.Device = -1
		for _, kv := range strings.Split(args, ",") {
			kv = strings.TrimSpace(kv)
			if kv == "" {
				continue
			}
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return Spec{}, fmt.Errorf("faults: %q: want key=value", kv)
			}
			key, val = strings.TrimSpace(key), strings.TrimSpace(val)
			switch key {
			case "dev", "device":
				n, err := strconv.Atoi(val)
				if err != nil {
					return Spec{}, fmt.Errorf("faults: %s=%q: %v", key, val, err)
				}
				f.Device = n
			case "iter":
				n, err := strconv.Atoi(val)
				if err != nil {
					return Spec{}, fmt.Errorf("faults: iter=%q: %v", val, err)
				}
				f.Iter = n
			case "len":
				if f.Kind != Stall {
					return Spec{}, fmt.Errorf("faults: len only applies to stall faults")
				}
				n, err := strconv.Atoi(val)
				if err != nil {
					return Spec{}, fmt.Errorf("faults: len=%q: %v", val, err)
				}
				f.Len = n
			case "factor":
				if f.Kind == Crash {
					return Spec{}, fmt.Errorf("faults: factor does not apply to crash faults")
				}
				x, err := strconv.ParseFloat(val, 64)
				if err != nil {
					return Spec{}, fmt.Errorf("faults: factor=%q: %v", val, err)
				}
				f.Factor = x
			default:
				return Spec{}, fmt.Errorf("faults: unknown key %q (want dev, iter, len or factor)", key)
			}
		}
		if f.Device < 0 {
			return Spec{}, fmt.Errorf("faults: %q: missing dev=", part)
		}
		if f.Iter < 0 {
			return Spec{}, fmt.Errorf("faults: %q: missing iter=", part)
		}
		spec.Faults = append(spec.Faults, f)
	}
	if err := spec.Validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

// Oracle is an iteration-aware device oracle that can fail: the time of one
// application iteration on a device carrying units, or an error when the
// device is (transiently or permanently) unavailable. It is the device
// abstraction the resilient runtime executes against.
type Oracle func(device, units, iter int) (float64, error)

// Injector resolves a Spec against a seed and applies it to an oracle.
// Stall faults consume per-call state, so an Injector tracks progress
// through one run; use NewInjector (or Reset) per run. Methods are
// safe for concurrent use.
type Injector struct {
	mu    sync.Mutex
	plan  []Fault // resolved: no zero Len/Factor remains
	spent []int   // calls consumed per stall fault
}

// NewInjector validates the spec and resolves its unspecified stall lengths
// and slowdown factors from the seed: fault i draws from a SplitMix64
// stream keyed by (seed, i), so the plan depends only on (spec, seed) — not
// on the order the run queries devices.
func NewInjector(spec Spec, seed int64) (*Injector, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	in := &Injector{
		plan:  make([]Fault, len(spec.Faults)),
		spent: make([]int, len(spec.Faults)),
	}
	for i, f := range spec.Faults {
		rng := rand.New(rand.NewSource(mixSeed(seed, i)))
		if f.Kind == Stall && f.Len == 0 {
			f.Len = 2 + rng.Intn(4) // [2, 5]
		}
		if f.Factor == 0 {
			switch f.Kind {
			case Slowdown:
				f.Factor = 1.5 + 2.5*rng.Float64() // [1.5, 4)
			case Stall:
				f.Factor = 1 // unused; stalls fail instead of slowing
			}
		}
		in.plan[i] = f
	}
	return in, nil
}

// mixSeed spreads (seed, i) into an uncorrelated child seed with the
// SplitMix64 finalizer (same construction as stats.Noise.ForPoint).
func mixSeed(seed int64, i int) int64 {
	z := uint64(seed) ^ (uint64(i) * 0x9e3779b97f4a7c15)
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Plan returns the resolved faults (seed-drawn lengths and factors filled
// in), sorted by first affected iteration.
func (in *Injector) Plan() []Fault {
	out := append([]Fault(nil), in.plan...)
	sort.SliceStable(out, func(a, b int) bool { return out[a].Iter < out[b].Iter })
	return out
}

// Reset rewinds the per-run stall state so the injector can drive another
// identical run.
func (in *Injector) Reset() {
	in.mu.Lock()
	defer in.mu.Unlock()
	for i := range in.spent {
		in.spent[i] = 0
	}
}

// Empty reports whether the injector has no faults to apply.
func (in *Injector) Empty() bool { return in == nil || len(in.plan) == 0 }

// Wrap layers the injector's faults over base. A nil or empty injector
// returns a thin adapter that calls base directly — fault injection is free
// when unconfigured.
func (in *Injector) Wrap(base dynamic.Oracle) Oracle {
	if in.Empty() {
		return func(device, units, iter int) (float64, error) {
			return base(device, units), nil
		}
	}
	return func(device, units, iter int) (float64, error) {
		factor, err := in.apply(device, iter)
		if err != nil {
			return 0, err
		}
		return base(device, units) * factor, nil
	}
}

// apply consults the plan for one call on (device, iter): it returns the
// slowdown factor to apply (1 when unaffected), or the failure.
func (in *Injector) apply(device, iter int) (float64, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	factor := 1.0
	for i, f := range in.plan {
		if f.Device != device || iter < f.Iter {
			continue
		}
		switch f.Kind {
		case Crash:
			return 0, fmt.Errorf("device %d at iteration %d: %w", device, iter, ErrCrashed)
		case Stall:
			if in.spent[i] < f.Len {
				in.spent[i]++
				return 0, fmt.Errorf("device %d at iteration %d (call %d/%d): %w",
					device, iter, in.spent[i], f.Len, ErrStalled)
			}
		case Slowdown:
			factor *= f.Factor
		}
	}
	return factor, nil
}
