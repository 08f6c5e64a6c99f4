// Package fpm implements functional performance models (FPMs) of processors
// and devices, following Lastovetsky & Reddy (IJHPCA 2007) and the CLUSTER
// 2012 hybrid-platform extension.
//
// A functional performance model represents the absolute speed of a
// processing element as a function of problem size: s(x) is the number of
// computation units the element performs per second when executing a problem
// of size x. The speed is application-specific: a "computation unit" is a
// fixed quantum of the application's work (for the blocked matrix
// multiplication of the paper, the update of one b×b block of matrix C).
//
// The package also provides the constant performance model (CPM) used as a
// baseline by the paper, and helpers to invert the execution-time function
// t(x) = x / s(x), which is what the FPM-based data partitioning algorithm
// consumes.
package fpm

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// SpeedFunction is the abstract functional performance model: processor
// speed as a function of problem size, in computation units per second.
//
// Implementations must return a strictly positive, finite speed for any x in
// their domain. Behaviour outside the domain is implementation-defined but
// must be total (no panics): models are clamped or extrapolated as
// documented by the implementation.
type SpeedFunction interface {
	// Speed returns the speed, in units/second, at problem size x (units).
	Speed(x float64) float64
	// Domain returns the range of problem sizes over which the model was
	// built. max may be +Inf for models valid at any size.
	Domain() (min, max float64)
}

// Time returns the modelled execution time for problem size x under model s:
// t(x) = x / s(x). Time(0) is defined as 0.
func Time(s SpeedFunction, x float64) float64 {
	if x <= 0 {
		return 0
	}
	sp := s.Speed(x)
	if sp <= 0 || math.IsNaN(sp) || math.IsInf(sp, 0) {
		return math.Inf(1)
	}
	return x / sp
}

// Point is one empirical observation of a model: at problem size Size the
// device ran at speed Speed (units/second).
type Point struct {
	Size  float64 `json:"size"`
	Speed float64 `json:"speed"`
}

// PiecewiseLinear is the standard empirical FPM: speed observations at
// increasing problem sizes, linearly interpolated between neighbouring
// points and clamped to the end values outside the measured range (the
// paper's models are "defined only for the range of problem sizes that fit
// the local memory" — extension beyond the last point keeps the last
// observed speed, which callers can forbid with a partitioning size cap).
type PiecewiseLinear struct {
	points []Point
	// env[i] = max over j<=i of t(points[j].Size): the monotone envelope of
	// the execution time at the knots, which SizeFor searches (invert.go).
	env []float64
}

// NewPiecewiseLinear builds a model from observation points. Points are
// sorted by size; duplicate sizes are rejected, as are non-positive sizes or
// speeds, because t(x) = x/s(x) must stay positive and finite.
func NewPiecewiseLinear(points []Point) (*PiecewiseLinear, error) {
	if len(points) == 0 {
		return nil, errors.New("fpm: piecewise-linear model needs at least one point")
	}
	ps := make([]Point, len(points))
	copy(ps, points)
	sort.Slice(ps, func(i, j int) bool { return ps[i].Size < ps[j].Size })
	env := make([]float64, len(ps))
	for i, p := range ps {
		if p.Size <= 0 || math.IsNaN(p.Size) || math.IsInf(p.Size, 0) {
			return nil, fmt.Errorf("fpm: invalid point size %v", p.Size)
		}
		if p.Speed <= 0 || math.IsNaN(p.Speed) || math.IsInf(p.Speed, 0) {
			return nil, fmt.Errorf("fpm: invalid speed %v at size %v", p.Speed, p.Size)
		}
		if i > 0 && ps[i-1].Size == p.Size {
			return nil, fmt.Errorf("fpm: duplicate point at size %v", p.Size)
		}
		env[i] = p.Size / p.Speed
		if i > 0 && env[i-1] > env[i] {
			env[i] = env[i-1]
		}
	}
	return &PiecewiseLinear{points: ps, env: env}, nil
}

// MustPiecewiseLinear is NewPiecewiseLinear that panics on error; for
// tests and static tables.
func MustPiecewiseLinear(points []Point) *PiecewiseLinear {
	m, err := NewPiecewiseLinear(points)
	if err != nil {
		panic(err)
	}
	return m
}

// Points returns a copy of the model's observation points in size order.
func (m *PiecewiseLinear) Points() []Point {
	out := make([]Point, len(m.points))
	copy(out, m.points)
	return out
}

// Speed linearly interpolates the observed speeds. Outside the measured
// range the nearest end speed is used.
func (m *PiecewiseLinear) Speed(x float64) float64 {
	ps := m.points
	if x <= ps[0].Size {
		return ps[0].Speed
	}
	last := ps[len(ps)-1]
	if x >= last.Size {
		return last.Speed
	}
	// Binary search for the first knot at or beyond x; ps[0].Size < x <=
	// ps[len-1].Size, so it lies in [1, len-1].
	i, end := 1, len(ps)-1
	for i < end {
		h := int(uint(i+end) >> 1)
		if ps[h].Size >= x {
			end = h
		} else {
			i = h + 1
		}
	}
	lo, hi := ps[i-1], ps[i]
	f := (x - lo.Size) / (hi.Size - lo.Size)
	return lo.Speed + f*(hi.Speed-lo.Speed)
}

// Domain returns the measured size range.
func (m *PiecewiseLinear) Domain() (min, max float64) {
	return m.points[0].Size, m.points[len(m.points)-1].Size
}

// Constant is the constant performance model (CPM): a single positive speed
// used for every problem size. This is the baseline the paper compares
// against — "the fundamental assumption ... is that the absolute speed of
// processors does not depend on the size of a computational task".
type Constant struct {
	S float64
}

// NewConstant returns a CPM with the given speed.
func NewConstant(speed float64) (Constant, error) {
	if speed <= 0 || math.IsNaN(speed) || math.IsInf(speed, 0) {
		return Constant{}, fmt.Errorf("fpm: invalid constant speed %v", speed)
	}
	return Constant{S: speed}, nil
}

// Speed returns the constant speed regardless of x.
func (c Constant) Speed(x float64) float64 { return c.S }

// Domain reports validity at any positive size.
func (c Constant) Domain() (min, max float64) { return 0, math.Inf(1) }

// ConstantFrom derives a CPM from an FPM in the way the paper describes CPM
// construction: "the constants are obtained in advance, from the speed
// measurements when some workload is distributed evenly between the
// processors" — i.e. the FPM is probed at one reference size.
func ConstantFrom(s SpeedFunction, refSize float64) (Constant, error) {
	return NewConstant(s.Speed(refSize))
}

// Scaled wraps a model, multiplying its speed by a constant factor. It is
// used to apply resource-contention degradation coefficients (the paper's
// observation that GPU speed drops 7–15% when CPU kernels run on the same
// socket).
type Scaled struct {
	Base   SpeedFunction
	Factor float64
}

// Speed returns Factor * Base.Speed(x).
func (s Scaled) Speed(x float64) float64 { return s.Factor * s.Base.Speed(x) }

// Domain delegates to the base model.
func (s Scaled) Domain() (min, max float64) { return s.Base.Domain() }
