package fpm

import "math"

// The FPM-based data partitioning algorithm needs, for each device, the
// inverse of the execution-time function t(x) = x/s(x): given a deadline T,
// how much work can the device complete in time T?
//
// For well-behaved speed functions t(x) is increasing, but empirical GPU
// models have jumps (e.g. the out-of-core cliff in Figure 3 of the paper)
// that can make t locally non-monotone. We therefore invert the monotone
// envelope tm(x) = max_{y<=x} t(y): the largest x whose envelope time is
// within T. This matches the partitioning semantics — a device is assigned
// the most work it can finish by T.
//
// This is the paper's geometric step: the line through the origin with
// slope 1/T meets the speed function where x/s(x) = T. On a piecewise-linear
// model the meeting point has a closed form per segment, so no search over x
// is needed (DESIGN §7.3).

// SizeFor returns the largest x (0 <= x <= sizeCap) such that the monotone
// envelope of model s's execution time does not exceed T. A sizeCap <= 0
// means no cap; SizeFor(s, 0, ·) = 0 and an infinite T returns the cap.
//
// Piecewise-linear and constant models, and Scaled wrappers over them, are
// inverted exactly; any other SpeedFunction falls back to a numeric
// bisection on t(x), which assumes its time function is increasing. SizeFor
// only reads s, so one model may serve concurrent solves.
func SizeFor(s SpeedFunction, T, sizeCap float64) float64 {
	if sizeCap <= 0 {
		sizeCap = math.Inf(1)
	}
	if !(T > 0) {
		return 0
	}
	if math.IsInf(T, 1) {
		return sizeCap
	}
	var x float64
	switch m := s.(type) {
	case *PiecewiseLinear:
		x = m.sizeFor(T)
	case Constant:
		x = T * m.S
	case Scaled:
		// t(x) = x / (Factor·base(x)) <= T  ⇔  x/base(x) <= T·Factor.
		return SizeFor(m.Base, T*m.Factor, sizeCap)
	default:
		return bisectSizeFor(s, T, sizeCap)
	}
	if !(x > 0) {
		return 0
	}
	return min(x, sizeCap)
}

// sizeFor inverts the envelope of a piecewise-linear model without a cap.
//
// Within one segment s(x) = a + b·x, so dt/dx = a/(a+bx)² keeps one sign:
// time is monotone between knots and the running maximum tm is attained at
// knots. env holds that running maximum, so the knots with env <= T are all
// reachable and the answer lies in the stretch right after the last of them:
//
//   - before the first knot speed is clamped to s₀:        x = T·s₀
//   - beyond the last knot speed is clamped to s_last:     x = T·s_last
//   - otherwise t rises through T between knots c-1 and c
//     (env[c-1] <= T < env[c] = t(x_c)), and x/(a+bx) = T
//     gives x = aT/(1−bT), evaluated as an offset from knot c-1.
func (m *PiecewiseLinear) sizeFor(T float64) float64 {
	ps := m.points
	// c = number of knots whose envelope time is within T: env is sorted,
	// so c is the first index with env[c] > T.
	c, end := 0, len(m.env)
	for c < end {
		h := int(uint(c+end) >> 1)
		if m.env[h] > T {
			end = h
		} else {
			c = h + 1
		}
	}
	switch c {
	case 0:
		return T * ps[0].Speed
	case len(ps):
		return T * ps[c-1].Speed
	}
	lo, hi := ps[c-1], ps[c]
	b := (hi.Speed - lo.Speed) / (hi.Size - lo.Size)
	// 1−bT > 0 here: (x_c − T·s_c) − (x_{c-1} − T·s_{c-1}) is a positive
	// minus a non-positive number. The clamps absorb rounding at the ends.
	x := lo.Size + (T*lo.Speed-lo.Size)/(1-b*T)
	if !(x >= lo.Size) {
		return lo.Size
	}
	return min(x, hi.Size)
}

// bisectSizeFor is the numeric inversion for models without a closed form
// (MonotoneCubic): bracket, then bisect t(x) <= T to a relative 1e-9.
func bisectSizeFor(s SpeedFunction, T, sizeCap float64) float64 {
	// Establish an upper bracket: grow until time exceeds T or the cap is
	// reached. Beyond the model domain the speed is clamped to a constant,
	// so time grows linearly and the loop terminates.
	_, hi := s.Domain()
	if math.IsInf(hi, 1) || hi <= 0 {
		hi = 1
	}
	hi = math.Min(hi, sizeCap)
	for Time(s, hi) <= T {
		if hi >= sizeCap {
			return sizeCap
		}
		hi = math.Min(2*hi, sizeCap)
	}
	lo := 0.0
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if Time(s, mid) <= T {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo <= 1e-9*(1+hi) {
			break
		}
	}
	return lo
}
