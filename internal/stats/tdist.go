package stats

import (
	"math"
	"sync"
)

// This file implements Student's t-distribution from first principles
// (log-gamma via Lanczos, the regularised incomplete beta function via a
// Lentz continued fraction, the t CDF, and its inverse via bisection).
// Only the standard library is used.

// lanczos coefficients (g=7, n=9), standard double-precision set.
var lanczosCoef = [...]float64{
	0.99999999999980993,
	676.5203681218851,
	-1259.1392167224028,
	771.32342877765313,
	-176.61502916214059,
	12.507343278686905,
	-0.13857109526572012,
	9.9843695780195716e-6,
	1.5056327351493116e-7,
}

// logGamma returns ln(Gamma(x)) for x > 0.
func logGamma(x float64) float64 {
	if x < 0.5 {
		// Reflection formula: Gamma(x)Gamma(1-x) = pi / sin(pi x).
		return math.Log(math.Pi/math.Sin(math.Pi*x)) - logGamma(1-x)
	}
	x--
	a := lanczosCoef[0]
	t := x + 7.5
	for i := 1; i < len(lanczosCoef); i++ {
		a += lanczosCoef[i] / (x + float64(i))
	}
	return 0.5*math.Log(2*math.Pi) + (x+0.5)*math.Log(t) - t + math.Log(a)
}

// betacf evaluates the continued fraction for the incomplete beta function
// using the modified Lentz method (Numerical-Recipes style formulation).
func betacf(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// RegIncBeta returns the regularised incomplete beta function I_x(a, b)
// for a, b > 0 and 0 <= x <= 1.
func RegIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	lbeta := logGamma(a+b) - logGamma(a) - logGamma(b)
	front := math.Exp(lbeta + a*math.Log(x) + b*math.Log(1-x))
	// Use the continued fraction directly for x < (a+1)/(a+b+2), otherwise
	// use the symmetry relation to keep it convergent.
	if x < (a+1)/(a+b+2) {
		return front * betacf(a, b, x) / a
	}
	return 1 - front*betacf(b, a, 1-x)/b
}

// TCDF returns P(T <= t) for Student's t with df degrees of freedom.
func TCDF(t, df float64) float64 {
	if math.IsNaN(t) || df <= 0 {
		return math.NaN()
	}
	if math.IsInf(t, 1) {
		return 1
	}
	if math.IsInf(t, -1) {
		return 0
	}
	x := df / (df + t*t)
	p := 0.5 * RegIncBeta(df/2, 0.5, x)
	if t > 0 {
		return 1 - p
	}
	return p
}

// TInv returns the p-quantile of Student's t distribution with df degrees of
// freedom, i.e. the t such that TCDF(t, df) = p. It uses bisection on the
// CDF, which is monotone; the result is accurate to ~1e-12 in t. Results are
// memoised per (p, df): MeanCI asks for the same few levels at the same
// sample sizes again and again, and one bisection costs about 20 µs.
func TInv(p, df float64) float64 {
	if math.IsNaN(p) || df <= 0 || p <= 0 || p >= 1 {
		if p == 0.5 {
			return 0
		}
		return math.NaN()
	}
	if p == 0.5 {
		return 0
	}
	// Symmetric distribution: solve for the upper tail and mirror.
	if p < 0.5 {
		return -TInv(1-p, df)
	}
	key := tInvKey{p, df}
	tInvMemo.RLock()
	t, ok := tInvMemo.m[key]
	tInvMemo.RUnlock()
	if ok {
		return t
	}
	t = tInvUpper(p, df)
	// A NaN df never matches its own key, so it is not stored.
	if !math.IsNaN(df) {
		tInvMemo.Lock()
		if len(tInvMemo.m) < tInvMemoMax {
			tInvMemo.m[key] = t
		}
		tInvMemo.Unlock()
	}
	return t
}

// tInvKey is one memoised TInv argument pair.
type tInvKey struct{ p, df float64 }

// tInvMemoMax bounds the memo: a process sees a few confidence levels times
// the sample sizes its estimators reach, far fewer than this.
const tInvMemoMax = 4096

var tInvMemo = struct {
	sync.RWMutex
	m map[tInvKey]float64
}{m: map[tInvKey]float64{}}

// tInvUpper is TInv's bisection for 0.5 < p < 1.
func tInvUpper(p, df float64) float64 {
	lo, hi := 0.0, 1.0
	for TCDF(hi, df) < p {
		hi *= 2
		if hi > 1e12 {
			break
		}
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if TCDF(mid, df) < p {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-12*(1+hi) {
			break
		}
	}
	return (lo + hi) / 2
}
