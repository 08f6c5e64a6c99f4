package stats

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestLogGammaKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{1, 0},
		{2, 0},
		{3, math.Log(2)},
		{4, math.Log(6)},
		{5, math.Log(24)},
		{0.5, math.Log(math.Sqrt(math.Pi))},
		{1.5, math.Log(math.Sqrt(math.Pi) / 2)},
		{10, math.Log(362880)},
	}
	for _, c := range cases {
		got := logGamma(c.x)
		if math.Abs(got-c.want) > 1e-10*(1+math.Abs(c.want)) {
			t.Errorf("logGamma(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestRegIncBetaBounds(t *testing.T) {
	if got := RegIncBeta(2, 3, 0); got != 0 {
		t.Errorf("I_0 = %v, want 0", got)
	}
	if got := RegIncBeta(2, 3, 1); got != 1 {
		t.Errorf("I_1 = %v, want 1", got)
	}
	// I_x(1,1) = x (uniform distribution).
	for _, x := range []float64{0.1, 0.25, 0.5, 0.9} {
		if got := RegIncBeta(1, 1, x); math.Abs(got-x) > 1e-12 {
			t.Errorf("I_%v(1,1) = %v, want %v", x, got, x)
		}
	}
	// Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
	for _, x := range []float64{0.2, 0.4, 0.7} {
		l := RegIncBeta(2.5, 4.5, x)
		r := 1 - RegIncBeta(4.5, 2.5, 1-x)
		if math.Abs(l-r) > 1e-12 {
			t.Errorf("symmetry broken at x=%v: %v vs %v", x, l, r)
		}
	}
}

func TestTCDFSymmetryAndCenter(t *testing.T) {
	for _, df := range []float64{1, 2, 5, 10, 30, 120} {
		if got := TCDF(0, df); math.Abs(got-0.5) > 1e-12 {
			t.Errorf("TCDF(0, %v) = %v, want 0.5", df, got)
		}
		for _, x := range []float64{0.5, 1, 2, 3.7} {
			l := TCDF(-x, df)
			r := 1 - TCDF(x, df)
			if math.Abs(l-r) > 1e-10 {
				t.Errorf("symmetry broken df=%v x=%v: %v vs %v", df, x, l, r)
			}
		}
	}
	if TCDF(math.Inf(1), 5) != 1 || TCDF(math.Inf(-1), 5) != 0 {
		t.Error("infinite-argument CDF wrong")
	}
}

// Reference quantiles from standard t-tables.
func TestTInvAgainstTables(t *testing.T) {
	cases := []struct {
		p, df, want float64
	}{
		{0.975, 1, 12.7062},
		{0.975, 2, 4.30265},
		{0.975, 5, 2.57058},
		{0.975, 9, 2.26216},
		{0.975, 29, 2.04523},
		{0.95, 10, 1.81246},
		{0.99, 10, 2.76377},
		{0.995, 30, 2.75000},
		{0.975, 1000, 1.96234},
	}
	for _, c := range cases {
		got := TInv(c.p, c.df)
		if math.Abs(got-c.want) > 5e-4*(1+c.want) {
			t.Errorf("TInv(%v, %v) = %v, want %v", c.p, c.df, got, c.want)
		}
	}
}

func TestTInvEdgeCases(t *testing.T) {
	if got := TInv(0.5, 7); got != 0 {
		t.Errorf("median quantile = %v, want 0", got)
	}
	if !math.IsNaN(TInv(0, 5)) || !math.IsNaN(TInv(1, 5)) || !math.IsNaN(TInv(0.9, -1)) {
		t.Error("invalid arguments should yield NaN")
	}
	// Lower-tail quantiles mirror upper-tail ones.
	if got, want := TInv(0.025, 9), -TInv(0.975, 9); math.Abs(got-want) > 1e-9 {
		t.Errorf("lower tail %v, want %v", got, want)
	}
}

// Property: TInv is the right-inverse of TCDF across random (p, df).
func TestTInvRoundTripProperty(t *testing.T) {
	f := func(pRaw, dfRaw uint32) bool {
		p := 0.001 + 0.998*float64(pRaw)/float64(math.MaxUint32)
		df := 1 + float64(dfRaw%200)
		x := TInv(p, df)
		return math.Abs(TCDF(x, df)-p) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: for large df the t quantile approaches the normal quantile.
func TestTInvNormalLimit(t *testing.T) {
	got := TInv(0.975, 1e7)
	if math.Abs(got-1.959964) > 1e-3 {
		t.Errorf("large-df TInv(0.975) = %v, want ~1.96", got)
	}
}

// The memoised TInv returns the bits of the bisection itself, on first call
// and from the memo, for df 1..600 at the two-sided levels in use (0.95) and
// beside it, from concurrent callers.
func TestTInvMemoBitIdentical(t *testing.T) {
	var wg sync.WaitGroup
	for _, conf := range []float64{0.90, 0.95, 0.99} {
		p := 1 - (1-conf)/2
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for pass := 0; pass < 2; pass++ {
					for df := 1.0; df <= 600; df++ {
						want := tInvUpper(p, df)
						if got := TInv(p, df); math.Float64bits(got) != math.Float64bits(want) {
							t.Errorf("TInv(%v, %v) = %v, bisection %v", p, df, got, want)
						}
						lower := -tInvUpper(1-(1-p), df) // the mirror TInv solves
						if got := TInv(1-p, df); math.Float64bits(got) != math.Float64bits(lower) {
							t.Errorf("TInv(%v, %v) = %v, bisection %v", 1-p, df, got, lower)
						}
					}
				}
			}()
		}
	}
	wg.Wait()
}
