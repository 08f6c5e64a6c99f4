package fpm

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestInverterConstantModel(t *testing.T) {
	c, _ := NewConstant(10) // time(x) = x/10
	approx(t, SizeFor(c, 1, 0), 10, 1e-6, "T=1")
	approx(t, SizeFor(c, 2.5, 0), 25, 1e-5, "T=2.5")
	approx(t, SizeFor(c, 0, 0), 0, 0, "T=0")
	approx(t, SizeFor(c, -1, 0), 0, 0, "T<0")
	approx(t, SizeFor(c, math.NaN(), 0), 0, 0, "T=NaN")
}

func TestInverterRespectsCap(t *testing.T) {
	c, _ := NewConstant(10)
	approx(t, SizeFor(c, 100, 7), 7, 0, "cap binds")
	approx(t, SizeFor(c, math.Inf(1), 7), 7, 0, "infinite deadline returns cap")
	// No cap => unbounded.
	approx(t, SizeFor(c, 100, 0), 1000, 1e-9, "zero cap means no cap")
	if !math.IsInf(SizeFor(c, math.Inf(1), 0), 1) {
		t.Error("infinite deadline without a cap should be unbounded")
	}
}

func TestInverterPiecewiseLinear(t *testing.T) {
	// Speed 100 flat: time(x) = x/100.
	m := MustPiecewiseLinear([]Point{{Size: 10, Speed: 100}, {Size: 1000, Speed: 100}})
	approx(t, SizeFor(m, 2, 0), 200, 1e-4, "flat model invert")
	// Beyond the domain speed clamps to 100, so large T still works.
	approx(t, SizeFor(m, 100, 0), 10000, 1e-2, "beyond domain")
}

func TestInverterNonMonotoneTime(t *testing.T) {
	// A speed spike makes t non-monotone:
	// s: (10,10) -> t=1 ; (20,40) -> t=0.5 ; (40,40) -> t=1.
	m := MustPiecewiseLinear([]Point{{Size: 10, Speed: 10}, {Size: 20, Speed: 40}, {Size: 40, Speed: 40}})
	// Envelope time at x=20 is max(t up to 20)=1, so SizeFor(0.9) must NOT
	// return ~20 even though t(20)=0.5<=0.9; the envelope keeps the answer
	// below 10 (where t first reaches 0.9).
	if got := SizeFor(m, 0.9, 0); got >= 10 {
		t.Errorf("envelope violated: SizeFor(0.9) = %v, want < 10", got)
	}
	// With T=1.0 every measured size is reachable; answer >= 40.
	if got := SizeFor(m, 1.0, 0); got < 40-1e-6 {
		t.Errorf("SizeFor(1.0) = %v, want >= 40", got)
	}
}

// TestTimeInverterConcurrentSizeFor hammers one shared model from 16
// goroutines under -race. SizeFor's documented contract is that it only
// reads the model (fpmd shares one model across request handlers); a
// warm-start hint cached inside the model would fail here.
func TestTimeInverterConcurrentSizeFor(t *testing.T) {
	m := MustPiecewiseLinear([]Point{
		{Size: 5, Speed: 50}, {Size: 50, Speed: 120}, {Size: 100, Speed: 90}, {Size: 200, Speed: 60},
	})
	want := SizeFor(m, 1.7, 0)
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				T := 0.01 + float64((g*500+i)%997)*0.005
				x := SizeFor(m, T, 0)
				if math.IsNaN(x) || x < 0 {
					errs <- fmt.Sprintf("SizeFor(%v) = %v", T, x)
					return
				}
				if got := SizeFor(m, 1.7, 0); got != want {
					errs <- fmt.Sprintf("SizeFor(1.7) = %v under concurrency, want %v", got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// Property: SizeFor is monotone non-decreasing in T and the returned size's
// envelope time never exceeds T (for sane models).
func TestInverterMonotoneProperty(t *testing.T) {
	m := MustPiecewiseLinear([]Point{
		{Size: 5, Speed: 50}, {Size: 50, Speed: 120}, {Size: 100, Speed: 90}, {Size: 200, Speed: 60},
	})
	f := func(a, b uint16) bool {
		t1 := float64(a)/65535*5 + 1e-6
		t2 := float64(b)/65535*5 + 1e-6
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		x1, x2 := SizeFor(m, t1, 500), SizeFor(m, t2, 500)
		if x1 > x2+1e-6 {
			return false
		}
		// Feasibility: achieved envelope time within T (allowing rounding slack).
		return refEnvelopeTime(m, m, x1) <= t1*(1+1e-6)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
