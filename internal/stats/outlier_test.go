package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMAD(t *testing.T) {
	s := NewSample(1, 2, 3, 4, 100)
	// median = 3; deviations = 2,1,0,1,97; MAD = 1.
	if got := s.MAD(); math.Abs(got-1) > 1e-12 {
		t.Errorf("MAD = %v, want 1", got)
	}
	if !math.IsNaN((&Sample{}).MAD()) {
		t.Error("empty MAD should be NaN")
	}
	// Even-count median of deviations.
	e := NewSample(1, 2, 3, 10)
	// median = 2.5; devs = 1.5, 0.5, 0.5, 7.5 sorted 0.5 0.5 1.5 7.5 → MAD = 1.
	if got := e.MAD(); math.Abs(got-1) > 1e-12 {
		t.Errorf("even MAD = %v, want 1", got)
	}
}

func TestFilterOutliers(t *testing.T) {
	s := NewSample(10, 10.1, 9.9, 10.05, 9.95, 42)
	f := s.FilterOutliers(3)
	if f.N() != 5 {
		t.Errorf("filtered N = %d, want 5 (42 dropped)", f.N())
	}
	if f.Max() > 11 {
		t.Error("outlier survived")
	}
	// Original sample untouched.
	if s.N() != 6 {
		t.Error("filtering mutated the source")
	}
	// Robust mean ignores the outlier, plain mean does not.
	if rm := s.FilterOutliers(3).Mean(); math.Abs(rm-10) > 0.1 {
		t.Errorf("robust mean = %v", rm)
	}
	if pm := s.Mean(); pm < 15 {
		t.Errorf("plain mean should be dragged up: %v", pm)
	}
}

func TestFilterOutliersDegenerate(t *testing.T) {
	// Identical observations: MAD 0, nothing dropped.
	s := NewSample(5, 5, 5, 5)
	if f := s.FilterOutliers(3); f.N() != 4 {
		t.Errorf("identical sample filtered to %d", f.N())
	}
	// Mostly-identical with one deviant: MAD 0, deviant dropped.
	d := NewSample(5, 5, 5, 6)
	if f := d.FilterOutliers(3); f.N() != 3 {
		t.Errorf("deviant not dropped: N = %d", f.N())
	}
	// k <= 0 passes through.
	if f := d.FilterOutliers(0); f.N() != 4 {
		t.Error("k=0 should not filter")
	}
	// Never empty.
	one := NewSample(7)
	if f := one.FilterOutliers(3); f.N() == 0 {
		t.Error("filter emptied the sample")
	}
}

func TestMeanAbsDev(t *testing.T) {
	// median = 5; deviations 0,0,0,1 → meanAD = 0.25.
	s := NewSample(5, 5, 5, 6)
	if got := s.MeanAbsDev(); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("MeanAbsDev = %v, want 0.25", got)
	}
	if !math.IsNaN((&Sample{}).MeanAbsDev()) {
		t.Error("empty MeanAbsDev should be NaN")
	}
	if got := NewSample(3, 3, 3).MeanAbsDev(); got != 0 {
		t.Errorf("identical MeanAbsDev = %v, want 0", got)
	}
}

// A quantized clock puts most observations on one tick and the rest one tick
// over: >50% identical, MAD zero. The k·MAD window must not reject the
// one-tick-over observations (the old relative-epsilon fallback did), while a
// genuinely distant outlier still goes.
func TestFilterOutliersQuantizedClock(t *testing.T) {
	tick := 0.001
	s := NewSample(tick, tick, tick, tick, tick, 2*tick, 2*tick, 2*tick)
	if got := s.MAD(); got != 0 {
		t.Fatalf("MAD = %v, want 0 (test premise)", got)
	}
	f := s.FilterOutliers(3)
	if f.N() != s.N() {
		t.Errorf("quantized-clock sample filtered from %d to %d; one-tick neighbours must survive", s.N(), f.N())
	}
	// The robust mean reflects the whole batch, not just the modal tick.
	if rm := s.FilterOutliers(3).Mean(); math.Abs(rm-s.Mean()) > 1e-12 {
		t.Errorf("robust mean %v != mean %v for quantized batch", rm, s.Mean())
	}

	// A distant outlier on top of the quantized batch is still rejected.
	o := NewSample(tick, tick, tick, tick, tick, 2*tick, 2*tick, 2*tick, 0.5)
	fo := o.FilterOutliers(3)
	if fo.Max() > 3*tick {
		t.Errorf("distant outlier survived: max %v", fo.Max())
	}
	if fo.N() < 5 {
		t.Errorf("fallback scale rejected the modal tick itself: N = %d", fo.N())
	}
}

// Property: filtering never increases the spread and keeps the median
// roughly in place.
func TestFilterOutliersProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) < 3 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		s := NewSample(xs...)
		filtered := s.FilterOutliers(3)
		if filtered.N() == 0 || filtered.N() > s.N() {
			return false
		}
		// Spread does not grow.
		if filtered.N() >= 2 && s.N() >= 2 {
			fs, ss := filtered.Max()-filtered.Min(), s.Max()-s.Min()
			if fs > ss+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
