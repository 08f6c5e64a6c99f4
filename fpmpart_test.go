package fpmpart

import (
	"math"
	"testing"
)

func TestFacadePartitioningRoundTrip(t *testing.T) {
	// A GPU-like device with a memory cliff and a flat CPU-like device.
	gpu := MustModel([]ModelPoint{
		{Size: 100, Speed: 900}, {Size: 1300, Speed: 950}, {Size: 1400, Speed: 450},
		{Size: 4000, Speed: 430},
	})
	cpu := MustModel([]ModelPoint{{Size: 100, Speed: 80}, {Size: 4000, Speed: 105}})
	devs := []Device{{Name: "gpu", Model: gpu}, {Name: "cpu", Model: cpu}}

	res, err := PartitionFPM(devs, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 3000 {
		t.Errorf("total = %d", res.Total)
	}
	if res.Imbalance() > 0.05 {
		t.Errorf("FPM imbalance = %v", res.Imbalance())
	}
	// CPM probed in the GPU's fast region overloads it.
	cpmRes, err := PartitionCPM(devs, 3000, 500)
	if err != nil {
		t.Fatal(err)
	}
	if cpmRes.Units()[0] <= res.Units()[0] {
		t.Errorf("CPM gpu %d should exceed FPM gpu %d", cpmRes.Units()[0], res.Units()[0])
	}
}

func TestFacadeModelHelpers(t *testing.T) {
	sizes, err := Sizes(10, 1000, 3, "geometric")
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 3 || math.Abs(sizes[1]-100) > 1e-9 {
		t.Errorf("geometric sizes = %v, want [10 100 1000]", sizes)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustModel accepted an empty table")
		}
	}()
	MustModel(nil)
}

func TestFacadeLayout(t *testing.T) {
	l, err := NewLayout([]float64{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	bl, err := l.Discretize(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := bl.Validate(); err != nil {
		t.Error(err)
	}
}

func TestFacadeHierarchical(t *testing.T) {
	devs := []Device{
		{Name: "fast", Model: MustModel([]ModelPoint{{Size: 10, Speed: 40}, {Size: 1000, Speed: 44}})},
		{Name: "slow", Model: MustModel([]ModelPoint{{Size: 10, Speed: 10}, {Size: 1000, Speed: 11}})},
	}
	h, err := PartitionHierarchical([][]Device{devs, devs}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if d := h.GroupUnits[0] - h.GroupUnits[1]; d < -50 || d > 50 {
		t.Errorf("identical groups got %v", h.GroupUnits)
	}
}
