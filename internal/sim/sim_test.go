package sim

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// validateTimeline checks that no lane of tl has overlapping spans (engines
// are sequential resources).
func validateTimeline(tl *Timeline) error {
	byLane := map[string][]Span{}
	for _, s := range tl.Spans() {
		byLane[s.Lane] = append(byLane[s.Lane], s)
	}
	for lane, spans := range byLane {
		sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
		for i := 1; i < len(spans); i++ {
			if spans[i].Start < spans[i-1].End-1e-12 {
				return fmt.Errorf("lane %s: %q [%v,%v] overlaps %q [%v,%v]",
					lane, spans[i].Label, spans[i].Start, spans[i].End,
					spans[i-1].Label, spans[i-1].Start, spans[i-1].End)
			}
		}
	}
	return nil
}

func TestResourceSequentialExecution(t *testing.T) {
	var tl Timeline
	r := NewResource("pcie", &tl)
	s1, f1 := r.Exec(0, 10)
	if s1 != 0 || f1 != 10 {
		t.Errorf("first task (%v,%v)", s1, f1)
	}
	// Ready at 5 but resource busy until 10.
	s2, f2 := r.Exec(5, 3)
	if s2 != 10 || f2 != 13 {
		t.Errorf("queued task (%v,%v), want (10,13)", s2, f2)
	}
	// Ready after the resource frees: starts at ready time.
	s3, f3 := r.ExecLabeled("late", 20, 1)
	if s3 != 20 || f3 != 21 {
		t.Errorf("idle-start task (%v,%v), want (20,21)", s3, f3)
	}
	// A zero-duration task is scheduled but leaves no span.
	r.Exec(30, 0)
	if r.FreeAt() != 30 {
		t.Errorf("free at %v, want 30", r.FreeAt())
	}
	want := []Span{{"pcie", "", 0, 10}, {"pcie", "", 10, 13}, {"pcie", "late", 20, 21}}
	got := tl.Spans()
	if len(got) != len(want) {
		t.Fatalf("recorded %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestResourcePanicsOnBadDuration(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewResource("x", nil).Exec(0, -1)
}

// Property: a resource never overlaps tasks and never idles between a busy
// backlog — finish times are non-decreasing and start >= ready — and the
// spans it records on a shared timeline never overlap within a lane.
func TestResourceNoOverlapProperty(t *testing.T) {
	f := func(readies []uint8, durs []uint8) bool {
		var tl Timeline
		rs := []*Resource{NewResource("p", &tl), NewResource("q", &tl)}
		nTasks := len(readies)
		if len(durs) < nTasks {
			nTasks = len(durs)
		}
		prevFinish := []float64{0, 0}
		for i := 0; i < nTasks; i++ {
			ready := float64(readies[i])
			dur := float64(durs[i] % 16)
			start, finish := rs[i%2].Exec(ready, dur)
			if start < ready || start < prevFinish[i%2] || finish != start+dur {
				return false
			}
			prevFinish[i%2] = finish
		}
		return validateTimeline(&tl) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTimelineBasics(t *testing.T) {
	var tl Timeline
	if err := tl.Add("h2d", "d0", 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := tl.Add("compute", "g0", 1, 3); err != nil {
		t.Fatal(err)
	}
	if err := tl.Add("h2d", "d1", 1, 2); err != nil {
		t.Fatal(err)
	}
	if got := tl.Makespan(); got != 3 {
		t.Errorf("makespan = %v", got)
	}
	if err := validateTimeline(&tl); err != nil {
		t.Errorf("valid timeline rejected: %v", err)
	}
	if len(tl.Spans()) != 3 {
		t.Error("spans lost")
	}
}

func TestTimelineAddValidation(t *testing.T) {
	var tl Timeline
	if err := tl.Add("x", "a", 2, 1); err == nil {
		t.Error("end < start accepted")
	}
	if err := tl.Add("x", "a", math.NaN(), 1); err == nil {
		t.Error("NaN start accepted")
	}
}

func TestTimelineValidateCatchesOverlap(t *testing.T) {
	var tl Timeline
	_ = tl.Add("engine", "a", 0, 2)
	_ = tl.Add("engine", "b", 1, 3)
	if err := validateTimeline(&tl); err == nil {
		t.Error("overlap not caught")
	}
	// Overlaps across different lanes are fine.
	var ok Timeline
	_ = ok.Add("e1", "a", 0, 2)
	_ = ok.Add("e2", "b", 1, 3)
	if err := validateTimeline(&ok); err != nil {
		t.Errorf("cross-lane overlap rejected: %v", err)
	}
}

func TestSpansIsACopy(t *testing.T) {
	var tl Timeline
	_ = tl.Add("a", "x", 0, 1)
	s := tl.Spans()
	s[0].Lane = "mutated"
	if tl.Spans()[0].Lane != "a" {
		t.Error("Spans() leaked internal state")
	}
}
