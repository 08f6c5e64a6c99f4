package sim

import (
	"testing"
	"testing/quick"
)

func TestResourceSequentialExecution(t *testing.T) {
	r := NewResource("pcie")
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
	s3, f3 := r.Exec(20, 1)
	if s3 != 20 || f3 != 21 {
		t.Errorf("idle-start task (%v,%v), want (20,21)", s3, f3)
	}
	if r.BusyTime() != 14 {
		t.Errorf("busy = %v, want 14", r.BusyTime())
	}
}

func TestResourceResetAndName(t *testing.T) {
	r := NewResource("h2d")
	r.Exec(0, 5)
	r.Reset()
	if r.FreeAt() != 0 || r.BusyTime() != 0 {
		t.Error("reset did not clear state")
	}
	if r.Name() != "h2d" {
		t.Errorf("name = %q", r.Name())
	}
}

func TestResourcePanicsOnBadDuration(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewResource("x").Exec(0, -1)
}

// Property: a resource never overlaps tasks and never idles between a busy
// backlog — finish times are non-decreasing and start >= ready.
func TestResourceNoOverlapProperty(t *testing.T) {
	f := func(readies []uint8, durs []uint8) bool {
		r := NewResource("p")
		nTasks := len(readies)
		if len(durs) < nTasks {
			nTasks = len(durs)
		}
		prevFinish := 0.0
		for i := 0; i < nTasks; i++ {
			ready := float64(readies[i])
			dur := float64(durs[i] % 16)
			start, finish := r.Exec(ready, dur)
			if start < ready || start < prevFinish || finish != start+dur {
				return false
			}
			prevFinish = finish
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
