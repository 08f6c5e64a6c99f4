package partition

import (
	"context"
	"errors"
	"sync"
	"testing"

	"fpmpart/internal/fpm"
)

func contextTestDevices() []Device {
	return []Device{
		{Name: "gpu", Model: fpm.MustPiecewiseLinear([]fpm.Point{
			{Size: 10, Speed: 400}, {Size: 500, Speed: 900}, {Size: 2000, Speed: 700},
		})},
		{Name: "cpu", Model: fpm.MustPiecewiseLinear([]fpm.Point{
			{Size: 10, Speed: 120}, {Size: 500, Speed: 150}, {Size: 2000, Speed: 110},
		})},
		{Name: "slow", Model: fpm.MustPiecewiseLinear([]fpm.Point{
			{Size: 10, Speed: 30}, {Size: 2000, Speed: 40},
		})},
	}
}

func TestFPMContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := FPMContext(ctx, contextTestDevices(), 5000, FPMOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("FPMContext with cancelled ctx = %v, want context.Canceled", err)
	}
}

// cancelAfter is a speed function that cancels a context once it has been
// evaluated after times: a request deadline passing in the middle of a
// solve. It is not piecewise-linear, so fpm.SizeFor inverts it numerically,
// with many evaluations per evaluation of total(T).
type cancelAfter struct {
	fpm.SpeedFunction
	calls  *int
	after  int
	cancel context.CancelFunc
}

func (c cancelAfter) Speed(x float64) float64 {
	if *c.calls++; *c.calls == c.after {
		c.cancel()
	}
	return c.SpeedFunction.Speed(x)
}

func TestFPMContextCancelledMidSolve(t *testing.T) {
	solve := func(ctx context.Context, cancel context.CancelFunc, after int) (int, error) {
		calls := 0
		devs := contextTestDevices()
		devs[0].Model = cancelAfter{devs[0].Model, &calls, after, cancel}
		_, err := FPMContext(ctx, devs, 5000, FPMOptions{})
		return calls, err
	}
	full, err := solve(context.Background(), func() {}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls, err := solve(ctx, cancel, full/3)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("solve cancelled after %d of %d speed calls = %v, want context.Canceled", full/3, full, err)
	}
	if calls >= full {
		t.Fatalf("cancelled solve made all %d speed calls of a full solve", full)
	}
}

func TestFPMContextBackgroundMatchesFPM(t *testing.T) {
	devs := contextTestDevices()
	a, err := FPM(devs, 5000, FPMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := FPMContext(context.Background(), devs, 5000, FPMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assignments {
		if a.Assignments[i].Units != b.Assignments[i].Units {
			t.Fatalf("FPM and FPMContext disagree: %v vs %v", a.Units(), b.Units())
		}
	}
}

// TestFPMConcurrentSolves hammers the solver with a shared device slice from
// 16 goroutines under -race: fpmd calls partition.FPM concurrently for every
// request, so the solver must not share mutable state across solves (the
// per-solve memo cache is private; models and inverters are immutable).
// Results must also be identical across goroutines.
func TestFPMConcurrentSolves(t *testing.T) {
	devs := contextTestDevices()
	want, err := FPM(devs, 4321, FPMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				res, err := FPMContext(context.Background(), devs, 4321, FPMOptions{})
				if err != nil {
					errs <- err
					return
				}
				for d := range res.Assignments {
					if res.Assignments[d].Units != want.Assignments[d].Units {
						errs <- errors.New("concurrent solve diverged from sequential result")
						return
					}
				}
				// Vary n too, exercising distinct bracketing and closing paths.
				if _, err := FPMContext(context.Background(), devs, 100+g*37+i, FPMOptions{}); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
