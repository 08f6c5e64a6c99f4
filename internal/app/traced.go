package app

import (
	"fmt"

	"fpmpart/internal/gpukernel"
	"fpmpart/internal/hw"
	"fpmpart/internal/layout"
	"fpmpart/internal/sim"
)

// SimulateTraced runs Simulate and additionally reconstructs the run as a
// per-process timeline suitable for Chrome-trace export: the application is
// bulk-synchronous, so each iteration occupies one slot of
// max(iteration time) + per-iteration communication, every process computes
// at the start of its slot, and the pivot broadcast fills the slot's tail.
// GPU host processes running kernel version 3 are expanded into their
// h2d/compute/d2h engine schedules (the paper's Figure 4(b)), scaled to the
// process's effective iteration time.
//
// Lanes are named "process/thread" so sim.Timeline.AddByLane groups them:
// CPU processes keep their "socketS/coreC" names, a GPU named G gets
// "G/host" plus "G/h2d", "G/compute" and "G/d2h", and the broadcast lives
// on "node/broadcast".
//
// maxIters bounds the number of traced iterations (0 = all bl.N); the
// returned SimResult always describes the full run.
func SimulateTraced(node *hw.Node, procs []Process, bl *layout.BlockLayout, opts SimOptions, maxIters int) (SimResult, *sim.Timeline, error) {
	res, err := Simulate(node, procs, bl, opts)
	if err != nil {
		return SimResult{}, nil, err
	}
	n := bl.N
	iters := n
	if maxIters > 0 && maxIters < iters {
		iters = maxIters
	}
	// Per-process iteration times and the bulk-synchronous slot.
	iterTime := make([]float64, len(procs))
	var maxIter float64
	for i := range procs {
		iterTime[i] = res.PerProcess[i].ComputeSeconds / float64(n)
		if iterTime[i] > maxIter {
			maxIter = iterTime[i]
		}
	}
	commPerIter := res.CommSeconds / float64(n)
	slot := maxIter + commPerIter

	// A GPU host's engine schedule is identical every iteration: compute the
	// ideal version-3 pipeline once per process, then stamp it per slot,
	// rescaled so it fills exactly the process's effective iteration time.
	engines := make(map[int][]sim.Span)
	if opts.Version == gpukernel.V3 {
		for i, p := range procs {
			if p.Kind != GPUHost || iterTime[i] <= 0 {
				continue
			}
			var etl sim.Timeline
			r := bl.Rects[i]
			inv := gpukernel.Invocation{
				GPU:       node.GPUs[p.GPU],
				BlockSize: node.BlockSize, ElemBytes: node.ElemBytes,
				Rows: int(r.H), Cols: int(r.W),
			}
			if _, err := gpukernel.ScheduleV3(inv, &etl); err != nil {
				return SimResult{}, nil, fmt.Errorf("app: process %d (%s): %w", i, p.Name, err)
			}
			if m := etl.Makespan(); m > 0 {
				scale := iterTime[i] / m
				spans := etl.Spans()
				for j := range spans {
					spans[j].Start *= scale
					spans[j].End *= scale
				}
				engines[i] = spans
			}
		}
	}

	tl := &sim.Timeline{}
	for k := 0; k < iters; k++ {
		t0 := float64(k) * slot
		for i, p := range procs {
			if iterTime[i] <= 0 {
				continue
			}
			label := fmt.Sprintf("iter%d", k)
			switch {
			case p.Kind == GPUHost:
				if err := tl.Add(p.Name+"/host", label, t0, t0+iterTime[i]); err != nil {
					return SimResult{}, nil, err
				}
				for _, s := range engines[i] {
					if err := tl.Add(p.Name+"/"+s.Lane, s.Label, t0+s.Start, t0+s.End); err != nil {
						return SimResult{}, nil, err
					}
				}
			default:
				if err := tl.Add(p.Name, label, t0, t0+iterTime[i]); err != nil {
					return SimResult{}, nil, err
				}
			}
		}
		if commPerIter > 0 {
			if err := tl.Add("node/broadcast", fmt.Sprintf("bcast%d", k), t0+maxIter, t0+slot); err != nil {
				return SimResult{}, nil, err
			}
		}
	}
	return res, tl, nil
}
