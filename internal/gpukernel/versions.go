package gpukernel

import (
	"fmt"
	"math"

	"fpmpart/internal/sim"
)

// timeV1 models the naive kernel: every invocation ships the pivot column,
// pivot row and the whole C rectangle to the device and the updated C back.
// When the rectangle exceeds device memory it is processed in serial tiles
// (which changes only the number of transfer latencies, since everything is
// transferred anyway).
func timeV1(inv Invocation) (Breakdown, error) {
	bb := inv.blockBytes()
	g := inv.GPU
	bd := Breakdown{InMemory: inv.fitsResident()}

	heights, err := inv.tileHeights(1)
	if err != nil {
		return Breakdown{}, err
	}
	if bd.InMemory {
		heights = []int{inv.Rows}
	}
	bd.Tiles = len(heights)

	// Pivot row B goes down once.
	bd.H2D += g.H2DTime(float64(inv.Cols) * bb)
	for _, r := range heights {
		area := float64(r) * float64(inv.Cols)
		// A tile, C tile down; compute; C tile up. Version 1 does not pad
		// tiles to the 32-element alignment.
		bd.H2D += g.H2DTime(float64(r)*bb) + g.H2DTime(area*bb)
		bd.Compute += inv.computeTime(area, r, inv.Cols, false)
		bd.D2H += g.D2HTime(area * bb)
	}
	bd.Makespan = bd.H2D + bd.Compute + bd.D2H
	return bd, nil
}

// timeV2 models the device-resident kernel: C accumulates on the device.
// In-memory invocations only transfer the pivot column and row. Out-of-core
// invocations process C tiles serially — transfer tile down, update,
// transfer tile up — but keep the boundary tile resident between
// invocations, reversing the update order every other iteration, which
// saves its transfers (Section V of the paper). Tile dimensions are padded
// to multiples of 32 elements.
func timeV2(inv Invocation) (Breakdown, error) {
	bb := inv.blockBytes()
	g := inv.GPU
	bd := Breakdown{}

	if inv.fitsResident() {
		bd.InMemory = true
		bd.Tiles = 1
		area := float64(inv.Rows) * float64(inv.Cols)
		bd.H2D = g.H2DTime(float64(inv.Rows)*bb) + g.H2DTime(float64(inv.Cols)*bb)
		bd.Compute = inv.computeTime(area, inv.Rows, inv.Cols, true)
		bd.Makespan = bd.H2D + bd.Compute
		return bd, nil
	}

	// Out-of-core tiling uses the five-buffer layout of Figure 4(a) — two
	// A buffers, B, and two C buffers — so tiles are sized for two sets.
	heights, err := inv.tileHeights(2)
	if err != nil {
		return Breakdown{}, err
	}
	tiles := len(heights)
	bd.Tiles = tiles
	bd.H2D += g.H2DTime(float64(inv.Cols) * bb) // pivot row B once

	// The reversal trick keeps the boundary tile resident across
	// invocations, saving its C movement — but only once the sweep is long
	// enough that the boundary tile coexists with incoming ones.
	resident := 0
	if tiles >= 3 {
		resident = 1
	}
	for i, r := range heights {
		area := float64(r) * float64(inv.Cols)
		bd.H2D += g.H2DTime(float64(r) * bb) // A tile
		bd.Compute += inv.computeTime(area, r, inv.Cols, true)
		if i >= tiles-resident {
			// The resident tile skips the C movement this invocation.
			continue
		}
		bd.H2D += g.H2DTime(area * bb)
		bd.D2H += g.D2HTime(area * bb)
	}
	bd.Makespan = bd.H2D + bd.Compute + bd.D2H
	return bd, nil
}

// timeV3 models the overlapped kernel: double-buffered tiles (A0/A1, C0/C1,
// B0 as in Figure 4) pipelined over the device's DMA engine(s) and compute
// engine. The schedule is computed on engine timelines; a device with one
// DMA engine (Tesla C870) serialises H2D and D2H on the same timeline, so
// the overlap benefit shrinks exactly as the paper observes. Imperfect
// stream overlap on real hardware is modelled by blending the pipelined
// makespan with the serial one using the device's CopyComputeOverlap.
func timeV3(inv Invocation) (Breakdown, error) {
	return timeV3Traced(inv, nil)
}

// timeV3Traced is timeV3 optionally recording the engine schedule.
func timeV3Traced(inv Invocation, tl *sim.Timeline) (Breakdown, error) {
	bb := inv.blockBytes()
	g := inv.GPU
	bd := Breakdown{}

	// The engines record their own schedules into tl — these spans are what
	// the Chrome-trace export renders as per-engine lanes.
	h2d := sim.NewResource("h2d", tl)
	d2h := h2d
	if g.DMAEngines >= 2 {
		d2h = sim.NewResource("d2h", tl)
	}
	compute := sim.NewResource("compute", tl)

	if inv.fitsResident() {
		// In-memory: the A/B transfers overlap with compute of the previous
		// application iteration; model as max(transfer, compute) blended by
		// the overlap quality.
		bd.InMemory = true
		bd.Tiles = 1
		area := float64(inv.Rows) * float64(inv.Cols)
		bd.H2D = g.H2DTime(float64(inv.Rows)*bb) + g.H2DTime(float64(inv.Cols)*bb)
		bd.Compute = inv.computeTime(area, inv.Rows, inv.Cols, true)
		serial := bd.H2D + bd.Compute
		ideal := math.Max(bd.H2D, bd.Compute)
		bd.Makespan = blend(ideal, serial, g.CopyComputeOverlap)
		// The ideal in-memory schedule overlaps the pivot transfers with the
		// previous iteration's compute: both engines run from time zero.
		h2d.ExecLabeled("AB", 0, bd.H2D)
		compute.ExecLabeled("gemm", 0, bd.Compute)
		return bd, nil
	}

	// Out-of-core: two buffer sets on the device.
	heights, err := inv.tileHeights(2)
	if err != nil {
		return Breakdown{}, err
	}
	tiles := len(heights)
	bd.Tiles = tiles

	// Pivot row B first.
	_, bReady := h2d.ExecLabeled("B", 0, g.H2DTime(float64(inv.Cols)*bb))

	// Per-tile task durations. The reversal trick of version 2 also applies
	// at the sweep boundaries: the first tile's C is already resident from
	// the previous invocation (no download) and the last tile's C stays
	// resident for the next one (no upload).
	downDur := make([]float64, tiles)
	upDur := make([]float64, tiles)
	compDur := make([]float64, tiles)
	for i, r := range heights {
		area := float64(r) * float64(inv.Cols)
		downDur[i] = g.H2DTime(float64(r) * bb) // A tile
		if i > 0 || tiles == 1 {
			downDur[i] += g.H2DTime(area * bb) // C tile
		}
		if i < tiles-1 {
			upDur[i] = g.D2HTime(area * bb)
		}
		compDur[i] = inv.computeTime(area, r, inv.Cols, true)
		bd.H2D += downDur[i]
		bd.D2H += upDur[i]
		bd.Compute += compDur[i]
	}

	// Issue order follows Figure 4(b): prefetch the next tile's download
	// right after the current one, then the previous tile's upload —
	// d0, d1, u0, d2, u1, … On one DMA engine this ordering lets both the
	// upload of tile i-1 and the download of tile i+1 hide under the
	// computation of tile i; on two engines they additionally run
	// concurrently with each other. C-tile i occupies buffer i%2, whose
	// download must wait for the prior occupant's upload.
	bufFree := [2]float64{bReady, bReady}
	compDone := make([]float64, tiles)
	var lastFinish float64
	for i := 0; i < tiles; i++ {
		_, downDone := h2d.ExecLabeled(fmt.Sprintf("d%d", i), bufFree[i%2], downDur[i])
		_, compDone[i] = compute.ExecLabeled(fmt.Sprintf("g%d", i), downDone, compDur[i])
		lastFinish = compDone[i]
		if i > 0 {
			_, upDone := d2h.ExecLabeled(fmt.Sprintf("u%d", i-1), compDone[i-1], upDur[i-1])
			bufFree[(i-1)%2] = upDone
			if upDone > lastFinish {
				lastFinish = upDone
			}
		}
	}
	serial := bReady + bd.H2D + bd.D2H + bd.Compute - g.H2DTime(float64(inv.Cols)*bb)
	// lastFinish is the perfectly pipelined makespan; degrade it toward the
	// serial schedule according to the device's achievable overlap.
	bd.Makespan = blend(lastFinish, serial, g.CopyComputeOverlap)
	return bd, nil
}

// blend interpolates between the ideal pipelined makespan and the fully
// serial one: overlap=1 achieves the ideal, overlap=0 the serial schedule.
func blend(ideal, serial, overlap float64) float64 {
	if serial < ideal {
		serial = ideal
	}
	return ideal + (1-overlap)*(serial-ideal)
}

// ScheduleV3 computes the version-3 kernel time while recording the ideal
// pipelined engine schedule (before the overlap-quality blending) into tl —
// the timeline of the paper's Figure 4(b).
func ScheduleV3(inv Invocation, tl *sim.Timeline) (Breakdown, error) {
	if err := inv.validate(); err != nil {
		return Breakdown{}, err
	}
	return timeV3Traced(inv, tl)
}
