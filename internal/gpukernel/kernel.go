// Package gpukernel models the three GPU implementations of the
// application's computational kernel described in Section V of the paper
// (Figure 3 and Figure 4). The kernel performs one rank-b update of the
// device's rectangle of matrix C: C += A(b) × B(b), where the rectangle is
// Rows×Cols blocks of b×b elements.
//
//	Version 1: A(b), B(b) and C live in host memory; every invocation
//	  transfers all three to the device and the updated C back.
//	Version 2: C stays resident in device memory, accumulating results;
//	  when the rectangle exceeds device memory, C is split into tiles
//	  updated serially (out-of-core), keeping the last two tiles resident
//	  between iterations and aligning tile dimensions to 32 elements.
//	Version 3: as version 2, but transfers and computation are overlapped
//	  using double-buffered tiles on the device's DMA engine(s); GPUs with
//	  two DMA engines additionally overlap host-to-device and
//	  device-to-host transfers.
//
// Times are produced by scheduling the transfer and compute tasks of each
// version on per-engine timelines (internal/sim), so pipeline effects — and
// their absence on single-DMA devices like the Tesla C870 — emerge from the
// schedule rather than from closed-form guesses.
package gpukernel

import (
	"fmt"
	"math"

	"fpmpart/internal/hw"
)

// Version selects a kernel implementation.
type Version int

// Kernel versions, in the paper's numbering.
const (
	V1 Version = 1 + iota // transfer everything, every invocation
	V2                    // device-resident C with serial out-of-core tiling
	V3                    // out-of-core tiling with copy/compute overlap
)

func (v Version) String() string {
	switch v {
	case V1:
		return "version1"
	case V2:
		return "version2"
	case V3:
		return "version3"
	default:
		return fmt.Sprintf("version%d", int(v))
	}
}

// Invocation describes one kernel call.
type Invocation struct {
	// GPU is the device model.
	GPU *hw.GPU
	// BlockSize is the application blocking factor b (elements).
	BlockSize int
	// ElemBytes is the element size (4 = single precision).
	ElemBytes int
	// Rows and Cols are the rectangle dimensions in blocks. The rectangle
	// area Rows*Cols is the problem size x of the device's speed function.
	Rows, Cols int
}

// Breakdown reports where the kernel's time went.
type Breakdown struct {
	// H2D, D2H and Compute are the summed task durations per engine.
	H2D, D2H, Compute float64
	// Makespan is the kernel's wall time.
	Makespan float64
	// Tiles is the number of out-of-core tiles (1 when in-memory).
	Tiles int
	// InMemory reports whether the whole rectangle was device-resident.
	InMemory bool
}

func (inv Invocation) validate() error {
	if inv.GPU == nil {
		return fmt.Errorf("gpukernel: nil GPU")
	}
	if err := inv.GPU.Validate(); err != nil {
		return err
	}
	if inv.BlockSize <= 0 || inv.ElemBytes <= 0 {
		return fmt.Errorf("gpukernel: block %d elem %d", inv.BlockSize, inv.ElemBytes)
	}
	if inv.Rows <= 0 || inv.Cols <= 0 {
		return fmt.Errorf("gpukernel: rectangle %dx%d", inv.Rows, inv.Cols)
	}
	return nil
}

// blockBytes returns bytes per b×b block.
func (inv Invocation) blockBytes() float64 {
	return hw.BlockBytes(inv.BlockSize, inv.ElemBytes)
}

// memBlocks returns device capacity in blocks.
func (inv Invocation) memBlocks() float64 {
	return math.Floor(inv.GPU.MemBytes / inv.blockBytes())
}

// aligned reports whether whole-block tiles have 32-element-aligned
// dimensions (true whenever b is a multiple of 32; versions 2 and 3 pad
// otherwise, version 1 does not).
func (inv Invocation) aligned() bool { return inv.BlockSize%32 == 0 }

// computeTime returns the device time for updating `area` blocks whose tile
// is rows×cols blocks. padded selects the aligned rate.
func (inv Invocation) computeTime(area float64, rows, cols int, padded bool) float64 {
	rowsE, colsE := rows*inv.BlockSize, cols*inv.BlockSize
	if padded && !inv.aligned() {
		// Versions 2/3 round dimensions up to multiples of 32; the rate is
		// the aligned one, the padded work is negligible for b >= 32.
		rowsE = 32 * ((rowsE + 31) / 32)
		colsE = 32 * ((colsE + 31) / 32)
	}
	rate := inv.GPU.Rate(rowsE, colsE)
	return area*hw.BlockFlops(inv.BlockSize)/rate + inv.GPU.KernelLaunch
}

// Time returns the wall time of one kernel invocation under the given
// version, with a breakdown of where it went.
func Time(v Version, inv Invocation) (Breakdown, error) {
	if err := inv.validate(); err != nil {
		return Breakdown{}, err
	}
	switch v {
	case V1:
		return timeV1(inv)
	case V2:
		return timeV2(inv)
	case V3:
		return timeV3(inv)
	}
	return Breakdown{}, fmt.Errorf("gpukernel: unknown version %d", int(v))
}

// Speed returns the kernel speed in flops/second at the invocation's
// problem size — one point of the device's functional performance model.
func Speed(v Version, inv Invocation) (float64, error) {
	bd, err := Time(v, inv)
	if err != nil {
		return 0, err
	}
	if bd.Makespan <= 0 {
		return 0, fmt.Errorf("gpukernel: non-positive makespan %v", bd.Makespan)
	}
	area := float64(inv.Rows) * float64(inv.Cols)
	return area * hw.BlockFlops(inv.BlockSize) / bd.Makespan, nil
}

// tileHeights returns the balanced tile heights (blocks) of an out-of-core
// split that keeps nBuffered copies of (C tile + A tile) plus the pivot row
// B on the device: the row count is divided into the minimum number of tiles
// that fit, with heights as equal as possible (real implementations balance
// tiles to avoid a degenerate trailing sliver).
func (inv Invocation) tileHeights(nBuffered int) ([]int, error) {
	capacity := inv.memBlocks()
	cols := float64(inv.Cols)
	// Each buffered tile set holds r·cols (C tile) + r (A tile); B holds
	// cols blocks once.
	per := float64(nBuffered) * (cols + 1)
	rmax := int(math.Floor((capacity - cols) / per))
	if rmax < 1 {
		return nil, fmt.Errorf("gpukernel: rectangle %dx%d too wide for %s memory (%v blocks)",
			inv.Rows, inv.Cols, inv.GPU.Name, capacity)
	}
	if rmax > inv.Rows {
		rmax = inv.Rows
	}
	count := (inv.Rows + rmax - 1) / rmax
	base, extra := inv.Rows/count, inv.Rows%count
	heights := make([]int, count)
	for i := range heights {
		heights[i] = base
		if i < extra {
			heights[i]++
		}
	}
	return heights, nil
}

// fitsResident reports whether C, A and B fit on the device together.
func (inv Invocation) fitsResident() bool {
	area := float64(inv.Rows) * float64(inv.Cols)
	need := area + float64(inv.Rows) + float64(inv.Cols)
	return need <= inv.memBlocks()
}
