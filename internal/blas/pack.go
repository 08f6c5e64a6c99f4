package blas

import (
	"fmt"
	"sync"

	"fpmpart/internal/matrix"
)

// Packing, BLIS-style. Before the micro-kernel runs, operand blocks are
// copied into contiguous buffers laid out exactly in the order the kernel
// consumes them, so the innermost loops see unit-stride streams regardless
// of the source matrices' strides (views included):
//
//   - An mc×kc block of A becomes ceil(mc/mr) row-panels. Panel r stores,
//     for each depth p = 0..kc-1, the mr values A[r*mr .. r*mr+mr-1, p],
//     i.e. a kc×mr column-major micro-panel. alpha is folded in here, once,
//     so the micro-kernel is a pure C += Ā·B̄ update.
//   - A kc×nc block of B becomes ceil(nc/nr) column-panels. Panel s stores,
//     for each p, the nr values B[p, s*nr .. s*nr+nr-1] (kc×nr row-major).
//
// Fringe panels (block edge not a multiple of mr/nr) are zero-padded to
// full width, so every micro-kernel invocation runs the full register tile;
// the padded rows/columns produce zeros that are simply never written back.
//
// A seeded operand's blocks are generated into this layout instead of
// copied (operand, below), with the same bytes a Dense holding the window
// would give.
//
// Buffers come from a sync.Pool, so steady-state GEMM does not allocate:
// one B buffer per (jc, pc) block and one A buffer per worker are in flight
// at any time and return to the pool when the call finishes.

// panelPool recycles packing buffers across GEMM calls. Entries are
// *[]float32 (pointer to avoid allocating a slice header per Put).
var panelPool = sync.Pool{New: func() any { return new([]float32) }}

// getPanelBuf returns a pooled buffer with at least n usable elements.
func getPanelBuf(n int) *[]float32 {
	bp := panelPool.Get().(*[]float32)
	if cap(*bp) < n {
		*bp = make([]float32, n)
	}
	*bp = (*bp)[:n]
	return bp
}

// putPanelBuf returns a buffer to the pool.
func putPanelBuf(bp *[]float32) { panelPool.Put(bp) }

// operand is a GEMM input as the packers read it: a Dense's elements in
// place (data, stride), or, when seeded, a matrix.Seeded window generated
// block by block as it is packed. Only the Dense's slice is kept, not the
// *Dense, so a Seeded passed through the matrix.Operand interface does not
// escape to the heap.
type operand struct {
	data   []float32
	stride int
	win    matrix.Seeded
	seeded bool
}

// operandOf unpacks x for the packers and returns its shape.
func operandOf(x matrix.Operand) (op operand, rows, cols int, err error) {
	switch x := x.(type) {
	case *matrix.Dense:
		if x != nil {
			return operand{data: x.Data, stride: x.Stride}, x.Rows, x.Cols, nil
		}
	case matrix.Seeded:
		if x.Rows <= 0 || x.Cols <= 0 || x.Row0 < 0 || x.Col0 < 0 || x.Cols > x.Width-x.Col0 {
			return operand{}, 0, 0, fmt.Errorf("blas: invalid seeded window %dx%d at (%d,%d) of a %d-column matrix",
				x.Rows, x.Cols, x.Row0, x.Col0, x.Width)
		}
		return operand{win: x, seeded: true}, x.Rows, x.Cols, nil
	}
	return operand{}, 0, 0, fmt.Errorf("blas: nil operand")
}

// packABlock packs the mrows×kcols block of a at (i0, p0), scaled by alpha,
// into dst as packA does. A seeded block is generated one mr-row strip at a
// time into strip (at least mr·kcols elements), which packA then transposes.
func packABlock(dst, strip []float32, a operand, alpha float32, i0, p0, mrows, kcols, mr int) {
	if !a.seeded {
		packA(dst, a.data, a.stride, alpha, i0, p0, mrows, kcols, mr)
		return
	}
	for r := 0; r < mrows; r += mr {
		h := min(mr, mrows-r)
		for i := 0; i < h; i++ {
			a.win.FillRow(strip[i*kcols:(i+1)*kcols], i0+r+i, p0)
		}
		packA(dst[r*kcols:], strip, kcols, alpha, 0, 0, h, kcols, mr)
	}
}

// packA packs the mrows×kcols block with top-left corner (i0, p0) of the
// row-major src (rows stride elements apart), scaled by alpha, into dst as
// zero-padded kcols×mr micro-panels. dst must hold at least
// ceilDiv(mrows, mr)*kcols*mr elements.
func packA(dst, src []float32, stride int, alpha float32, i0, p0, mrows, kcols, mr int) {
	idx := 0
	for r := 0; r < mrows; r += mr {
		h := min(mr, mrows-r)
		base := (i0+r)*stride + p0
		// Full 8-row panels go through the SIMD 8×8 transpose kernel:
		// scalar packing is strided stores plus a bounds check per
		// element and was measured at ~7x the cost of the register
		// transpose on small shapes. (The 6-row panel of the AVX2 tile
		// has no such kernel.)
		if h == 8 && mr == 8 && hasAVX2FMA {
			nb := kcols / 8
			if nb > 0 {
				packA8x8(dst[idx:idx+nb*64], src[base:], stride, nb, alpha)
			}
			for p := nb * 8; p < kcols; p++ {
				d := idx + p*8
				for i := 0; i < 8; i++ {
					dst[d+i] = alpha * src[base+i*stride+p]
				}
			}
			idx += kcols * 8
			continue
		}
		// Traverse row-major: each source row of A is read as one
		// contiguous stream (the panel being written is a few KiB and
		// stays in L1, so the strided writes are cheap), instead of
		// walking columns of A one element per cache line.
		for i := 0; i < h; i++ {
			row := src[base+i*stride : base+i*stride+kcols]
			d := idx + i
			for p, v := range row {
				dst[d+p*mr] = alpha * v
			}
		}
		for i := h; i < mr; i++ {
			d := idx + i
			for p := 0; p < kcols; p++ {
				dst[d+p*mr] = 0
			}
		}
		idx += kcols * mr
	}
}

// packB packs the kcols×ncols block of b with top-left corner (p0, j0) into
// dst as zero-padded kcols×nr micro-panels. dst must hold at least
// ceilDiv(ncols, nr)*kcols*nr elements.
func packB(dst []float32, b operand, p0, j0, kcols, ncols, nr int) {
	packBPanels(dst, b, p0, j0, kcols, ncols, nr, 0, ceilDiv(ncols, nr))
}

// packBPanels packs the column-panel range [s0, s1) (in units of nr-wide
// panels) of the same B block as packB; used to split one B pack across
// workers. A seeded B is generated row by row straight into the panel rows.
func packBPanels(dst []float32, b operand, p0, j0, kcols, ncols, nr, s0, s1 int) {
	for s := s0; s < s1; s++ {
		j := s * nr
		w := min(nr, ncols-j)
		idx := s * kcols * nr
		for p := 0; p < kcols; p++ {
			if b.seeded {
				b.win.FillRow(dst[idx:idx+w], p0+p, j0+j)
			} else {
				src := (p0+p)*b.stride + j0 + j
				copy(dst[idx:idx+w], b.data[src:src+w])
			}
			for q := w; q < nr; q++ {
				dst[idx+q] = 0
			}
			idx += nr
		}
	}
}

// ceilDiv returns ceil(a/b) for positive operands.
func ceilDiv(a, b int) int { return (a + b - 1) / b }
