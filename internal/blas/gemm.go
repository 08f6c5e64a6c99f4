// Package blas implements the single-precision GEMM kernel in pure Go for
// the real (non-simulated) execution path, standing in for the vendor BLAS
// libraries (ACML, CUBLAS) the paper uses. Three implementations are kept:
//
//   - GemmNaive: the reference triple loop the others are validated against.
//   - GemmBlocked: the original single-level cache-tiled loop, retained as
//     the seed baseline for benchmarks and as a second reference.
//   - GemmPacked (used by Gemm and GemmParallel): a BLIS-style blocked
//     algorithm — operands are packed into contiguous panels (pack.go),
//     driven through a register-blocked mr×nr micro-kernel
//     (microkernel.go), with cache/register tile sizes fixed per CPU
//     feature set (tune.go: DefaultConfig).
//
// Scaling semantics follow BLAS: beta == 0 overwrites C without reading it
// (NaN/Inf already in C do not propagate), and alpha == 0 skips the product
// entirely. For alpha != 0, NaN/Inf in A and B propagate into C exactly as
// in the reference loop.
package blas

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"fpmpart/internal/matrix"
)

// Gemm computes C = alpha·A·B + beta·C using the packed kernel with
// DefaultConfig and all available cores.
func Gemm(alpha float32, a, b *matrix.Dense, beta float32, c *matrix.Dense) error {
	return GemmPacked(alpha, a, b, beta, c, DefaultConfig, 0)
}

// GemmParallel computes C = alpha·A·B + beta·C on the packed kernel with
// workers goroutines (0 = GOMAXPROCS). Work is partitioned tile-aligned
// over the packed panels: workers pull mc-row blocks of C from a shared
// queue, so every partition boundary coincides with a packing-panel
// boundary and the result is bit-identical at any worker count.
func GemmParallel(alpha float32, a, b *matrix.Dense, beta float32, c *matrix.Dense, workers int) error {
	return GemmPacked(alpha, a, b, beta, c, DefaultConfig, workers)
}

func checkShapes(a, b, c *matrix.Dense) error {
	if a == nil || b == nil || c == nil {
		return fmt.Errorf("blas: nil operand")
	}
	if a.Cols != b.Rows {
		return fmt.Errorf("blas: inner dimensions %d and %d differ", a.Cols, b.Rows)
	}
	if c.Rows != a.Rows || c.Cols != b.Cols {
		return fmt.Errorf("blas: C is %dx%d, want %dx%d", c.Rows, c.Cols, a.Rows, b.Cols)
	}
	return nil
}

// GemmNaive is the reference triple loop, used to validate the optimised
// implementations.
func GemmNaive(alpha float32, a, b *matrix.Dense, beta float32, c *matrix.Dense) error {
	if err := checkShapes(a, b, c); err != nil {
		return err
	}
	for i := 0; i < c.Rows; i++ {
		for j := 0; j < c.Cols; j++ {
			var sum float32
			for k := 0; k < a.Cols; k++ {
				sum += a.At(i, k) * b.At(k, j)
			}
			if beta == 0 {
				c.Set(i, j, alpha*sum)
			} else {
				c.Set(i, j, alpha*sum+beta*c.At(i, j))
			}
		}
	}
	return nil
}

// DefaultTile is the cache tile used by GemmBlocked when none is specified.
const DefaultTile = 64

// GemmBlocked computes C = alpha·A·B + beta·C with i-k-j loop order and
// square tiling for cache locality. tile <= 0 selects DefaultTile. This is
// the seed kernel, kept as the baseline the packed kernel is measured
// against.
func GemmBlocked(alpha float32, a, b *matrix.Dense, beta float32, c *matrix.Dense, tile int) error {
	if err := checkShapes(a, b, c); err != nil {
		return err
	}
	if tile <= 0 {
		tile = DefaultTile
	}
	gemmBlockedRange(alpha, a, b, beta, c, 0, c.Rows, tile)
	return nil
}

// gemmBlockedRange updates rows [i0, i1) of C.
func gemmBlockedRange(alpha float32, a, b *matrix.Dense, beta float32, c *matrix.Dense, i0, i1, tile int) {
	m, n, kk := i1, c.Cols, a.Cols
	applyBetaRange(beta, c, i0, i1)
	for it := i0; it < m; it += tile {
		iMax := min(it+tile, m)
		for kt := 0; kt < kk; kt += tile {
			kMax := min(kt+tile, kk)
			for jt := 0; jt < n; jt += tile {
				jMax := min(jt+tile, n)
				for i := it; i < iMax; i++ {
					crow := c.Data[i*c.Stride:]
					arow := a.Data[i*a.Stride:]
					for k := kt; k < kMax; k++ {
						// No zero fast path: skipping aik == 0 would also
						// skip NaN/Inf in B that the reference loop
						// propagates.
						aik := alpha * arow[k]
						brow := b.Data[k*b.Stride:]
						for j := jt; j < jMax; j++ {
							crow[j] += aik * brow[j]
						}
					}
				}
			}
		}
	}
}

// applyBetaRange scales rows [i0, i1) of C by beta (beta == 0 overwrites
// with zeros, BLAS-style; beta == 1 is a no-op).
func applyBetaRange(beta float32, c *matrix.Dense, i0, i1 int) {
	if beta == 1 {
		return
	}
	n := c.Cols
	for i := i0; i < i1; i++ {
		row := c.Data[i*c.Stride : i*c.Stride+n]
		if beta == 0 {
			for j := range row {
				row[j] = 0
			}
		} else {
			for j := range row {
				row[j] *= beta
			}
		}
	}
}

// GemmPacked computes C = alpha·A·B + beta·C with the packed,
// register-blocked algorithm under an explicit blocking configuration.
// workers <= 0 selects GOMAXPROCS. All operands may be strided views.
//
// The loop nest is the standard five-loop BLIS structure: for each kc×nc
// block of B (packed once, reused across the whole M dimension) and each
// mc×kc block of A (packed per worker), the macro-kernel sweeps mr×nr
// register tiles of C. alpha is folded into the packed A panels. When
// beta == 0 and the tile has a store kernel, the first k-block (pc == 0)
// overwrites C without reading it and the later blocks accumulate onto it;
// otherwise beta is applied to C in one pre-pass.
func GemmPacked(alpha float32, a, b *matrix.Dense, beta float32, c *matrix.Dense, cfg Config, workers int) error {
	if err := checkShapes(a, b, c); err != nil {
		return err
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	m, n, k := c.Rows, c.Cols, a.Cols

	if alpha == 0 {
		applyBetaRange(beta, c, 0, m)
		return nil
	}

	mr, nr := cfg.MR, cfg.NR
	kern := kernelFor(mr, nr)
	// beta == 0: the first k-block overwrites C through the store-writeback
	// kernel, so the zeroing pre-pass and its readback are skipped. The
	// bytes equal the accumulate path's on a zeroed C: the kernels sum from
	// a +0 accumulator, which never yields −0, so 0 + acc == acc exactly.
	var stKern microKernel
	if beta == 0 && k > 0 {
		if st, ok := storeKernelFor(mr, nr); ok {
			stKern = st
		}
	}
	if stKern == nil {
		applyBetaRange(beta, c, 0, m)
	}
	// Clamp the cache blocks to the problem, keeping mc/nc multiples of the
	// register tile so panel indexing stays aligned.
	kc := min(cfg.KC, k)
	mc := min(cfg.MC, ceilDiv(m, mr)*mr)
	nc := min(cfg.NC, ceilDiv(n, nr)*nr)

	bbufP := getPanelBuf(ceilDiv(nc, nr) * nr * kc)
	defer putPanelBuf(bbufP)
	bbuf := *bbufP

	nBlocksM := ceilDiv(m, mc)
	if workers > nBlocksM {
		workers = nBlocksM
	}

	for jc := 0; jc < n; jc += nc {
		ncLen := min(nc, n-jc)
		for pc := 0; pc < k; pc += kc {
			kcLen := min(kc, k-pc)
			st := stKern // the store kernel writes only the first k-block
			if pc > 0 {
				st = nil
			}

			if workers > 1 {
				packBParallel(bbuf, b, pc, jc, kcLen, ncLen, nr, workers)
			} else {
				packB(bbuf, b, pc, jc, kcLen, ncLen, nr)
			}

			if workers <= 1 {
				gemmWorker(kern, st, alpha, a, bbuf, c, 0, nBlocksM, nil,
					jc, pc, mc, kcLen, ncLen, mr, nr)
				continue
			}
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					gemmWorker(kern, st, alpha, a, bbuf, c, 0, nBlocksM, &next,
						jc, pc, mc, kcLen, ncLen, mr, nr)
				}()
			}
			wg.Wait()
		}
	}
	return nil
}

// gemmWorker processes mc-row blocks of C for one (jc, pc) step. With a
// non-nil queue it pulls block indices from the shared atomic counter
// (tile-aligned work stealing); otherwise it sweeps [blk0, blkN)
// sequentially. Each worker packs its own A block into a pooled buffer.
func gemmWorker(kern, stKern microKernel, alpha float32, a *matrix.Dense, bbuf []float32, c *matrix.Dense,
	blk0, blkN int, queue *atomic.Int64,
	jc, pc, mc, kcLen, ncLen, mr, nr int) {

	m := c.Rows
	abufP := getPanelBuf(ceilDiv(mc, mr) * mr * kcLen)
	defer putPanelBuf(abufP)
	abuf := *abufP

	for {
		var blk int
		if queue != nil {
			blk = int(queue.Add(1)) - 1
		} else {
			blk = blk0
			blk0++
		}
		if blk >= blkN {
			return
		}
		ic := blk * mc
		mcLen := min(mc, m-ic)

		packA(abuf, a, alpha, ic, pc, mcLen, kcLen, mr)
		macroKernel(kern, stKern, abuf, bbuf, c, ic, jc, mcLen, ncLen, kcLen, mr, nr)
	}
}

// packBParallel splits one B-block pack across workers by nr-panel ranges.
func packBParallel(dst []float32, b *matrix.Dense, p0, j0, kcols, ncols, nr, workers int) {
	panels := ceilDiv(ncols, nr)
	if workers > panels {
		workers = panels
	}
	per := ceilDiv(panels, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		s0 := w * per
		s1 := min(s0+per, panels)
		if s0 >= s1 {
			break
		}
		wg.Add(1)
		go func(s0, s1 int) {
			defer wg.Done()
			packBPanels(dst, b, p0, j0, kcols, ncols, nr, s0, s1)
		}(s0, s1)
	}
	wg.Wait()
}

// macroKernel sweeps the register tiles of one (mcLen × ncLen) C block:
// for each packed kc×nr B micro-panel (held in L1 across the sweep) it
// streams every packed A micro-panel through the micro-kernel. Full tiles
// update C in place; fringe tiles stage through a zeroed stack buffer and
// write back only the valid h×w region.
//
// A non-nil stKern selects store mode (beta == 0, first k-block): full
// tiles are overwritten via stKern without reading C, fringe tiles are
// staged and copied rather than added.
func macroKernel(kern, stKern microKernel, abuf, bbuf []float32, c *matrix.Dense,
	i0, j0, mcLen, ncLen, kcLen, mr, nr int) {
	for jr := 0; jr < ncLen; jr += nr {
		w := min(nr, ncLen-jr)
		bpan := bbuf[(jr/nr)*kcLen*nr:]
		for ir := 0; ir < mcLen; ir += mr {
			h := min(mr, mcLen-ir)
			apan := abuf[(ir/mr)*kcLen*mr:]
			if h == mr && w == nr {
				cb := c.Data[(i0+ir)*c.Stride+j0+jr:]
				if stKern != nil {
					stKern(kcLen, apan, bpan, cb, c.Stride)
				} else {
					kern(kcLen, apan, bpan, cb, c.Stride)
				}
				continue
			}
			var tmp [maxMR * maxNR]float32
			kern(kcLen, apan, bpan, tmp[:], nr)
			for i := 0; i < h; i++ {
				crow := c.Data[(i0+ir+i)*c.Stride+j0+jr:]
				trow := tmp[i*nr:]
				if stKern != nil {
					copy(crow[:w], trow[:w])
					continue
				}
				for j := 0; j < w; j++ {
					crow[j] += trow[j]
				}
			}
		}
	}
}
