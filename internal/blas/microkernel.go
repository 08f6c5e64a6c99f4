package blas

import "fpmpart/internal/cpufeat"

// hasAVX2FMA gates the 6×16 AVX2+FMA tile and the 8×8 transpose pack;
// hasAVX512 gates the 8×32 AVX-512 tile. Both are false off amd64 and under
// the noasm build tag, where the scalar unrolled 8×4 kernel is used.
var (
	hasAVX2FMA = cpufeat.AVX2FMA
	hasAVX512  = cpufeat.AVX512
)

// Register-blocked micro-kernels. Each computes the rank-kc update
//
//	C[0:mr, 0:nr] += Ā · B̄
//
// where Ā is a packed kc×mr micro-panel (see packA) and B̄ a packed kc×nr
// micro-panel (see packB). The mr×nr accumulators are scalar locals the
// compiler keeps in registers (modulo spills for the larger tiles), so the
// k-loop touches no C memory at all: per depth step it loads mr+nr packed
// values and performs mr·nr multiply-adds. C is written back once, through
// ldc-strided rows.
//
// Each tile DefaultConfig picks has its own kernel: 8×32 with AVX-512, 6×16
// with AVX2+FMA and the scalar unrolled 8×4 otherwise. microKernelGeneric
// serves any other tile an explicit Config names, and is the reference the
// dedicated kernels are tested against.

// microKernel is the signature shared by all register-tile kernels. c is a
// slice whose element 0 is C[0,0] of the tile; rows are ldc apart.
type microKernel func(kc int, a, b, c []float32, ldc int)

// kernelFor returns the dedicated micro-kernel for (mr, nr), or the generic
// fallback closure when the tile has none.
func kernelFor(mr, nr int) microKernel {
	switch {
	case mr == 8 && nr == 4:
		return microKernel8x4
	case mr == 6 && nr == 16 && hasAVX2FMA:
		return microKernel6x16AVX2
	case mr == 8 && nr == 32 && hasAVX512:
		return microKernel8x32AVX512
	}
	return func(kc int, a, b, c []float32, ldc int) {
		microKernelGeneric(mr, nr, kc, a, b, c, ldc)
	}
}

// storeKernelFor returns the store-writeback variant of the (mr, nr)
// kernel, if one is implemented. Store kernels overwrite the C tile
// instead of accumulating, so the beta == 0 fast path can skip both the
// zeroing pre-pass and the C reads in the writeback; GemmPacked runs them
// on the first k-block only, and the accumulate kernels on the later ones.
func storeKernelFor(mr, nr int) (microKernel, bool) {
	switch {
	case mr == 6 && nr == 16 && hasAVX2FMA:
		return microKernel6x16AVX2St, true
	case mr == 8 && nr == 32 && hasAVX512:
		return microKernel8x32AVX512St, true
	}
	return nil, false
}

// microKernelGeneric is the tile-shape-agnostic fallback: same contract as
// the unrolled kernels, accumulators in a small stack array.
func microKernelGeneric(mr, nr, kc int, a, b, c []float32, ldc int) {
	var acc [maxMR * maxNR]float32
	for p := 0; p < kc; p++ {
		ap := a[p*mr : p*mr+mr]
		bp := b[p*nr : p*nr+nr]
		for i := 0; i < mr; i++ {
			ai := ap[i]
			row := acc[i*nr : i*nr+nr]
			for j := 0; j < nr; j++ {
				row[j] += ai * bp[j]
			}
		}
	}
	for i := 0; i < mr; i++ {
		crow := c[i*ldc : i*ldc+nr]
		arow := acc[i*nr : i*nr+nr]
		for j := 0; j < nr; j++ {
			crow[j] += arow[j]
		}
	}
}

// microKernelGenericSt is the store-writeback twin of microKernelGeneric,
// the reference the assembly store kernels are tested against.
func microKernelGenericSt(mr, nr, kc int, a, b, c []float32, ldc int) {
	var acc [maxMR * maxNR]float32
	for p := 0; p < kc; p++ {
		ap := a[p*mr : p*mr+mr]
		bp := b[p*nr : p*nr+nr]
		for i := 0; i < mr; i++ {
			ai := ap[i]
			row := acc[i*nr : i*nr+nr]
			for j := 0; j < nr; j++ {
				row[j] += ai * bp[j]
			}
		}
	}
	for i := 0; i < mr; i++ {
		crow := c[i*ldc : i*ldc+nr]
		arow := acc[i*nr : i*nr+nr]
		for j := 0; j < nr; j++ {
			crow[j] = arow[j]
		}
	}
}

// maxMR and maxNR bound the register-tile search space; fringe tiles are
// staged through a [maxMR*maxNR] stack buffer. nr up to 32 covers the
// two-ZMM-wide AVX-512 tile (and 16 the two-YMM-wide AVX2 tile).
const (
	maxMR = 8
	maxNR = 32
)

func microKernel8x4(kc int, a, b, c []float32, ldc int) {
	var (
		c00, c01, c02, c03 float32
		c10, c11, c12, c13 float32
		c20, c21, c22, c23 float32
		c30, c31, c32, c33 float32
		c40, c41, c42, c43 float32
		c50, c51, c52, c53 float32
		c60, c61, c62, c63 float32
		c70, c71, c72, c73 float32
	)
	for p := 0; p < kc; p++ {
		b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
		a0, a1 := a[0], a[1]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		a2, a3 := a[2], a[3]
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
		a4, a5 := a[4], a[5]
		c40 += a4 * b0
		c41 += a4 * b1
		c42 += a4 * b2
		c43 += a4 * b3
		c50 += a5 * b0
		c51 += a5 * b1
		c52 += a5 * b2
		c53 += a5 * b3
		a6, a7 := a[6], a[7]
		c60 += a6 * b0
		c61 += a6 * b1
		c62 += a6 * b2
		c63 += a6 * b3
		c70 += a7 * b0
		c71 += a7 * b1
		c72 += a7 * b2
		c73 += a7 * b3
		a = a[8:]
		b = b[4:]
	}
	r := c[0*ldc : 0*ldc+4]
	r[0] += c00
	r[1] += c01
	r[2] += c02
	r[3] += c03
	r = c[1*ldc : 1*ldc+4]
	r[0] += c10
	r[1] += c11
	r[2] += c12
	r[3] += c13
	r = c[2*ldc : 2*ldc+4]
	r[0] += c20
	r[1] += c21
	r[2] += c22
	r[3] += c23
	r = c[3*ldc : 3*ldc+4]
	r[0] += c30
	r[1] += c31
	r[2] += c32
	r[3] += c33
	r = c[4*ldc : 4*ldc+4]
	r[0] += c40
	r[1] += c41
	r[2] += c42
	r[3] += c43
	r = c[5*ldc : 5*ldc+4]
	r[0] += c50
	r[1] += c51
	r[2] += c52
	r[3] += c53
	r = c[6*ldc : 6*ldc+4]
	r[0] += c60
	r[1] += c61
	r[2] += c62
	r[3] += c63
	r = c[7*ldc : 7*ldc+4]
	r[0] += c70
	r[1] += c71
	r[2] += c72
	r[3] += c73
}
