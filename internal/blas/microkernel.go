package blas

import "fpmpart/internal/cpufeat"

// hasAVX2FMA gates the 6×16 AVX2+FMA tile and the 8×8 transpose pack;
// hasAVX512 gates the 8×32 AVX-512 tile. Both are false off amd64 and under
// the noasm build tag, where the scalar unrolled kernels are used.
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
// The unrolled variants below are the (mr, nr) tiles a Config can name;
// microKernelGeneric handles any other tile shape (and is the reference the
// unrolled kernels are tested against).

// microKernel is the signature shared by all register-tile kernels. c is a
// slice whose element 0 is C[0,0] of the tile; rows are ldc apart.
type microKernel func(kc int, a, b, c []float32, ldc int)

// kernelFor returns the unrolled micro-kernel for (mr, nr), or the generic
// fallback closure when no unrolled implementation exists.
func kernelFor(mr, nr int) microKernel {
	switch {
	case mr == 4 && nr == 4:
		return microKernel4x4
	case mr == 8 && nr == 4:
		return microKernel8x4
	case mr == 4 && nr == 8:
		return microKernel4x8
	case mr == 8 && nr == 8:
		return microKernel8x8
	case mr == 6 && nr == 4:
		return microKernel6x4
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

func microKernel4x4(kc int, a, b, c []float32, ldc int) {
	var (
		c00, c01, c02, c03 float32
		c10, c11, c12, c13 float32
		c20, c21, c22, c23 float32
		c30, c31, c32, c33 float32
	)
	for p := 0; p < kc; p++ {
		a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
		b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
		a = a[4:]
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
}

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

func microKernel4x8(kc int, a, b, c []float32, ldc int) {
	var (
		c00, c01, c02, c03, c04, c05, c06, c07 float32
		c10, c11, c12, c13, c14, c15, c16, c17 float32
		c20, c21, c22, c23, c24, c25, c26, c27 float32
		c30, c31, c32, c33, c34, c35, c36, c37 float32
	)
	for p := 0; p < kc; p++ {
		a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
		b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
		b4, b5, b6, b7 := b[4], b[5], b[6], b[7]
		c04 += a0 * b4
		c05 += a0 * b5
		c06 += a0 * b6
		c07 += a0 * b7
		c14 += a1 * b4
		c15 += a1 * b5
		c16 += a1 * b6
		c17 += a1 * b7
		c24 += a2 * b4
		c25 += a2 * b5
		c26 += a2 * b6
		c27 += a2 * b7
		c34 += a3 * b4
		c35 += a3 * b5
		c36 += a3 * b6
		c37 += a3 * b7
		a = a[4:]
		b = b[8:]
	}
	r := c[0*ldc : 0*ldc+8]
	r[0] += c00
	r[1] += c01
	r[2] += c02
	r[3] += c03
	r[4] += c04
	r[5] += c05
	r[6] += c06
	r[7] += c07
	r = c[1*ldc : 1*ldc+8]
	r[0] += c10
	r[1] += c11
	r[2] += c12
	r[3] += c13
	r[4] += c14
	r[5] += c15
	r[6] += c16
	r[7] += c17
	r = c[2*ldc : 2*ldc+8]
	r[0] += c20
	r[1] += c21
	r[2] += c22
	r[3] += c23
	r[4] += c24
	r[5] += c25
	r[6] += c26
	r[7] += c27
	r = c[3*ldc : 3*ldc+8]
	r[0] += c30
	r[1] += c31
	r[2] += c32
	r[3] += c33
	r[4] += c34
	r[5] += c35
	r[6] += c36
	r[7] += c37
}

func microKernel6x4(kc int, a, b, c []float32, ldc int) {
	var (
		c00, c01, c02, c03 float32
		c10, c11, c12, c13 float32
		c20, c21, c22, c23 float32
		c30, c31, c32, c33 float32
		c40, c41, c42, c43 float32
		c50, c51, c52, c53 float32
	)
	for p := 0; p < kc; p++ {
		b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
		a0, a1, a2 := a[0], a[1], a[2]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		a3, a4, a5 := a[3], a[4], a[5]
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
		c40 += a4 * b0
		c41 += a4 * b1
		c42 += a4 * b2
		c43 += a4 * b3
		c50 += a5 * b0
		c51 += a5 * b1
		c52 += a5 * b2
		c53 += a5 * b3
		a = a[6:]
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
}

func microKernel8x8(kc int, a, b, c []float32, ldc int) {
	// 64 accumulators spill on most targets, but the doubled arithmetic per
	// packed load can still win on cores with fast L1.
	var acc [64]float32
	for p := 0; p < kc; p++ {
		ap := a[:8]
		bp := b[:8]
		for i := 0; i < 8; i++ {
			ai := ap[i]
			row := acc[i*8 : i*8+8]
			row[0] += ai * bp[0]
			row[1] += ai * bp[1]
			row[2] += ai * bp[2]
			row[3] += ai * bp[3]
			row[4] += ai * bp[4]
			row[5] += ai * bp[5]
			row[6] += ai * bp[6]
			row[7] += ai * bp[7]
		}
		a = a[8:]
		b = b[8:]
	}
	for i := 0; i < 8; i++ {
		crow := c[i*ldc : i*ldc+8]
		arow := acc[i*8 : i*8+8]
		for j := 0; j < 8; j++ {
			crow[j] += arow[j]
		}
	}
}
