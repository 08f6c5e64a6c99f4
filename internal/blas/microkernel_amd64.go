//go:build amd64 && !noasm

package blas

// microKernel6x16AVX2 is the AVX2+FMA register tile: 6 rows × 16 columns
// of C held in 12 YMM accumulators, with two YMM loads of the packed B
// micro-panel and six broadcasts of the packed A micro-panel per depth
// step (12 fused multiply-adds = 192 flops per iteration). Implemented in
// gemm_amd64.s; only called when hasAVX2FMA is true.
func microKernel6x16AVX2(kc int, a, b, c []float32, ldc int)

// microKernel8x32AVX512 is the AVX-512 register tile: 8 rows × 32 columns
// of C held in 16 ZMM accumulators, with two ZMM loads of the packed B
// micro-panel and eight broadcasts of the packed A micro-panel per depth
// step (16 fused multiply-adds = 512 flops per iteration). Implemented in
// gemm_amd64.s; only called when hasAVX512 is true.
func microKernel8x32AVX512(kc int, a, b, c []float32, ldc int)

// microKernel6x16AVX2St and microKernel8x32AVX512St are the store variants
// of the two assembly tiles: the same k-loop, but the writeback overwrites
// C instead of accumulating. Selected by storeKernelFor for the first
// k-block when beta == 0, where C may be written without being read.
func microKernel6x16AVX2St(kc int, a, b, c []float32, ldc int)

func microKernel8x32AVX512St(kc int, a, b, c []float32, ldc int)
