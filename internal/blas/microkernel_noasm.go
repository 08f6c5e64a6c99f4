//go:build !amd64 || noasm

package blas

// microKernel6x16AVX2 falls back to the generic kernel on non-amd64
// targets. It is only reachable through an explicit 6x16 Config (the
// defaults do not select it without hasAVX2FMA).
func microKernel6x16AVX2(kc int, a, b, c []float32, ldc int) {
	microKernelGeneric(6, 16, kc, a, b, c, ldc)
}

// microKernel8x32AVX512 falls back to the generic kernel on non-amd64
// targets; reachable only through an explicit 8x32 Config.
func microKernel8x32AVX512(kc int, a, b, c []float32, ldc int) {
	microKernelGeneric(8, 32, kc, a, b, c, ldc)
}

// The store variants are unreachable without the assembly kernels
// (storeKernelFor only proposes them when the CPU flags are set), but keep
// correct fallbacks so explicit calls behave.
func microKernel6x16AVX2St(kc int, a, b, c []float32, ldc int) {
	microKernelGenericSt(6, 16, kc, a, b, c, ldc)
}

func microKernel8x32AVX512St(kc int, a, b, c []float32, ldc int) {
	microKernelGenericSt(8, 32, kc, a, b, c, ldc)
}
