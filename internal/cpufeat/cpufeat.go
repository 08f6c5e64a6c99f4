// Package cpufeat answers, once at start-up, which SIMD extensions both the
// CPU and the OS support. It is a leaf package so that every package with
// assembly kernels (blas for GEMM, matrix for the operand fill) gates them on
// the same probe.
package cpufeat

// AVX2FMA reports whether the CPU and OS support AVX2+FMA kernels: FMA and
// AVX2 present, and the OS saves XMM/YMM state.
var AVX2FMA = detectAVX2FMA()

// AVX512 reports whether the CPU and OS support AVX-512 kernels: the
// F/DQ/BW/VL subsets, and the OS saves opmask and ZMM state. Detection is
// strictly stronger than AVX2FMA's, so AVX512 implies AVX2FMA.
var AVX512 = AVX2FMA && detectAVX512()
