package blas

import (
	"fmt"
	"testing"

	"fpmpart/internal/matrix"
)

// benchGemm times one GEMM implementation at n×n×n, reporting flops/s in
// the MB/s column (SetBytes with the flop count).
func benchGemm(b *testing.B, n int, f func(a, bm, c *matrix.Dense) error) {
	a := randMat(n, n, 1)
	bm := randMat(n, n, 2)
	c := matrix.MustNew(n, n)
	b.ReportAllocs()
	b.SetBytes(2 * int64(n) * int64(n) * int64(n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f(a, bm, c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGemmBlocked1024 is the seed kernel baseline at n=1024,
// single-threaded: the number the packed kernel's >=3x target is measured
// against.
func BenchmarkGemmBlocked1024(b *testing.B) {
	benchGemm(b, 1024, func(a, bm, c *matrix.Dense) error {
		return GemmBlocked(1, a, bm, 0, c, 0)
	})
}

// BenchmarkGemmPacked1024 is the packed register-blocked kernel at n=1024,
// single-threaded, with the default configuration.
func BenchmarkGemmPacked1024(b *testing.B) {
	benchGemm(b, 1024, func(a, bm, c *matrix.Dense) error {
		return GemmPacked(1, a, bm, 0, c, DefaultConfig, 1)
	})
}

// BenchmarkGemmMicroKernels compares the unrolled register tiles head to
// head at n=512 under identical cache blocking, isolating the register-tile
// choice the shape-class defaults make.
func BenchmarkGemmMicroKernels(b *testing.B) {
	for _, rt := range [][2]int{{4, 4}, {6, 4}, {8, 4}, {4, 8}, {8, 8}} {
		mr, nr := rt[0], rt[1]
		cfg := Config{MC: 128 - 128%mr, KC: 256, NC: 2048, MR: mr, NR: nr}
		b.Run(fmt.Sprintf("r%dx%d", mr, nr), func(b *testing.B) {
			benchGemm(b, 512, func(a, bm, c *matrix.Dense) error {
				return GemmPacked(1, a, bm, 0, c, cfg, 1)
			})
		})
	}
}

// BenchmarkGemmPack isolates the packing cost (a no-compute configuration
// is impossible, so this packs the same panels packA/packB see in a n=512
// GEMM).
func BenchmarkGemmPack(b *testing.B) {
	const n = 512
	a := randMat(n, n, 1)
	dst := make([]float32, 128*256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		packA(dst, a, 1, 0, 0, 128, 256, 8)
	}
}
