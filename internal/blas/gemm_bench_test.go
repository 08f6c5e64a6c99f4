package blas

import (
	"fmt"
	"testing"

	"fpmpart/internal/matrix"
)

// benchGemm times one GEMM implementation at n×n×n, reporting flops/s in
// the MB/s column (SetBytes with the flop count).
func benchGemm(b *testing.B, n int, f func(a, bm, c *matrix.Dense) error) {
	benchGemmShape(b, n, n, n, f)
}

// benchGemmShape is benchGemm for an m×k by k×n product.
func benchGemmShape(b *testing.B, m, k, n int, f func(a, bm, c *matrix.Dense) error) {
	a := randMat(m, k, 1)
	bm := randMat(k, n, 2)
	c := matrix.MustNew(m, n)
	b.ReportAllocs()
	b.SetBytes(2 * int64(m) * int64(k) * int64(n))
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

// BenchmarkGemmMicroKernels compares the register tiles head to head at
// 512×1024×512 (four kc blocks deep) under identical cache blocking,
// isolating the register-tile choice DefaultConfig makes per ISA: the
// scalar tiles everywhere, 6x16 with AVX2+FMA and 8x32 with AVX-512.
func BenchmarkGemmMicroKernels(b *testing.B) {
	tiles := [][2]int{{4, 4}, {6, 4}, {8, 4}, {4, 8}, {8, 8}}
	if hasAVX2FMA {
		tiles = append(tiles, [2]int{6, 16})
	}
	if hasAVX512 {
		tiles = append(tiles, [2]int{8, 32})
	}
	for _, rt := range tiles {
		mr, nr := rt[0], rt[1]
		cfg := Config{MC: 256 - 256%mr, KC: 256, NC: 2048, MR: mr, NR: nr}
		b.Run(fmt.Sprintf("r%dx%d", mr, nr), func(b *testing.B) {
			benchGemmShape(b, 512, 1024, 512, func(a, bm, c *matrix.Dense) error {
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
