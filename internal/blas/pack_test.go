package blas

import (
	"fmt"
	"testing"

	"fpmpart/internal/matrix"
)

func TestPackARoundTrip(t *testing.T) {
	// Pack a strided 5x7 block with mr=4 and verify layout: panel r holds,
	// for each depth p, the mr rows of column p, zero-padded past row 5.
	parent := matrix.MustNew(9, 11)
	parent.FillRandom(1)
	a, err := parent.View(2, 3, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	const mr, alpha = 4, 2.0
	dst := make([]float32, ceilDiv(5, mr)*mr*7)
	packA(dst, a.Data, a.Stride, alpha, 0, 0, 5, 7, mr)
	for r := 0; r < 2; r++ {
		for p := 0; p < 7; p++ {
			for i := 0; i < mr; i++ {
				got := dst[r*7*mr+p*mr+i]
				row := r*mr + i
				var want float32
				if row < 5 {
					want = alpha * a.At(row, p)
				}
				if got != want {
					t.Fatalf("packA panel %d depth %d lane %d = %v, want %v", r, p, i, got, want)
				}
			}
		}
	}
}

func TestPackBRoundTrip(t *testing.T) {
	parent := matrix.MustNew(9, 13)
	parent.FillRandom(2)
	b, err := parent.View(1, 2, 6, 10)
	if err != nil {
		t.Fatal(err)
	}
	const nr = 4
	dst := make([]float32, ceilDiv(10, nr)*nr*6)
	packB(dst, operand{data: b.Data, stride: b.Stride}, 0, 0, 6, 10, nr)
	// packBPanels over the same range must produce the identical buffer.
	dst2 := make([]float32, len(dst))
	packBPanels(dst2, operand{data: b.Data, stride: b.Stride}, 0, 0, 6, 10, nr, 0, ceilDiv(10, nr))
	for s := 0; s < 3; s++ {
		for p := 0; p < 6; p++ {
			for j := 0; j < nr; j++ {
				got := dst[s*6*nr+p*nr+j]
				col := s*nr + j
				var want float32
				if col < 10 {
					want = b.At(p, col)
				}
				if got != want {
					t.Fatalf("packB panel %d depth %d lane %d = %v, want %v", s, p, j, got, want)
				}
			}
		}
	}
	for i := range dst {
		if dst[i] != dst2[i] {
			t.Fatalf("packBPanels diverges from packB at %d", i)
		}
	}
}

// TestMicroKernelsMatchGeneric drives the scalar 8×4 kernel, and the AVX2
// tile when the host supports it, against the generic reference on the same
// packed panels (TestSIMDKernelsMatchGeneric covers the AVX-512 tile).
func TestMicroKernelsMatchGeneric(t *testing.T) {
	tiles := [][2]int{{8, 4}}
	if hasAVX2FMA {
		tiles = append(tiles, [2]int{6, 16})
	}
	for _, tile := range tiles {
		mr, nr := tile[0], tile[1]
		t.Run(fmt.Sprintf("r%dx%d", mr, nr), func(t *testing.T) {
			for _, kc := range []int{1, 2, 7, 64} {
				a := make([]float32, kc*mr)
				b := make([]float32, kc*nr)
				for i := range a {
					a[i] = float32(i%13) - 6
				}
				for i := range b {
					b[i] = float32(i%11) - 5
				}
				ldc := nr + 3
				got := make([]float32, mr*ldc)
				want := make([]float32, mr*ldc)
				for i := range got {
					got[i] = float32(i)
					want[i] = float32(i)
				}
				kernelFor(mr, nr)(kc, a, b, got, ldc)
				microKernelGeneric(mr, nr, kc, a, b, want, ldc)
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("kc=%d: element %d = %v, generic %v", kc, i, got[i], want[i])
					}
				}
			}
		})
	}
}

func TestConfigValidate(t *testing.T) {
	for _, bad := range []Config{
		{},
		{MC: 0, KC: 1, NC: 1, MR: 1, NR: 1},
		{MC: 8, KC: 8, NC: 8, MR: 0, NR: 4},
		{MC: 8, KC: 8, NC: 8, MR: 16, NR: 4}, // mr > maxMR
		{MC: 10, KC: 8, NC: 8, MR: 4, NR: 4}, // mc not multiple of mr
		{MC: 8, KC: 8, NC: 10, MR: 4, NR: 4}, // nc not multiple of nr
		{MC: 8, KC: 8, NC: 8, MR: 4, NR: 32}, // nr > maxNR
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", bad)
		}
	}
	if err := DefaultConfig.Validate(); err != nil {
		t.Errorf("DefaultConfig invalid: %v", err)
	}
	if err := (Config{MC: 12, KC: 4, NC: 32, MR: 6, NR: 16}).Validate(); err != nil {
		t.Errorf("AVX tile config invalid: %v", err)
	}
}

// TestDefaultConfigPerISA pins one configuration per ISA: DefaultConfig
// validates and names the widest tile the host has, and ActiveFor returns it
// whatever the shape (no shape class, so no speed step at 257 rows).
func TestDefaultConfigPerISA(t *testing.T) {
	if err := DefaultConfig.Validate(); err != nil {
		t.Errorf("DefaultConfig invalid: %v", err)
	}
	tile := [2]int{8, 4}
	switch {
	case hasAVX512:
		tile = [2]int{8, 32}
	case hasAVX2FMA:
		tile = [2]int{6, 16}
	}
	if got := [2]int{DefaultConfig.MR, DefaultConfig.NR}; got != tile {
		t.Errorf("DefaultConfig = %v, want tile r%dx%d (avx512=%v avx2fma=%v)",
			DefaultConfig, tile[0], tile[1], hasAVX512, hasAVX2FMA)
	}
	if DefaultConfig.KC != 256 {
		t.Errorf("DefaultConfig.KC = %d, want 256 (the tiles' bit-identity needs one kc)", DefaultConfig.KC)
	}
	for _, s := range [][3]int{{1, 1, 1}, {256, 256, 256}, {257, 8, 8}, {4096, 1536, 1536}} {
		if got := ActiveFor(s[0], s[1], s[2]); got != DefaultConfig {
			t.Errorf("ActiveFor(%d,%d,%d) = %v, want DefaultConfig %v", s[0], s[1], s[2], got, DefaultConfig)
		}
	}
}
