package blas

import (
	"math"
	"testing"
	"testing/quick"

	"fpmpart/internal/matrix"
)

func randMat(rows, cols int, seed int64) *matrix.Dense {
	m := matrix.MustNew(rows, cols)
	m.FillRandom(seed)
	return m
}

func TestShapeValidation(t *testing.T) {
	a := randMat(3, 4, 1)
	b := randMat(5, 2, 2) // inner mismatch
	c := matrix.MustNew(3, 2)
	for name, f := range map[string]func() error{
		"naive":    func() error { return GemmNaive(1, a, b, 0, c) },
		"blocked":  func() error { return GemmBlocked(1, a, b, 0, c, 0) },
		"parallel": func() error { return GemmParallel(1, a, b, 0, c, 0) },
		"packed":   func() error { return GemmPacked(1, a, b, 0, c, DefaultConfig, 1) },
	} {
		if err := f(); err == nil {
			t.Errorf("%s: inner mismatch accepted", name)
		}
	}
	bOK := randMat(4, 2, 3)
	cBad := matrix.MustNew(2, 2)
	if err := Gemm(1, a, bOK, 0, cBad); err == nil {
		t.Error("C shape mismatch accepted")
	}
	if err := GemmNaive(1, nil, bOK, 0, cBad); err == nil {
		t.Error("nil operand accepted")
	}
}

func TestKnownProduct(t *testing.T) {
	// [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
	a, b, c := matrix.MustNew(2, 2), matrix.MustNew(2, 2), matrix.MustNew(2, 2)
	copy(a.Data, []float32{1, 2, 3, 4})
	copy(b.Data, []float32{5, 6, 7, 8})
	if err := GemmNaive(1, a, b, 0, c); err != nil {
		t.Fatal(err)
	}
	want := []float32{19, 22, 43, 50}
	for i, w := range want {
		if c.Data[i] != w {
			t.Errorf("c[%d] = %v, want %v", i, c.Data[i], w)
		}
	}
}

func TestAlphaBeta(t *testing.T) {
	a, b := randMat(3, 3, 1), randMat(3, 3, 2)
	c := matrix.MustNew(3, 3)
	c.FillConstant(10)
	// C = 0*A*B + 2*C = 20 everywhere.
	if err := GemmNaive(0, a, b, 2, c); err != nil {
		t.Fatal(err)
	}
	for _, v := range c.Data {
		if v != 20 {
			t.Fatalf("beta scaling wrong: %v", v)
		}
	}
	// Blocked honours beta=0 by clearing C even if it held garbage.
	cg := matrix.MustNew(3, 3)
	cg.FillConstant(999)
	want := matrix.MustNew(3, 3)
	if err := GemmNaive(1, a, b, 0, want); err != nil {
		t.Fatal(err)
	}
	if err := GemmBlocked(1, a, b, 0, cg, 2); err != nil {
		t.Fatal(err)
	}
	if matrix.MaxAbsDiff(cg, want) > 1e-4 {
		t.Error("blocked beta=0 differs from naive")
	}
}

func TestImplementationsAgree(t *testing.T) {
	shapes := [][3]int{{1, 1, 1}, {2, 3, 4}, {17, 13, 29}, {64, 64, 64}, {65, 63, 31}, {100, 1, 100}}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a, b := randMat(m, k, int64(m)), randMat(k, n, int64(n))
		ref := matrix.MustNew(m, n)
		ref.FillRandom(7)
		c1 := ref.Clone()
		c2 := ref.Clone()
		c3 := ref.Clone()
		c4 := ref.Clone()
		if err := GemmNaive(1.5, a, b, 0.5, c1); err != nil {
			t.Fatal(err)
		}
		if err := GemmBlocked(1.5, a, b, 0.5, c2, 16); err != nil {
			t.Fatal(err)
		}
		if err := GemmParallel(1.5, a, b, 0.5, c3, 4); err != nil {
			t.Fatal(err)
		}
		if err := GemmPacked(1.5, a, b, 0.5, c4, Config{MC: 16, KC: 8, NC: 16, MR: 4, NR: 4}, 1); err != nil {
			t.Fatal(err)
		}
		// float32 accumulation order differs; allow small tolerance scaled
		// by k.
		tol := 1e-4 * float64(k)
		if d := matrix.MaxAbsDiff(c1, c2); d > tol {
			t.Errorf("%v: blocked differs from naive by %v", s, d)
		}
		if d := matrix.MaxAbsDiff(c1, c3); d > tol {
			t.Errorf("%v: parallel differs from naive by %v", s, d)
		}
		if d := matrix.MaxAbsDiff(c1, c4); d > tol {
			t.Errorf("%v: packed differs from naive by %v", s, d)
		}
	}
}

func TestGemmOnViews(t *testing.T) {
	// Multiply sub-blocks of larger matrices — the application's access
	// pattern (pivot column × pivot row into a C rectangle).
	big := matrix.MustNew(10, 10)
	big.FillRandom(3)
	a, _ := big.View(2, 0, 4, 3)
	b, _ := big.View(0, 2, 3, 5)
	c := matrix.MustNew(4, 5)
	want := matrix.MustNew(4, 5)
	if err := GemmNaive(1, a.Clone(), b.Clone(), 0, want); err != nil {
		t.Fatal(err)
	}
	if err := GemmParallel(1, a, b, 0, c, 2); err != nil {
		t.Fatal(err)
	}
	if d := matrix.MaxAbsDiff(c, want); d > 1e-3 {
		t.Errorf("view GEMM differs by %v", d)
	}
}

func TestParallelWorkerEdgeCases(t *testing.T) {
	a, b := randMat(3, 3, 1), randMat(3, 3, 2)
	want := matrix.MustNew(3, 3)
	if err := GemmNaive(1, a, b, 0, want); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 64} {
		c := matrix.MustNew(3, 3)
		if err := GemmParallel(1, a, b, 0, c, workers); err != nil {
			t.Fatal(err)
		}
		if matrix.MaxAbsDiff(c, want) > 1e-4 {
			t.Errorf("workers=%d wrong result", workers)
		}
	}
}

// Property: GEMM is linear in alpha — Gemm(2a) == 2*Gemm(a) with beta=0.
func TestGemmLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		a, b := randMat(6, 5, seed), randMat(5, 7, seed+1)
		c1 := matrix.MustNew(6, 7)
		c2 := matrix.MustNew(6, 7)
		if GemmBlocked(1, a, b, 0, c1, 4) != nil || GemmBlocked(2, a, b, 0, c2, 4) != nil {
			return false
		}
		for i := range c1.Data {
			if d := float64(c2.Data[i] - 2*c1.Data[i]); d > 1e-4 || d < -1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: identity matrix is a right identity.
func TestGemmIdentityProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := 8
		a := randMat(n, n, seed)
		id := matrix.MustNew(n, n)
		for i := 0; i < n; i++ {
			id.Set(i, i, 1)
		}
		c := matrix.MustNew(n, n)
		if GemmParallel(1, a, id, 0, c, 2) != nil {
			return false
		}
		return matrix.MaxAbsDiff(c, a) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestTilesBitIdentical pins the bytes DefaultConfig's choice must not move,
// over shapes whose depth spans at least three kc blocks and whose m and n
// leave fringe tiles:
//
//   - the 6x16 and 8x32 tiles (kc256, each where the CPU has it) agree bit
//     for bit, so a fleet mixing AVX2 and AVX-512 workers gathers one C;
//   - beta = 0, which stores the first k-block into a NaN-filled C, equals
//     beta = 1 on a zeroed C, which accumulates every block.
func TestTilesBitIdentical(t *testing.T) {
	var configs []Config
	if hasAVX2FMA {
		configs = append(configs, Config{MC: 258, KC: 256, NC: 2048, MR: 6, NR: 16})
	}
	if hasAVX512 {
		configs = append(configs, Config{MC: 256, KC: 256, NC: 2048, MR: 8, NR: 32})
	}
	if configs == nil {
		configs = []Config{DefaultConfig} // the scalar tile: beta only
	}
	nan := float32(math.NaN())
	for _, s := range [][3]int{{77, 600, 45}, {250, 1536, 33}, {13, 769, 100}} {
		m, k, n := s[0], s[1], s[2]
		a, b := randMat(m, k, int64(k)), randMat(k, n, int64(k)+1)
		var first []float32
		for _, cfg := range configs {
			for _, workers := range []int{1, 3} {
				stored := matrix.MustNew(m, n)
				stored.FillConstant(nan)
				if err := GemmPacked(1, a, b, 0, stored, cfg, workers); err != nil {
					t.Fatal(err)
				}
				accumulated := matrix.MustNew(m, n)
				if err := GemmPacked(1, a, b, 1, accumulated, cfg, workers); err != nil {
					t.Fatal(err)
				}
				if i := firstBitDiff(stored.Data, accumulated.Data); i >= 0 {
					t.Errorf("%v %v workers=%d: beta=0 element %d = %v, beta=1 on zeroed C %v",
						s, cfg, workers, i, stored.Data[i], accumulated.Data[i])
				}
				if first == nil {
					first = stored.Data
					continue
				}
				if i := firstBitDiff(stored.Data, first); i >= 0 {
					t.Errorf("%v %v workers=%d: element %d = %v, %v gives %v",
						s, cfg, workers, i, stored.Data[i], configs[0], first[i])
				}
			}
		}
	}
}

// firstBitDiff returns the first index where x and y differ in their bit
// patterns, or -1.
func firstBitDiff(x, y []float32) int {
	for i := range x {
		if math.Float32bits(x[i]) != math.Float32bits(y[i]) {
			return i
		}
	}
	return -1
}

// TestSeededOperandsBitIdentical pins that a seeded operand, generated block
// by block as it is packed, gives the bytes of the same window materialised
// into a Dense: windows that start off the 16-wide fill step, m and n that
// leave fringe tiles, depths of at least three kc blocks, alpha != 1, beta 0
// (into a NaN-filled C) and 2, 1 and 3 workers, on every tile the CPU has.
func TestSeededOperandsBitIdentical(t *testing.T) {
	configs := []Config{{MC: 256, KC: 256, NC: 2048, MR: 8, NR: 4}}
	if hasAVX2FMA {
		configs = append(configs, Config{MC: 258, KC: 256, NC: 2048, MR: 6, NR: 16})
	}
	if hasAVX512 {
		configs = append(configs, Config{MC: 256, KC: 256, NC: 2048, MR: 8, NR: 32})
	}
	materialise := func(s matrix.Seeded) *matrix.Dense {
		d := matrix.MustNew(s.Rows, s.Cols)
		s.Fill(d)
		return d
	}
	nan := float32(math.NaN())
	for _, s := range []struct{ m, k, n, row0, col0 int }{
		{77, 600, 45, 5, 3}, {250, 769, 33, 13, 17}, {13, 1536, 100, 0, 9},
	} {
		a := matrix.Seeded{Seed: int64(s.k), Width: s.k + s.col0 + 2, Row0: s.row0, Col0: s.col0, Rows: s.m, Cols: s.k}
		b := matrix.Seeded{Seed: int64(s.k) + 1, Width: s.n + s.col0, Row0: s.row0 + 1, Col0: s.col0, Rows: s.k, Cols: s.n}
		ad, bd := materialise(a), materialise(b)
		for _, cfg := range configs {
			for _, workers := range []int{1, 3} {
				for _, beta := range []float32{0, 2} {
					want, got := matrix.MustNew(s.m, s.n), matrix.MustNew(s.m, s.n)
					if beta == 0 {
						want.FillConstant(nan)
						got.FillConstant(nan)
					} else {
						want.FillRandom(3)
						got.FillRandom(3)
					}
					if err := GemmPacked(-0.75, ad, bd, beta, want, cfg, workers); err != nil {
						t.Fatal(err)
					}
					if err := GemmPacked(-0.75, a, b, beta, got, cfg, workers); err != nil {
						t.Fatal(err)
					}
					if i := firstBitDiff(got.Data, want.Data); i >= 0 {
						t.Errorf("%+v %v workers=%d beta=%v: seeded element %d = %v, materialised %v",
							s, cfg, workers, beta, i, got.Data[i], want.Data[i])
					}
				}
			}
		}
	}

	// A window that reaches past its matrix's columns is refused.
	c := matrix.MustNew(4, 4)
	bad := matrix.Seeded{Seed: 1, Width: 6, Col0: 3, Rows: 4, Cols: 4}
	if err := GemmPacked(1, bad, bad, 0, c, DefaultConfig, 1); err == nil {
		t.Error("window past its matrix's last column accepted")
	}
}
