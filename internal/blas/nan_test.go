package blas

import (
	"math"
	"testing"

	"fpmpart/internal/matrix"
)

// equalWithNaN reports whether a and b agree elementwise, treating NaN as
// equal to NaN (and requiring the same infinities).
func equalWithNaN(a, b *matrix.Dense, tol float64) (bool, int, int) {
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			x, y := float64(a.At(i, j)), float64(b.At(i, j))
			switch {
			case math.IsNaN(x) != math.IsNaN(y):
				return false, i, j
			case math.IsNaN(x):
				continue
			case math.IsInf(x, 0) || math.IsInf(y, 0):
				if x != y {
					return false, i, j
				}
			case math.Abs(x-y) > tol:
				return false, i, j
			}
		}
	}
	return true, 0, 0
}

// TestNaNInfPropagation is the regression test for the removed aik == 0
// fast path: a zero element of alpha·A multiplying a NaN or Inf element of
// B must still produce NaN (0·NaN = 0·Inf = NaN), exactly as the reference
// loop computes it. The old skip silently dropped those, so a mostly-zero
// A masked poisoned inputs. Every kernel variant must agree with GemmNaive
// on NaN positions.
func TestNaNInfPropagation(t *testing.T) {
	const m, k, n = 9, 7, 11
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))

	// A is mostly zeros — the exact shape that triggered the fast path.
	a := matrix.MustNew(m, k)
	a.Set(2, 1, 1.5)
	a.Set(5, 0, -2)
	b := matrix.MustNew(k, n)
	b.FillRandom(3)
	b.Set(1, 4, nan) // hit by zero A elements in every row but 2
	b.Set(0, 5, inf) // 0·Inf = NaN except in row 5
	b.Set(3, 6, -inf)

	// NaN in A against finite B must poison its whole C row too.
	a2 := matrix.MustNew(m, k)
	a2.FillRandom(4)
	a2.Set(4, 2, nan)

	for _, tc := range []struct {
		name string
		a, b *matrix.Dense
	}{
		{"nan-inf-in-B", a, b},
		{"nan-in-A", a2, b},
	} {
		want := matrix.MustNew(m, n)
		if err := GemmNaive(1, tc.a, tc.b, 0, want); err != nil {
			t.Fatal(err)
		}
		if !hasNaN(want) {
			t.Fatalf("%s: reference result contains no NaN; test is vacuous", tc.name)
		}
		variants := map[string]func(c *matrix.Dense) error{
			"blocked": func(c *matrix.Dense) error { return GemmBlocked(1, tc.a, tc.b, 0, c, 4) },
			"packed-default": func(c *matrix.Dense) error {
				return GemmPacked(1, tc.a, tc.b, 0, c, DefaultConfig, 1)
			},
			"packed-4x4": func(c *matrix.Dense) error {
				return GemmPacked(1, tc.a, tc.b, 0, c, Config{MC: 8, KC: 4, NC: 8, MR: 4, NR: 4}, 1)
			},
			"packed-generic-tile": func(c *matrix.Dense) error {
				return GemmPacked(1, tc.a, tc.b, 0, c, Config{MC: 10, KC: 16, NC: 15, MR: 5, NR: 3}, 1)
			},
			"packed-avx-tile": func(c *matrix.Dense) error {
				return GemmPacked(1, tc.a, tc.b, 0, c, Config{MC: 12, KC: 64, NC: 32, MR: 6, NR: 16}, 1)
			},
			"parallel": func(c *matrix.Dense) error { return GemmParallel(1, tc.a, tc.b, 0, c, 3) },
		}
		for name, f := range variants {
			c := matrix.MustNew(m, n)
			if err := f(c); err != nil {
				t.Fatalf("%s/%s: %v", tc.name, name, err)
			}
			if ok, i, j := equalWithNaN(c, want, 1e-4); !ok {
				t.Errorf("%s/%s: element (%d,%d) = %v, reference %v",
					tc.name, name, i, j, c.At(i, j), want.At(i, j))
			}
		}
	}
}

func hasNaN(m *matrix.Dense) bool {
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if math.IsNaN(float64(m.At(i, j))) {
				return true
			}
		}
	}
	return false
}

// TestBetaZeroOverwritesGarbage pins the BLAS-style beta == 0 semantics
// shared by every variant: C is overwritten without being read, so NaN
// already present in C does not leak into the result.
func TestBetaZeroOverwritesGarbage(t *testing.T) {
	a, b := randMat(5, 4, 1), randMat(4, 6, 2)
	want := matrix.MustNew(5, 6)
	if err := GemmNaive(1, a, b, 0, want); err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]func(c *matrix.Dense) error{
		"naive":   func(c *matrix.Dense) error { return GemmNaive(1, a, b, 0, c) },
		"blocked": func(c *matrix.Dense) error { return GemmBlocked(1, a, b, 0, c, 0) },
		"packed":  func(c *matrix.Dense) error { return GemmPacked(1, a, b, 0, c, DefaultConfig, 1) },
	} {
		c := matrix.MustNew(5, 6)
		c.FillConstant(float32(math.NaN()))
		if err := f(c); err != nil {
			t.Fatal(err)
		}
		if ok, i, j := equalWithNaN(c, want, 1e-4); !ok {
			t.Errorf("%s: beta=0 leaked garbage at (%d,%d): %v", name, i, j, c.At(i, j))
		}
	}
}
