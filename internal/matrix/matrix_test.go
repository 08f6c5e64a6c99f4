package matrix

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	for _, c := range [][2]int{{0, 5}, {5, 0}, {-1, 5}, {5, -1}} {
		if _, err := New(c[0], c[1]); err == nil {
			t.Errorf("New(%d,%d) should fail", c[0], c[1])
		}
	}
	m, err := New(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 3 || m.Cols != 4 || m.Stride != 4 || len(m.Data) != 12 {
		t.Errorf("bad matrix %+v", m)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MustNew(0, 0)
}

func TestAtSetAndChecked(t *testing.T) {
	m := MustNew(2, 3)
	m.Set(1, 2, 7.5)
	if m.At(1, 2) != 7.5 {
		t.Error("Set/At round trip failed")
	}
	if v, err := m.CheckedAt(1, 2); err != nil || v != 7.5 {
		t.Errorf("CheckedAt = %v, %v", v, err)
	}
	for _, c := range [][2]int{{-1, 0}, {0, -1}, {2, 0}, {0, 3}} {
		if _, err := m.CheckedAt(c[0], c[1]); err == nil {
			t.Errorf("CheckedAt(%d,%d) should fail", c[0], c[1])
		}
	}
}

func TestViewSharesStorage(t *testing.T) {
	m := MustNew(4, 4)
	v, err := m.View(1, 1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	v.Set(0, 0, 42)
	if m.At(1, 1) != 42 {
		t.Error("view write not visible in parent")
	}
	if v.Rows != 2 || v.Cols != 2 || v.Stride != 4 {
		t.Errorf("view shape %+v", v)
	}
	for _, c := range [][4]int{{-1, 0, 2, 2}, {0, 0, 5, 1}, {3, 3, 2, 2}, {0, 0, 0, 1}} {
		if _, err := m.View(c[0], c[1], c[2], c[3]); err == nil {
			t.Errorf("View%v should fail", c)
		}
	}
}

func TestViewStorageIsBounded(t *testing.T) {
	m := MustNew(10, 10)
	v, err := m.View(0, 0, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Data must end exactly one past the last addressable view element:
	// (rows-1)*Stride + cols = 1*10 + 2.
	if want := 12; len(v.Data) != want || cap(v.Data) != want {
		t.Fatalf("view Data len/cap = %d/%d, want %d/%d", len(v.Data), cap(v.Data), want, want)
	}
	// A write past the final view row must panic instead of silently
	// corrupting the parent's row 5 (the old unbounded view allowed it).
	defer func() {
		if recover() == nil {
			t.Error("out-of-view write did not panic")
		}
		if m.At(5, 0) != 0 {
			t.Error("out-of-view write corrupted the parent")
		}
	}()
	v.Set(5, 0, 1)
}

func TestViewOfViewIsBounded(t *testing.T) {
	m := MustNew(10, 10)
	outer, err := m.View(2, 2, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := outer.View(1, 1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	inner.Set(1, 1, 7)
	if m.At(4, 4) != 7 {
		t.Error("nested view write not visible in root")
	}
	if want := 1*10 + 2; len(inner.Data) != want || cap(inner.Data) != want {
		t.Errorf("nested view Data len/cap = %d/%d, want %d", len(inner.Data), cap(inner.Data), want)
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-view write through nested view did not panic")
		}
	}()
	inner.Set(3, 0, 1)
}

func TestCloneIsDeepAndCompact(t *testing.T) {
	m := MustNew(4, 4)
	m.FillRandom(1)
	v, _ := m.View(1, 1, 2, 2)
	c := v.Clone()
	if c.Stride != c.Cols {
		t.Error("clone should be compact")
	}
	if !EqualWithin(c, v, 0) {
		t.Error("clone differs from source")
	}
	c.Set(0, 0, 99)
	if m.At(1, 1) == 99 {
		t.Error("clone shares storage")
	}
}

func TestFillAndNorm(t *testing.T) {
	m := MustNew(3, 3)
	m.FillConstant(2)
	if got, want := m.FrobeniusNorm(), math.Sqrt(9*4.0); math.Abs(got-want) > 1e-9 {
		t.Errorf("norm = %v, want %v", got, want)
	}
	m.Zero()
	if m.FrobeniusNorm() != 0 {
		t.Error("Zero did not clear")
	}
	// Random fill reproducible by seed and within range.
	a, b := MustNew(5, 5), MustNew(5, 5)
	a.FillRandom(42)
	b.FillRandom(42)
	if !EqualWithin(a, b, 0) {
		t.Error("same-seed fills differ")
	}
	for _, v := range a.Data {
		if v < -1 || v >= 1 {
			t.Fatalf("random value %v out of [-1,1)", v)
		}
	}
}

// A band generated on its own is bit-identical to the same rows of the whole
// matrix: this is what lets a worker regenerate only its band of A.
func TestFillRandomAtSeeksRows(t *testing.T) {
	for _, sh := range []struct{ rows, cols, row0, band int }{
		{1, 1, 0, 1}, {7, 3, 2, 4}, {64, 48, 16, 48}, {256, 256, 64, 192}, {33, 17, 32, 1},
	} {
		full := MustNew(sh.rows, sh.cols)
		full.FillRandom(9)
		want, _ := full.View(sh.row0, 0, sh.band, sh.cols)

		compact := MustNew(sh.band, sh.cols)
		compact.FillRandomAt(9, sh.row0)
		// The same band written into a strided view of a wider parent.
		parent := MustNew(sh.band+2, sh.cols+5)
		parent.FillConstant(7)
		strided, _ := parent.View(1, 2, sh.band, sh.cols)
		strided.FillRandomAt(9, sh.row0)

		for _, got := range []*Dense{compact, strided} {
			for i := 0; i < sh.band; i++ {
				for j := 0; j < sh.cols; j++ {
					if math.Float32bits(got.At(i, j)) != math.Float32bits(want.At(i, j)) {
						t.Fatalf("%dx%d rows %d+%d stride %d: (%d,%d) = %v, want %v",
							sh.rows, sh.cols, sh.row0, sh.band, got.Stride, i, j, got.At(i, j), want.At(i, j))
					}
				}
			}
		}
		// The view's fill stays inside its window.
		for i := 0; i < parent.Rows; i++ {
			for j := 0; j < parent.Cols; j++ {
				inside := i >= 1 && i < 1+sh.band && j >= 2 && j < 2+sh.cols
				if !inside && parent.At(i, j) != 7 {
					t.Fatalf("FillRandomAt on a view wrote parent (%d,%d)", i, j)
				}
			}
		}
		for _, v := range full.Data {
			if v < -1 || v >= 1 {
				t.Fatalf("random value %v out of [-1,1)", v)
			}
		}
	}

	a, b := MustNew(16, 16), MustNew(16, 16)
	a.FillRandom(1)
	b.FillRandom(2)
	same := 0
	for i := range a.Data {
		if a.Data[i] == b.Data[i] {
			same++
		}
	}
	if same > 1 {
		t.Errorf("seeds 1 and 2 agree on %d of %d elements", same, len(a.Data))
	}
}

func TestEqualWithinAndDiff(t *testing.T) {
	a, b := MustNew(2, 2), MustNew(2, 2)
	a.FillConstant(1)
	b.FillConstant(1.05)
	if EqualWithin(a, b, 0.01) {
		t.Error("should differ at tol 0.01")
	}
	if !EqualWithin(a, b, 0.1) {
		t.Error("should match at tol 0.1")
	}
	if got := MaxAbsDiff(a, b); math.Abs(got-0.05) > 1e-6 {
		t.Errorf("MaxAbsDiff = %v", got)
	}
	c := MustNew(2, 3)
	if EqualWithin(a, c, 1e9) {
		t.Error("shape mismatch should not be equal")
	}
	if !math.IsInf(MaxAbsDiff(a, c), 1) {
		t.Error("shape mismatch diff should be +Inf")
	}
}

// Property: views never read or write outside their window.
func TestViewIsolationProperty(t *testing.T) {
	f := func(seed int64, i, j, r, c uint8) bool {
		m := MustNew(8, 8)
		m.FillRandom(seed)
		orig := m.Clone()
		vi, vj := int(i%6), int(j%6)
		vr, vc := int(r%2)+1, int(c%2)+1
		v, err := m.View(vi, vj, vr, vc)
		if err != nil {
			return false
		}
		v.FillConstant(123)
		// Everything outside the window must be untouched.
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				inside := y >= vi && y < vi+vr && x >= vj && x < vj+vc
				if inside {
					if m.At(y, x) != 123 {
						return false
					}
				} else if m.At(y, x) != orig.At(y, x) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
