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

func TestAtSet(t *testing.T) {
	m := MustNew(2, 3)
	m.Set(1, 2, 7.5)
	if m.At(1, 2) != 7.5 {
		t.Error("Set/At round trip failed")
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
	if MaxAbsDiff(c, v) != 0 {
		t.Error("clone differs from source")
	}
	c.Set(0, 0, 99)
	if m.At(1, 1) == 99 {
		t.Error("clone shares storage")
	}
}

func TestFill(t *testing.T) {
	m := MustNew(3, 3)
	m.FillConstant(2)
	for _, v := range m.Data {
		if v != 2 {
			t.Fatalf("FillConstant(2) left %v", v)
		}
	}
	// Random fill reproducible by seed and within range.
	a, b := MustNew(5, 5), MustNew(5, 5)
	a.FillRandom(42)
	b.FillRandom(42)
	if MaxAbsDiff(a, b) != 0 {
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

	// Column windows: any block, at any column, is the same block of the
	// full fill. Offsets off the 16-wide vector step put the kernel's
	// boundary mid-window.
	full := MustNew(6, 80)
	full.FillRandom(-5)
	for _, col0 := range []int{1, 7, 17, 33} {
		for w := 1; w <= 40; w++ {
			got := MustNew(3, w)
			Seeded{Seed: -5, Width: full.Cols, Row0: 2, Col0: col0, Rows: 3, Cols: w}.Fill(got)
			for i := 0; i < got.Rows; i++ {
				for j := 0; j < w; j++ {
					if g, want := got.At(i, j), full.At(2+i, col0+j); math.Float32bits(g) != math.Float32bits(want) {
						t.Fatalf("window at (2,%d) width %d: (%d,%d) = %v, full fill %v", col0, w, i, j, g, want)
					}
				}
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

// TestFillRandomGolden pins the operand stream bit for bit. Every worker and
// the coordinator's verify replay must draw the same operands whatever their
// ISA, so these patterns may never change. The widths straddle the 16-wide
// vector step: a lone tail, a full tail, one exact step, step plus one, and
// two steps plus one.
func TestFillRandomGolden(t *testing.T) {
	for _, tc := range []struct {
		seed             int64
		row0, rows, cols int
		bits             []uint32
	}{
		{0, 3, 2, 1, []uint32{0x3f711770, 0xbf498cee}},
		{1, 7, 2, 15, []uint32{
			0x3f7b08bc, 0x3e8fa6fc, 0xbf70fd52, 0x3f321386, 0x3f51cc04, 0xbe692748, 0xbf339974, 0x3e8b93f8,
			0x3e479850, 0xbf214d34, 0xbf4cb876, 0x3f7a1a3e, 0xbe41a8e0, 0xbd55d0e0, 0x3e002df0, 0x3ec66248,
			0x3ef5f7a0, 0x3f70b4b0, 0xbd3a4ce0, 0xbf10fa14, 0xbf1b3720, 0xbf4ff5dc, 0xbe56d8d8, 0xbf05af42,
			0xbeb5c188, 0xbf040c4e, 0x3d258fc0, 0x3e31abc0, 0xbf57fb9c, 0xbda43af0,
		}},
		{-1, 1, 2, 16, []uint32{
			0xbe3bc3f0, 0xbf1da958, 0xbf39de86, 0xbe1d0908, 0xbe8ad048, 0x3eb0b318, 0xbd6beba0, 0xbf1c8a08,
			0xbf21922a, 0x3e4317a0, 0x3f30e0b0, 0xbdd74420, 0x3f035e56, 0xbf771044, 0xbf368414, 0x3f3c56ba,
			0xbe316ed8, 0x3f665510, 0x3e2327e8, 0xbe8adb40, 0xbf5f9672, 0xbf0bef38, 0xbf0dec16, 0xbe138fc0,
			0x3f03d532, 0x3ecb0bb8, 0xbf683aa2, 0x3ef84b44, 0xbe42e550, 0xbf402158, 0xb920c000, 0x3f30aa5a,
		}},
		{math.MinInt64, 5, 2, 17, []uint32{
			0xbf673998, 0x3f4de302, 0x3f642d64, 0xbeb5f3ac, 0x3ef8258c, 0xbe7ac870, 0x3f59266e, 0xbf50f698,
			0xbe350078, 0xbf0885c0, 0x3f788a4e, 0x3b8a8d00, 0xbf1e9688, 0xbe8badb0, 0x3edaa1b4, 0xbe4c98c8,
			0x3ee6e828, 0x3ef59760, 0x3eba53f0, 0xbe37aa08, 0x3f34bdc8, 0xbe9e52d8, 0xbf328884, 0x3e17d780,
			0xbe947cb0, 0x3f54bbd0, 0xbe9ec3b0, 0x3f00581c, 0xbe63e718, 0x3e5bd120, 0x3f2753dc, 0x3c37d700,
			0xbdeb5730, 0x3f443a64,
		}},
		{1, 2, 1, 33, []uint32{
			0xbf6cd576, 0xbf74ba3e, 0x3e0c3368, 0xbf428d32, 0xbf2d3384, 0x3f258c3c, 0x3f72042a, 0x3ec3ac24,
			0x3e0665b0, 0xbd70efa0, 0x3e7decb0, 0x3f386640, 0x3f1c8b46, 0xbf482ace, 0x3e992cc4, 0xbf0ef6d6,
			0xbe1e3d68, 0x3f463ab8, 0x3ebd82e8, 0x3f61b5b0, 0x3f004afc, 0xbf3f1a9c, 0xbf25642e, 0x3ef3cd6c,
			0x3f0f92ae, 0xbe6527a8, 0xbf4e6fec, 0x3f67e148, 0x3e4687f8, 0xbf4febaa, 0x3f364052, 0x3f300722,
			0xbf7ff10a,
		}},
		{math.MinInt64, 11, 1, 33, []uint32{
			0xbf70a62a, 0xbf751112, 0xbf1c923e, 0xbbf8de00, 0x3e2e2b60, 0x3ed87390, 0xbea3dc68, 0x3f1d8aa2,
			0x3cd42480, 0xbf4bb5d0, 0x3ca9a600, 0xbdd0f380, 0x3e0e1230, 0x3f39f952, 0xbf25405a, 0x3d34a780,
			0xbf7035ea, 0xbf619180, 0x3f711a2e, 0xbf0ff432, 0xbefa1bb0, 0xbe9bb05c, 0x3e3cab50, 0xbd3e9240,
			0xbea966a0, 0x3f38c81c, 0x3f640548, 0xbddba710, 0x3f2a3d5c, 0xbe82e780, 0xbefac578, 0x3f5f2630,
			0x3f234eb6,
		}},
	} {
		m := MustNew(tc.rows, tc.cols)
		m.FillRandomAt(tc.seed, tc.row0)
		for i, v := range m.Data {
			if got := math.Float32bits(v); got != tc.bits[i] {
				t.Errorf("seed %d rows %d+%d cols %d: element %d = %#08x, want %#08x",
					tc.seed, tc.row0, tc.rows, tc.cols, i, got, tc.bits[i])
			}
		}
	}
}

// checkFillMatchesGeneric fills a rows×cols view, pad columns narrower than
// its parent, with the window at (row0, col0) of a col0+cols wide matrix —
// FillRandomAt when col0 is 0 — and compares it with fillRowGeneric row by
// row. The parent's stride gap must stay untouched.
func checkFillMatchesGeneric(t *testing.T, seed int64, row0, col0, rows, cols, pad int) {
	t.Helper()
	const sentinel = 7
	parent := MustNew(rows, cols+pad)
	parent.FillConstant(sentinel)
	v, err := parent.View(0, 0, rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	width := col0 + cols
	if col0 == 0 {
		v.FillRandomAt(seed, row0)
	} else {
		Seeded{Seed: seed, Width: width, Row0: row0, Col0: col0, Rows: rows, Cols: cols}.Fill(v)
	}
	want := make([]float32, cols)
	for i := 0; i < rows; i++ {
		fillRowGeneric(want, uint64(seed)+(uint64(row0+i)*uint64(width)+uint64(col0))*splitMixGamma)
		for j, w := range want {
			if got := v.At(i, j); math.Float32bits(got) != math.Float32bits(w) {
				t.Fatalf("seed %d at (%d,%d) %dx%d pad %d: (%d,%d) = %v, generic %v",
					seed, row0, col0, rows, cols, pad, i, j, got, w)
			}
		}
		for j := cols; j < cols+pad; j++ {
			if parent.At(i, j) != sentinel {
				t.Fatalf("seed %d at (%d,%d) %dx%d pad %d: fill wrote the stride gap at (%d,%d)",
					seed, row0, col0, rows, cols, pad, i, j)
			}
		}
	}
}

// The dispatched fill (the AVX-512 kernel where the CPU has it) equals the
// pure-Go row function on compact and strided views, for full rows and for
// column windows.
func TestFillRandomAtMatchesGeneric(t *testing.T) {
	for _, seed := range []int64{0, 1, -1, math.MinInt64, 0x5eed} {
		for _, cols := range []int{1, 15, 16, 17, 31, 32, 33, 48, 100, 256} {
			for _, pad := range []int{0, 3, 16} {
				for _, col0 := range []int{0, 5} {
					checkFillMatchesGeneric(t, seed, 9, col0, 3, cols, pad)
				}
			}
		}
	}
}

func FuzzFillRandomAt(f *testing.F) {
	f.Add(int64(0), 0, uint8(0), uint8(1), uint16(1), uint8(0))
	f.Add(int64(-1), 5, uint8(3), uint8(3), uint16(16), uint8(4))
	f.Add(int64(math.MinInt64), 1<<20, uint8(250), uint8(2), uint16(299), uint8(17))
	f.Fuzz(func(t *testing.T, seed int64, row0 int, col0, rows uint8, cols uint16, pad uint8) {
		r, c := int(rows%8)+1, int(cols%300)+1
		checkFillMatchesGeneric(t, seed, row0, int(col0), r, c, int(pad%32))
	})
}

// BenchmarkFillRandom fills one 256×256 operand, the exec-small job's B.
func BenchmarkFillRandom(b *testing.B) {
	m := MustNew(256, 256)
	b.SetBytes(int64(4 * len(m.Data)))
	for i := 0; i < b.N; i++ {
		m.FillRandom(int64(i))
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a, b := MustNew(2, 2), MustNew(2, 2)
	a.FillConstant(1)
	b.FillConstant(1.05)
	if got := MaxAbsDiff(a, b); math.Abs(got-0.05) > 1e-6 {
		t.Errorf("MaxAbsDiff = %v", got)
	}
	c := MustNew(2, 3)
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
