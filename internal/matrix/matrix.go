// Package matrix provides dense single-precision matrices for the real
// (non-simulated) execution path of the heterogeneous matrix multiplication
// application. Single precision matches the paper's experiments.
package matrix

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix of float32 values. A Dense may be a
// view into a larger matrix (Stride > Cols); views share storage.
type Dense struct {
	Rows, Cols int
	// Stride is the distance in elements between vertically adjacent
	// elements (>= Cols).
	Stride int
	Data   []float32
}

// New allocates a zeroed rows×cols matrix.
func New(rows, cols int) (*Dense, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("matrix: invalid shape %dx%d", rows, cols)
	}
	return &Dense{Rows: rows, Cols: cols, Stride: cols, Data: make([]float32, rows*cols)}, nil
}

// MustNew is New that panics on error; for tests and examples.
func MustNew(rows, cols int) *Dense {
	m, err := New(rows, cols)
	if err != nil {
		panic(err)
	}
	return m
}

// At returns element (i, j). Bounds are the caller's responsibility.
func (m *Dense) At(i, j int) float32 { return m.Data[i*m.Stride+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float32) { m.Data[i*m.Stride+j] = v }

// View returns a sub-matrix sharing storage with m: rows [i, i+rows) and
// columns [j, j+cols). The view's Data is capped (three-index slice) at one
// past the last addressable view element, so indexing beyond the final row
// panics instead of silently corrupting a neighbouring partition. Writes
// into the stride gap of a non-final row cannot be caught this way; the gap
// belongs to the parent by construction.
func (m *Dense) View(i, j, rows, cols int) (*Dense, error) {
	if i < 0 || j < 0 || rows <= 0 || cols <= 0 || i+rows > m.Rows || j+cols > m.Cols {
		return nil, fmt.Errorf("matrix: view (%d,%d,%d,%d) out of %dx%d", i, j, rows, cols, m.Rows, m.Cols)
	}
	lo := i*m.Stride + j
	hi := lo + (rows-1)*m.Stride + cols
	return &Dense{
		Rows: rows, Cols: cols, Stride: m.Stride,
		Data: m.Data[lo:hi:hi],
	}, nil
}

// Clone returns a compact deep copy of m. Only tests call it, to keep a
// reference operand beside one a kernel overwrites.
func (m *Dense) Clone() *Dense {
	out := MustNew(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		copy(out.Data[i*out.Stride:i*out.Stride+m.Cols], m.Data[i*m.Stride:i*m.Stride+m.Cols])
	}
	return out
}

// FillRandom fills m with reproducible uniform values in [-1, 1). It is
// FillRandomAt(seed, 0).
func (m *Dense) FillRandom(seed int64) { m.FillRandomAt(seed, 0) }

// splitMixGamma is SplitMix64's stream increment (the golden ratio in 64-bit
// fixed point).
const splitMixGamma = 0x9e3779b97f4a7c15

// FillRandomAt fills m with rows [row0, row0+m.Rows) of the m.Cols-wide
// matrix that FillRandom(seed) generates: the full-row window of that
// matrix, filled by Seeded.Fill.
func (m *Dense) FillRandomAt(seed int64, row0 int) {
	Seeded{Seed: seed, Width: m.Cols, Row0: row0, Rows: m.Rows, Cols: m.Cols}.Fill(m)
}

// Operand is a matrix the GEMM kernels read: a *Dense, read in place, or a
// Seeded window, generated as it is read. No other type implements it.
type Operand interface{ operand() }

func (*Dense) operand() {}

func (Seeded) operand() {}

// Seeded is the Rows×Cols window at (Row0, Col0) of the Width-column matrix
// that FillRandom(Seed) generates. Element (r, c) of that matrix is output
// r·Width+c of the SplitMix64 stream seeded with Seed, its top 24 bits mapped
// exactly to a float32 in [-1, 1) — so any block of it can be generated on
// its own, bit-identical to the same block of the whole matrix, and a
// Seeded operand needs no storage until a kernel generates it.
type Seeded struct {
	Seed       int64
	Width      int
	Row0, Col0 int
	Rows, Cols int
}

// FillRow writes elements (i, j) to (i, j+len(row)-1) of the window into
// row. On CPUs with AVX-512 an assembly kernel writes the first len&^15 of
// them; it produces the same bits as the Go loop.
func (s Seeded) FillRow(row []float32, i, j int) {
	fillRow(row, uint64(s.Seed)+(uint64(s.Row0+i)*uint64(s.Width)+uint64(s.Col0+j))*splitMixGamma)
}

// Fill writes the window's top-left m.Rows×m.Cols block into m.
func (s Seeded) Fill(m *Dense) {
	for i := 0; i < m.Rows; i++ {
		s.FillRow(m.Data[i*m.Stride:i*m.Stride+m.Cols], i, 0)
	}
}

// fillRowGeneric writes SplitMix64 outputs state+γ, state+2γ, … into row.
// SplitMix64's finaliser ends with z ^= z>>31; it is left out because it
// cannot change bits 40–63, the only bits kept.
func fillRowGeneric(row []float32, state uint64) {
	for j := range row {
		state += splitMixGamma
		z := state
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		row[j] = float32(int32(z>>40)-1<<23) * (1.0 / (1 << 23))
	}
}

// FillConstant sets every element to v. Only tests call it, to build
// operands with a known product.
func (m *Dense) FillConstant(v float32) {
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Stride : i*m.Stride+m.Cols]
		for j := range row {
			row[j] = v
		}
	}
}

// MaxAbsDiff returns the largest absolute element-wise difference, or +Inf
// on shape mismatch.
func MaxAbsDiff(a, b *Dense) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return math.Inf(1)
	}
	var d float64
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if v := math.Abs(float64(a.At(i, j)) - float64(b.At(i, j))); v > d {
				d = v
			}
		}
	}
	return d
}
