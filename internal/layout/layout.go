// Package layout implements the column-based two-dimensional matrix
// partitioning used by the heterogeneous parallel matrix multiplication of
// the paper (Clarke, Lastovetsky & Rychkov, HeteroPar 2011, building on
// Beaumont et al.): given per-processor areas, arrange non-overlapping
// rectangles covering the matrix so that
//
//   - each processor's rectangle area is (approximately) proportional to its
//     assigned workload, and
//   - the total communication volume of the blocked matrix multiplication,
//     which is proportional to the sum of rectangle half-perimeters
//     Σ(w_i + h_i), is minimised over column-based arrangements.
//
// In a column-based arrangement the matrix is cut into vertical columns and
// each column is cut horizontally, one rectangle per processor. For a unit
// square, a column containing q processors with total area w contributes
// q·w + 1 to Σ(w_i + h_i), so the optimisation reduces to grouping
// processors into columns minimising Σ_j q_j·w_j + (#columns). An optimal
// grouping is contiguous in non-increasing area order (Beaumont et al.),
// which the package finds by dynamic programming in O(p²).
package layout

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Rect is an axis-aligned rectangle. Units depend on context: normalised
// (unit square) for the continuous layout, matrix blocks for the integer
// layout.
type Rect struct {
	X, Y, W, H float64
}

// Area returns W*H.
func (r Rect) Area() float64 { return r.W * r.H }

// HalfPerimeter returns W+H, the per-iteration communication volume driver.
func (r Rect) HalfPerimeter() float64 { return r.W + r.H }

// Layout is a column-based arrangement of one rectangle per processor.
type Layout struct {
	// Rects[i] is processor i's rectangle (input order, not sorted order).
	Rects []Rect
	// Columns lists the processor indices of each column, left to right,
	// top to bottom within a column.
	Columns [][]int
	// Cost is Σ(w_i + h_i) over all rectangles.
	Cost float64
}

// Continuous computes the optimal column-based layout of the unit square for
// the given relative areas (they are normalised internally; all must be
// positive).
func Continuous(areas []float64) (*Layout, error) {
	p := len(areas)
	if p == 0 {
		return nil, errors.New("layout: no areas")
	}
	var sum float64
	for i, a := range areas {
		if a <= 0 || math.IsNaN(a) || math.IsInf(a, 0) {
			return nil, fmt.Errorf("layout: invalid area %v at index %d", a, i)
		}
		sum += a
	}
	norm := make([]float64, p)
	for i, a := range areas {
		norm[i] = a / sum
	}

	// Sort processor indices by area, non-increasing.
	order := make([]int, p)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return norm[order[a]] > norm[order[b]] })

	// prefix[i] = sum of the first i sorted areas.
	prefix := make([]float64, p+1)
	for i, idx := range order {
		prefix[i+1] = prefix[i] + norm[idx]
	}

	// DP over contiguous groups: dp[i] = min cost of laying out the first i
	// sorted processors; choice[i] = start index of the last column.
	dp := make([]float64, p+1)
	choice := make([]int, p+1)
	for i := 1; i <= p; i++ {
		dp[i] = math.Inf(1)
		for k := 0; k < i; k++ {
			q := float64(i - k)
			w := prefix[i] - prefix[k]
			c := dp[k] + q*w + 1
			if c < dp[i] {
				dp[i] = c
				choice[i] = k
			}
		}
	}

	// Recover the column groups (in sorted order), then emit left to right.
	var groups [][]int
	for i := p; i > 0; i = choice[i] {
		groups = append([][]int{append([]int(nil), order[choice[i]:i]...)}, groups...)
	}

	l := &Layout{Rects: make([]Rect, p)}
	x := 0.0
	for _, g := range groups {
		var w float64
		for _, idx := range g {
			w += norm[idx]
		}
		y := 0.0
		col := make([]int, 0, len(g))
		for _, idx := range g {
			h := norm[idx] / w
			l.Rects[idx] = Rect{X: x, Y: y, W: w, H: h}
			y += h
			col = append(col, idx)
		}
		l.Columns = append(l.Columns, col)
		x += w
	}
	for _, r := range l.Rects {
		l.Cost += r.HalfPerimeter()
	}
	return l, nil
}

// BlockLayout is an integer layout over an n×n block matrix: rectangles have
// integer coordinates and sizes in blocks and tile the matrix exactly.
type BlockLayout struct {
	// N is the matrix size in blocks.
	N int
	// Rects[i] is processor i's rectangle in block units.
	Rects []Rect
	// Columns as in Layout.
	Columns [][]int
}

// CommVolume returns Σ(w_i + h_i) in blocks — proportional to the volume of
// pivot-row and pivot-column data each iteration broadcasts.
func (b *BlockLayout) CommVolume() float64 {
	var v float64
	for _, r := range b.Rects {
		v += r.HalfPerimeter()
	}
	return v
}

// Discretize converts a continuous layout into an integer block layout of an
// n×n matrix: column widths are rounded to blocks summing to n (largest
// remainder), then each column's heights are rounded to sum to n. Processors
// whose rounded rectangle collapses to zero width/height receive none — the
// caller should avoid zero areas for devices expected to work.
func (l *Layout) Discretize(n int) (*BlockLayout, error) {
	if n <= 0 {
		return nil, fmt.Errorf("layout: invalid matrix size %d", n)
	}
	bl := &BlockLayout{N: n, Rects: make([]Rect, len(l.Rects))}

	widths := make([]float64, len(l.Columns))
	for j, col := range l.Columns {
		widths[j] = l.Rects[col[0]].W
	}
	intWidths := roundToSum(widths, n)

	x := 0
	for j, col := range l.Columns {
		w := intWidths[j]
		heights := make([]float64, len(col))
		for k, idx := range col {
			heights[k] = l.Rects[idx].H
		}
		intHeights := roundToSum(heights, n)
		y := 0
		colOut := make([]int, 0, len(col))
		for k, idx := range col {
			h := intHeights[k]
			bl.Rects[idx] = Rect{X: float64(x), Y: float64(y), W: float64(w), H: float64(h)}
			y += h
			colOut = append(colOut, idx)
		}
		bl.Columns = append(bl.Columns, colOut)
		x += w
	}
	return bl, nil
}

// roundToSum rounds non-negative weights to integers summing to total using
// the largest-remainder method.
func roundToSum(weights []float64, total int) []int {
	var sum float64
	for _, w := range weights {
		sum += w
	}
	out := make([]int, len(weights))
	if sum <= 0 {
		for i := range out {
			out[i] = total / len(out)
		}
		out[0] += total - (total/len(out))*len(out)
		return out
	}
	type frac struct {
		i int
		f float64
	}
	fr := make([]frac, len(weights))
	assigned := 0
	for i, w := range weights {
		scaled := w * float64(total) / sum
		fl := math.Floor(scaled)
		out[i] = int(fl)
		assigned += out[i]
		fr[i] = frac{i: i, f: scaled - fl}
	}
	sort.Slice(fr, func(a, b int) bool {
		if fr[a].f != fr[b].f {
			return fr[a].f > fr[b].f
		}
		return fr[a].i < fr[b].i
	})
	for r := total - assigned; r > 0; r-- {
		out[fr[(total-assigned)-r].i]++
	}
	return out
}

// Validate checks that the block layout tiles the n×n matrix exactly: no
// overlap, full coverage. It is used by tests and as a safety check before
// running the application.
func (b *BlockLayout) Validate() error {
	covered := make([]bool, b.N*b.N)
	for i, r := range b.Rects {
		x0, y0, w, h := int(r.X), int(r.Y), int(r.W), int(r.H)
		if float64(x0) != r.X || float64(y0) != r.Y || float64(w) != r.W || float64(h) != r.H {
			return fmt.Errorf("layout: rect %d not integral: %+v", i, r)
		}
		if x0 < 0 || y0 < 0 || x0+w > b.N || y0+h > b.N {
			return fmt.Errorf("layout: rect %d out of bounds: %+v", i, r)
		}
		for y := y0; y < y0+h; y++ {
			for x := x0; x < x0+w; x++ {
				if covered[y*b.N+x] {
					return fmt.Errorf("layout: overlap at block (%d,%d)", x, y)
				}
				covered[y*b.N+x] = true
			}
		}
	}
	for i, c := range covered {
		if !c {
			return fmt.Errorf("layout: block (%d,%d) uncovered", i%b.N, i/b.N)
		}
	}
	return nil
}
