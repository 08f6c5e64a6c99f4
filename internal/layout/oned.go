package layout

import (
	"fmt"
	"math"
)

// OneD arranges the processors as full-width horizontal slabs — the naive
// one-dimensional partitioning that column-based partitioning improves on.
// Each processor's slab height is proportional to its area, so the workload
// balance is identical to the column-based layout's; only the communication
// volume differs: every slab has half-perimeter 1 + h_i, so the total is
// p + 1 against the column-based optimum of ≈ 2·√p for equal areas.
func OneD(areas []float64) (*Layout, error) {
	p := len(areas)
	if p == 0 {
		return nil, fmt.Errorf("layout: no areas")
	}
	var sum float64
	for i, a := range areas {
		if a <= 0 || math.IsNaN(a) || math.IsInf(a, 0) {
			return nil, fmt.Errorf("layout: invalid area %v at index %d", a, i)
		}
		sum += a
	}
	l := &Layout{Rects: make([]Rect, p)}
	y := 0.0
	col := make([]int, 0, p)
	for i, a := range areas {
		h := a / sum
		l.Rects[i] = Rect{X: 0, Y: y, W: 1, H: h}
		y += h
		col = append(col, i)
	}
	l.Columns = [][]int{col}
	for _, r := range l.Rects {
		l.Cost += r.HalfPerimeter()
	}
	return l, nil
}
