//go:build amd64 && !noasm

package matrix

import "fpmpart/internal/cpufeat"

// fillRowAVX512 is fillRowGeneric for len(row) a multiple of 16, sixteen
// elements per iteration in two 8-lane ZMM chains. Implemented in
// fill_amd64.s; it needs AVX-512 F and DQ (VPMULLQ), which cpufeat.AVX512
// implies, and is only called when that is true.
func fillRowAVX512(row []float32, state uint64)

// fillRow is fillRowGeneric, with the row's first len&^15 elements written
// by the AVX-512 kernel when the CPU supports it.
func fillRow(row []float32, state uint64) {
	if n := len(row) &^ 15; n > 0 && cpufeat.AVX512 {
		fillRowAVX512(row[:n], state)
		row, state = row[n:], state+uint64(n)*splitMixGamma
	}
	fillRowGeneric(row, state)
}
