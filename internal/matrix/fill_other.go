//go:build !amd64 || noasm

package matrix

// fillRow is fillRowGeneric off amd64 and under the noasm build tag.
func fillRow(row []float32, state uint64) { fillRowGeneric(row, state) }
