//go:build !amd64 || noasm

package cpufeat

// Off amd64, and under the noasm build tag (which CI uses to exercise the
// pure-Go fallbacks on amd64), no assembly kernel is ever selected.

func detectAVX2FMA() bool { return false }

func detectAVX512() bool { return false }
