package blas

import "fmt"

// Config is one cache/register blocking parameter set for the packed GEMM:
// mc×kc blocks of A (sized for L2), kc×nc blocks of B (sized for L3, reused
// across the whole ic loop), and an mr×nr register tile.
type Config struct {
	MC, KC, NC int
	MR, NR     int
}

// DefaultConfig is the one blocking configuration per ISA, used by Gemm,
// GemmParallel and every caller sizing a GEMM call (workerd's shard kernel
// and its self-calibration):
//
//   - AVX-512: the 8×32 assembly tile (16 ZMM accumulators), mc256 kc256.
//   - AVX2+FMA: the 6×16 assembly tile (12 YMM accumulators), mc258 kc256.
//   - otherwise: the 8×4 scalar tile, which keeps 32 accumulators plus
//     operand temporaries within what the compiler allocates to registers
//     with modest spilling, mc256 kc256.
//
// The widest tile the CPU has is the fastest where measured, on a 2-vCPU
// AVX-512 Xeon: a 3072×1536×1536 GEMM (exec-large's fast shard) at one thread
// takes 146–200 ms on 8×32 against 290–395 ms on the 6×16 tile with mc120,
// and BenchmarkGemmMicroKernels (512×1024×512, four kc blocks) runs 8×32
// at 87 GFLOP/s against 47 for 6×16. Whatever the 512-bit units cost in
// core frequency is inside those times. The choice does not depend on the
// shape, so the speed a worker's FPM measures has no step the device lacks.
//
// KC is 256 on every ISA, and the 6×16 and 8×32 tiles run the same in-order
// FMA chain per C element from a +0 accumulator, so they produce identical
// bytes (TestTilesBitIdentical): a mixed AVX2/AVX-512 fleet gathers the
// same C.
var DefaultConfig = defaultConfig()

func defaultConfig() Config {
	if hasAVX512 {
		return Config{MC: 256, KC: 256, NC: 2048, MR: 8, NR: 32}
	}
	if hasAVX2FMA {
		return Config{MC: 258, KC: 256, NC: 2048, MR: 6, NR: 16}
	}
	return Config{MC: 256, KC: 256, NC: 2048, MR: 8, NR: 4}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.MC <= 0 || c.KC <= 0 || c.NC <= 0 {
		return fmt.Errorf("blas: invalid cache blocking mc=%d kc=%d nc=%d", c.MC, c.KC, c.NC)
	}
	if c.MR <= 0 || c.NR <= 0 || c.MR > maxMR || c.NR > maxNR {
		return fmt.Errorf("blas: register tile %dx%d outside 1..%dx1..%d", c.MR, c.NR, maxMR, maxNR)
	}
	if c.MC%c.MR != 0 {
		return fmt.Errorf("blas: mc=%d not a multiple of mr=%d", c.MC, c.MR)
	}
	if c.NC%c.NR != 0 {
		return fmt.Errorf("blas: nc=%d not a multiple of nr=%d", c.NC, c.NR)
	}
	return nil
}

// String renders the tile set compactly, e.g. "mc128 kc256 nc2048 r8x4".
func (c Config) String() string {
	return fmt.Sprintf("mc%d kc%d nc%d r%dx%d", c.MC, c.KC, c.NC, c.MR, c.NR)
}

// ActiveFor returns DefaultConfig whatever the shape. It is kept only
// because the benchmark harness (benchmark/exec.go) calls it; new callers
// use DefaultConfig.
func ActiveFor(m, k, n int) Config {
	return DefaultConfig
}
