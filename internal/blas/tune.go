package blas

import "fmt"

// Config is one cache/register blocking parameter set for the packed GEMM:
// mc×kc blocks of A (sized for L2), kc×nc blocks of B (sized for L3, reused
// across the whole ic loop), and an mr×nr register tile.
type Config struct {
	MC, KC, NC int
	MR, NR     int
}

// DefaultConfig is the large shape class configuration, used by Gemm and
// GemmParallel. On amd64 with AVX2+FMA it selects the 6×16 assembly register
// tile (12 YMM accumulators); elsewhere the 8×4 scalar tile, which keeps
// 32 accumulators plus operand temporaries within what the compiler
// allocates to registers with modest spilling. In both cases the A block
// (~120×256 float32 ≈ 120 KiB) fits mid-size L2 caches and the B
// micro-panel (256×nr float32) stays in L1 across a panel sweep.
//
// It deliberately does NOT select the AVX-512 tile even when the CPU
// supports it: on several AVX-512 generations sustained 512-bit FMA drops
// the core's license frequency, which can slow the rest of a mixed
// workload. Only the small shape class uses the wider tile (see
// DefaultSmallConfig).
var DefaultConfig = defaultConfig()

func defaultConfig() Config {
	if hasAVX2FMA {
		return Config{MC: 120, KC: 256, NC: 2048, MR: 6, NR: 16}
	}
	return Config{MC: 128, KC: 256, NC: 2048, MR: 8, NR: 4}
}

// DefaultSmallConfig is the configuration for the small shape
// class (every dimension ≤ SmallSizeMax). With AVX-512 it selects the
// 8×32 assembly tile: small problems are latency-bound bursts where the
// doubled register-tile width is a pure win and license-frequency effects
// do not accumulate. MC/KC are sized so a whole SmallSizeMax problem is a
// single cache block — no mc fragmentation, B packed exactly once.
var DefaultSmallConfig = defaultSmallConfig()

func defaultSmallConfig() Config {
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

// SmallSizeMax is the boundary of the small shape class: problems whose
// largest dimension is at most SmallSizeMax select DefaultSmallConfig in
// ActiveFor. 256 is where the whole working set (three operands ≤ 256×256
// float32 = 768 KiB) still fits mid-size L2 caches, so cache blocking
// matters less than register tile width and per-call overhead.
const SmallSizeMax = 256

// ActiveFor selects the configuration by shape class: DefaultSmallConfig
// when every dimension is at most SmallSizeMax, DefaultConfig otherwise.
// Callers sizing individual GEMM calls pass its result to GemmPacked.
func ActiveFor(m, k, n int) Config {
	if m <= SmallSizeMax && k <= SmallSizeMax && n <= SmallSizeMax {
		return DefaultSmallConfig
	}
	return DefaultConfig
}
