package stats

import (
	"math"
	"math/rand"
)

// Noise models multiplicative measurement noise applied to simulated kernel
// timings: each observation of a true time t is reported as t * (1 + e) with
// e drawn from a truncated normal distribution. System noise on a dedicated
// HPC node is small and roughly symmetric, which this reproduces.
type Noise struct {
	rng  *rand.Rand
	seed int64
	// Sigma is the relative standard deviation of the noise (e.g. 0.02).
	Sigma float64
	// Clip bounds |e| so a single outlier cannot produce a non-positive or
	// wildly wrong time. Defaults to 3*Sigma when zero.
	Clip float64
}

// NewNoise returns a reproducible noise source with the given seed and
// relative standard deviation.
func NewNoise(seed int64, sigma float64) *Noise {
	return &Noise{rng: rand.New(rand.NewSource(seed)), seed: seed, Sigma: sigma}
}

// ForPoint derives an independent noise stream for the measurement point x.
// The derived seed depends only on the parent's seed and on x — not on how
// many draws other points have consumed — so measurements of different
// points can run concurrently and still observe exactly the noise a
// sequential sweep over the same points would produce. Repetitions at the
// point draw from the derived stream sequentially.
func (n *Noise) ForPoint(x float64) *Noise {
	if n == nil {
		return nil
	}
	seed := mixSeed(n.seed, x)
	return &Noise{rng: rand.New(rand.NewSource(seed)), seed: seed, Sigma: n.Sigma, Clip: n.Clip}
}

// mixSeed combines a base seed with a problem size into a well-spread child
// seed, so neighbouring sizes (and neighbouring base seeds) get uncorrelated
// streams.
func mixSeed(seed int64, x float64) int64 {
	return int64(Mix64(uint64(seed) ^ math.Float64bits(x)))
}

// Mix64 returns one SplitMix64 output for the state z: z advanced by the
// golden-ratio increment, then passed through the SplitMix64 finaliser. It
// spreads nearby inputs into uncorrelated 64-bit values, for deriving
// independent child seeds.
func Mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Perturb returns t*(1+e) with e ~ truncated N(0, Sigma^2).
func (n *Noise) Perturb(t float64) float64 {
	if n == nil || n.Sigma <= 0 {
		return t
	}
	clip := n.Clip
	if clip <= 0 {
		clip = 3 * n.Sigma
	}
	e := n.rng.NormFloat64() * n.Sigma
	e = math.Max(-clip, math.Min(clip, e))
	return t * (1 + e)
}
