package partition

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// RoundShares converts continuous shares into non-negative integers that sum
// exactly to n, never exceed per-device caps, and stay within one unit of
// the *cap-clamped* proportionally scaled shares (largest-remainder method):
// the shares are first scaled to sum to n, then any excess above a device's
// cap is redistributed over the devices with headroom, and only that clamped
// continuous solution is rounded. When no caps bind, the clamped solution is
// the plain proportional scaling, recovering the classic largest-remainder
// guarantee; when caps do bind, the one-unit bound deliberately holds
// against the clamped shares — a capped device's overflow has to land
// somewhere, so the raw proportional shares are unreachable by any rounding.
//
// caps[i] may be +Inf for uncapped devices. Fractional caps are floored
// first: units are integers, so a cap of 5.7 admits at most 5.
func RoundShares(shares []float64, n int, caps []float64) ([]int, error) {
	if len(shares) == 0 {
		return nil, fmt.Errorf("partition: no shares to round")
	}
	if len(caps) != len(shares) {
		return nil, fmt.Errorf("partition: %d caps for %d shares", len(caps), len(shares))
	}
	if n < 0 {
		return nil, fmt.Errorf("partition: negative total %d", n)
	}
	var sum float64
	for i, s := range shares {
		if s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
			return nil, fmt.Errorf("partition: invalid share %v at index %d", s, i)
		}
		sum += s
	}
	for i, c := range caps {
		if c < 0 || math.IsNaN(c) {
			return nil, fmt.Errorf("partition: invalid cap %v at index %d", c, i)
		}
	}
	scaled := make([]float64, len(shares))
	if sum == 0 {
		// Degenerate: distribute evenly.
		for i := range scaled {
			scaled[i] = float64(n) / float64(len(shares))
		}
	} else {
		for i, s := range shares {
			scaled[i] = s * float64(n) / sum
		}
	}
	// Respect caps on the continuous solution first, working with the
	// integer-effective (floored) caps: clampShares redistributes every
	// capped device's overflow over the devices with headroom, so the
	// clamped scaled shares still sum to n whenever the caps admit an
	// integer solution at all.
	eff := make([]float64, len(caps))
	for i, c := range caps {
		eff[i] = math.Floor(c) // +Inf stays +Inf
	}
	clampShares(scaled, eff, float64(n))

	units := make([]int, len(scaled))
	assigned := 0
	type frac struct {
		i int
		f float64
	}
	fracs := make([]frac, 0, len(scaled))
	for i, s := range scaled {
		fl := math.Floor(s + 1e-9) // tolerate FP dust just below an integer
		if fl > eff[i] {
			fl = eff[i]
		}
		units[i] = int(fl)
		assigned += units[i]
		fracs = append(fracs, frac{i: i, f: s - fl})
	}
	remaining := n - assigned
	if remaining < 0 {
		// Over-assignment can only come from the 1e-9 dust tolerance; take
		// units back from the smallest fractional parts.
		slices.SortFunc(fracs, func(a, b frac) int { return cmp.Compare(a.f, b.f) })
		for _, fr := range fracs {
			if remaining == 0 {
				break
			}
			if units[fr.i] > 0 {
				units[fr.i]--
				remaining++
			}
		}
	}
	slices.SortFunc(fracs, func(a, b frac) int {
		if c := cmp.Compare(b.f, a.f); c != 0 {
			return c
		}
		return cmp.Compare(a.i, b.i) // deterministic tie-break
	})
	// Largest-remainder top-up. After a successful clamp a single pass
	// suffices (a device blocked by its cap necessarily has a zero
	// fractional part, so every remainder lands on a device with headroom,
	// one unit each); the outer loop only spins again — and ultimately
	// errors — when the caps admit no integer solution.
	for remaining > 0 {
		progress := false
		for _, fr := range fracs {
			if remaining == 0 {
				break
			}
			if float64(units[fr.i]+1) <= eff[fr.i] {
				units[fr.i]++
				remaining--
				progress = true
			}
		}
		if !progress {
			return nil, fmt.Errorf("partition: caps prevent distributing %d remaining units", remaining)
		}
	}
	return units, nil
}
