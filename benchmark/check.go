package main

import (
	"fmt"

	"fpmpart/internal/workerd"
)

// checkBands verifies that the shards, in row order, tile [0,rows) exactly
// and that each ran on its first attempt.
func checkBands(shards []workerd.ShardReport, rows int) error {
	cur := 0
	for _, s := range shards {
		if s.Row0 != cur || s.Row1 <= s.Row0 || s.Units != s.Row1-s.Row0 {
			return fmt.Errorf("band [%d,%d) of %d units does not continue at row %d", s.Row0, s.Row1, s.Units, cur)
		}
		if s.Attempt != 0 {
			return fmt.Errorf("band [%d,%d) was re-dispatched (attempt %d)", s.Row0, s.Row1, s.Attempt)
		}
		cur = s.Row1
	}
	if cur != rows {
		return fmt.Errorf("bands cover %d of %d rows", cur, rows)
	}
	return nil
}

// answer is what the benchmark reads of a /v1/partition response.
type answer struct {
	Total   int `json:"total"`
	Devices []struct {
		Units int `json:"units"`
	} `json:"devices"`
	Converged bool     `json:"converged"`
	Cached    bool     `json:"cached"`
	Coalesced bool     `json:"coalesced"`
	ModelGens []uint64 `json:"model_generations"`
	Origin    string   `json:"origin"`
}

// check verifies a partition answer for n units over devices models.
func (a *answer) check(n, devices int) error {
	if len(a.Devices) != devices {
		return fmt.Errorf("%d devices answered, %d asked", len(a.Devices), devices)
	}
	sum := 0
	for _, d := range a.Devices {
		if d.Units < 0 {
			return fmt.Errorf("negative share %d", d.Units)
		}
		sum += d.Units
	}
	if sum != n || a.Total != n {
		return fmt.Errorf("shares sum to %d (total %d), want %d", sum, a.Total, n)
	}
	if !a.Converged {
		return fmt.Errorf("solver did not converge for n=%d", n)
	}
	return nil
}

func (a *answer) units() []int {
	out := make([]int, len(a.Devices))
	for i, d := range a.Devices {
		out[i] = d.Units
	}
	return out
}

// genChecker asserts that the generations one observer sees for a model
// through a member never decrease. Each client owns one: across clients
// the order of two answers is not defined.
type genChecker map[genKey]uint64

type genKey struct{ member, model string }

func (g genChecker) observe(member, model string, gen uint64) error {
	k := genKey{member, model}
	if last := g[k]; gen < last {
		return fmt.Errorf("model %s via %s: generation %d after %d", model, member, gen, last)
	}
	g[k] = gen
	return nil
}
