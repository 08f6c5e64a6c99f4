package blas

import (
	"math"
	"testing"

	"fpmpart/internal/matrix"
)

// FuzzGemmDifferential cross-checks every optimised GEMM against the
// reference loop over fuzzer-chosen shapes, view offsets (strided
// operands), alpha/beta, blocking configurations, and worker counts. The
// f.Add seeds below run as part of the normal test suite, covering the
// interesting boundary shapes even when no fuzzing engine is attached; run
// `go test -fuzz=FuzzGemmDifferential ./internal/blas` to explore further.
//
// It also pins the determinism guarantee: the packed kernel's result is
// bit-identical at any worker count (each register tile is computed by
// exactly one worker in a fixed accumulation order), and the seeded-operand
// guarantee: seeded windows at seed-derived offsets give the bytes of the
// same windows materialised.
func FuzzGemmDifferential(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(1), uint8(1), uint8(0), uint8(0), uint8(0), uint8(1), uint8(0))
	f.Add(int64(2), uint8(7), uint8(5), uint8(9), uint8(3), uint8(1), uint8(2), uint8(3), uint8(1))
	f.Add(int64(3), uint8(32), uint8(17), uint8(24), uint8(1), uint8(2), uint8(1), uint8(4), uint8(2))
	f.Add(int64(4), uint8(33), uint8(40), uint8(31), uint8(7), uint8(3), uint8(3), uint8(2), uint8(3))
	f.Add(int64(5), uint8(19), uint8(3), uint8(50), uint8(2), uint8(1), uint8(4), uint8(8), uint8(4))
	f.Add(int64(6), uint8(48), uint8(25), uint8(16), uint8(5), uint8(4), uint8(0), uint8(1), uint8(5))
	f.Add(int64(7), uint8(6), uint8(16), uint8(16), uint8(0), uint8(0), uint8(1), uint8(5), uint8(0))

	alphas := []float32{0, 1, -1, 1.5, 0.25}
	betas := []float32{0, 1, -0.5, 2, 0.75}
	configs := []Config{
		DefaultConfig,
		{MC: 8, KC: 4, NC: 8, MR: 4, NR: 4},
		{MC: 16, KC: 8, NC: 16, MR: 8, NR: 4},
		{MC: 8, KC: 16, NC: 16, MR: 4, NR: 8},
		{MC: 10, KC: 8, NC: 15, MR: 5, NR: 3}, // generic fringe kernel
		{MC: 12, KC: 32, NC: 32, MR: 6, NR: 16},
	}

	f.Fuzz(func(t *testing.T, seed int64, mRaw, kRaw, nRaw, offRaw, alphaRaw, betaRaw, workersRaw, cfgRaw uint8) {
		m := int(mRaw%52) + 1
		k := int(kRaw%52) + 1
		n := int(nRaw%52) + 1
		oi := int(offRaw % 4)
		oj := int(offRaw / 4 % 4)
		alpha := alphas[int(alphaRaw)%len(alphas)]
		beta := betas[int(betaRaw)%len(betas)]
		workers := int(workersRaw%8) + 1
		cfg := configs[int(cfgRaw)%len(configs)]

		// Operands are views into larger parents, so Stride > Cols and the
		// data is surrounded by sentinel values the kernels must not touch.
		view := func(rows, cols int, s int64) *matrix.Dense {
			parent := matrix.MustNew(rows+oi+2, cols+oj+3)
			parent.FillConstant(999)
			v, err := parent.View(oi, oj, rows, cols)
			if err != nil {
				t.Fatal(err)
			}
			v.FillRandom(s)
			return v
		}
		a := view(m, k, seed)
		b := view(k, n, seed+1)
		c0 := view(m, n, seed+2)

		// cloneView replicates c0 into a fresh strided view so every
		// implementation writes through a view with sentinel-guarded
		// surroundings.
		cloneView := func() (*matrix.Dense, func(name string)) {
			parent := matrix.MustNew(m+oi+2, n+oj+3)
			parent.FillConstant(999)
			v, err := parent.View(oi, oj, m, n)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					v.Set(i, j, c0.At(i, j))
				}
			}
			checkSentinels := func(name string) {
				t.Helper()
				for i := 0; i < parent.Rows; i++ {
					for j := 0; j < parent.Cols; j++ {
						inside := i >= oi && i < oi+m && j >= oj && j < oj+n
						if !inside && parent.At(i, j) != 999 {
							t.Fatalf("%s wrote outside its C view at parent (%d,%d): %v", name, i, j, parent.At(i, j))
						}
					}
				}
			}
			return v, checkSentinels
		}

		want, _ := cloneView()
		if err := GemmNaive(alpha, a, b, beta, want); err != nil {
			t.Fatal(err)
		}
		tol := 1e-4 * float64(k)

		check := func(name string, got *matrix.Dense) {
			t.Helper()
			if d := matrix.MaxAbsDiff(got, want); d > tol {
				t.Errorf("%s differs from naive by %v (m=%d k=%d n=%d alpha=%v beta=%v cfg=%v workers=%d)",
					name, d, m, k, n, alpha, beta, cfg, workers)
			}
		}

		cBlocked, sentBlocked := cloneView()
		if err := GemmBlocked(alpha, a, b, beta, cBlocked, 16); err != nil {
			t.Fatal(err)
		}
		check("blocked", cBlocked)
		sentBlocked("blocked")

		cPacked, sentPacked := cloneView()
		if err := GemmPacked(alpha, a, b, beta, cPacked, cfg, 1); err != nil {
			t.Fatal(err)
		}
		check("packed", cPacked)
		sentPacked("packed")

		cPar, sentPar := cloneView()
		if err := GemmPacked(alpha, a, b, beta, cPar, cfg, workers); err != nil {
			t.Fatal(err)
		}
		check("packed-parallel", cPar)
		sentPar("packed-parallel")
		if d := matrix.MaxAbsDiff(cPar, cPacked); d != 0 {
			t.Errorf("packed kernel not deterministic across worker counts: |w=%d - w=1| = %v", workers, d)
		}

		cActive, sentActive := cloneView()
		if err := Gemm(alpha, a, b, beta, cActive); err != nil {
			t.Fatal(err)
		}
		check("gemm-active-config", cActive)
		sentActive("gemm-active-config")

		// The configuration the fleet's workers run (DefaultConfig, the
		// AVX-512 8x32 tile where the CPU has it), at the fuzzed worker
		// count, must agree with the reference too.
		cDefault, sentDefault := cloneView()
		if err := GemmPacked(alpha, a, b, beta, cDefault, DefaultConfig, workers); err != nil {
			t.Fatal(err)
		}
		check("packed-default-config", cDefault)
		sentDefault("packed-default-config")

		// Seeded A and B, windows at offsets the seed picks, against the
		// same windows materialised, through the fuzzed configuration.
		wr, wc := int(uint64(seed)%37), int(uint64(seed)/37%41)
		sa := matrix.Seeded{Seed: seed, Width: k + wc + oj, Row0: wr, Col0: wc, Rows: m, Cols: k}
		sb := matrix.Seeded{Seed: seed + 1, Width: n + wc, Row0: wr + oi, Col0: wc, Rows: k, Cols: n}
		da, db := matrix.MustNew(m, k), matrix.MustNew(k, n)
		sa.Fill(da)
		sb.Fill(db)
		cMat, _ := cloneView()
		if err := GemmPacked(alpha, da, db, beta, cMat, cfg, workers); err != nil {
			t.Fatal(err)
		}
		cSeeded, sentSeeded := cloneView()
		if err := GemmPacked(alpha, sa, sb, beta, cSeeded, cfg, workers); err != nil {
			t.Fatal(err)
		}
		sentSeeded("packed-seeded")
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				if g, w := cSeeded.At(i, j), cMat.At(i, j); math.Float32bits(g) != math.Float32bits(w) {
					t.Fatalf("seeded operands differ from materialised at (%d,%d): %v vs %v (m=%d k=%d n=%d at (%d,%d) cfg=%v workers=%d)",
						i, j, g, w, m, k, n, wr, wc, cfg, workers)
				}
			}
		}
	})
}
