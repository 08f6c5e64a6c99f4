package blas

import "fpmpart/internal/telemetry"

// Kernel telemetry: where GEMM wall time goes (packing vs micro-kernel
// compute) and the throughput achieved. Everything is recorded on the
// process-wide registry and is free while telemetry is disabled, so the hot
// path only pays when a tool runs with -metrics-addr / -telemetry-json.
var (
	gemmCalls          = telemetry.Default().Counter("blas_gemm_calls_total")
	gemmFlopsTotal     = telemetry.Default().Counter("blas_gemm_flops_total")
	gemmPackSeconds    = telemetry.Default().Counter("blas_gemm_pack_seconds_total")
	gemmComputeSeconds = telemetry.Default().Counter("blas_gemm_compute_seconds_total")
	gemmGflops         = telemetry.Default().Histogram("blas_gemm_gflops", telemetry.ExpBuckets(0.125, 2, 12))
)

// recordGemm publishes one packed-GEMM call's breakdown. flops is the
// nominal 2·m·n·k operation count; packSec/computeSec are summed across
// workers, wallSec is elapsed time (the GFLOPS denominator).
func recordGemm(m, n, k int, packSec, computeSec, wallSec float64) {
	reg := telemetry.Default()
	if !reg.Enabled() {
		return
	}
	flops := 2 * float64(m) * float64(n) * float64(k)
	gemmCalls.Inc()
	gemmFlopsTotal.Add(flops)
	gemmPackSeconds.Add(packSec)
	gemmComputeSeconds.Add(computeSec)
	if wallSec > 0 {
		gemmGflops.Observe(flops / wallSec / 1e9)
	}
}
