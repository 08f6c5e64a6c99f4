package hw

// Presets of the platforms used by the experiments.

const (
	// GiB is 2^30 bytes.
	GiB = 1 << 30
	// MiB is 2^20 bytes.
	MiB = 1 << 20
)

// NewOpteron8439SE returns the socket model of the paper's host CPU: a
// six-core AMD Opteron 8439SE at 2.8 GHz. Peak single-precision rate per
// core is 2.8 GHz × 8 flops/cycle = 22.4 Gflop/s; the ACML GEMM kernel
// reaches ~85% of peak on large problems, and active cores on one socket
// lose a few percent each to shared-resource contention — calibrated so a
// full socket delivers ≈105 Gflop/s and five cores ≈92 Gflop/s, matching
// Figure 2.
func NewOpteron8439SE() *Socket {
	return &Socket{
		Name:            "Opteron8439SE",
		Cores:           6,
		PeakCoreRate:    22.4e9,
		MinEff:          0.42,
		MaxEff:          0.86,
		RampElems:       18 * 640 * 640,
		ContentionAlpha: 0.018,
	}
}

// NewGTX680 returns the GeForce GTX680 model: 2 GiB device memory, two DMA
// engines with concurrent bidirectional transfers, and a device GEMM rate
// saturating near 950 Gflop/s. PCIe effective bandwidth is ~5 GB/s.
// Calibrated against Figure 3: version-1 kernels plateau near 420 Gflop/s,
// version-2 reaches ≈870 Gflop/s while the problem fits device memory and
// falls to ≈420 Gflop/s out-of-core, and version-3 overlap recovers ≈30–40%.
func NewGTX680() *GPU {
	return &GPU{
		Name:               "GTX680",
		MemBytes:           2048 * MiB,
		PeakRate:           985e9,
		RampElems:          28 * 640 * 640,
		MisalignPenalty:    0.82,
		H2DBandwidth:       4.0e9,
		D2HBandwidth:       4.0e9,
		TransferLatency:    30e-6,
		DMAEngines:         2,
		CopyComputeOverlap: 0.60,
		KernelLaunch:       12e-6,
	}
}

// NewTeslaC870 returns the Tesla C870 model: 1.5 GiB device memory, a single
// DMA engine (no concurrent bidirectional transfers), slower PCIe and a far
// lower compute rate (first-generation CUDA hardware, no double precision;
// the paper runs single precision). Calibrated so its combined speed is
// roughly twice a socket in-core and ~1.5× out-of-core, matching the G2/S6
// ratios of Table III.
func NewTeslaC870() *GPU {
	return &GPU{
		Name:               "TeslaC870",
		MemBytes:           1536 * MiB,
		PeakRate:           240e9,
		RampElems:          24 * 640 * 640,
		MisalignPenalty:    0.85,
		H2DBandwidth:       2.6e9,
		D2HBandwidth:       2.4e9,
		TransferLatency:    40e-6,
		DMAEngines:         1,
		CopyComputeOverlap: 0.55,
		KernelLaunch:       15e-6,
	}
}

// NewIGNode returns the paper's experimental platform (Table I,
// ig.icl.utk.edu): four six-core Opteron sockets with 16 GiB each, a
// GeForce GTX680 with a dedicated core on socket 1 and a Tesla C870 with a
// dedicated core on socket 0, blocking factor b = 640, single precision.
// The contention coefficients reproduce the paper's measurement that GPU
// speed drops 7–15% under CPU load on the same socket while CPU speed is
// barely affected.
func NewIGNode() *Node {
	return &Node{
		Name: "ig.icl.utk.edu",
		Sockets: []*Socket{
			NewOpteron8439SE(), NewOpteron8439SE(), NewOpteron8439SE(), NewOpteron8439SE(),
		},
		GPUs:           []*GPU{NewTeslaC870(), NewGTX680()},
		GPUSocket:      []int{0, 1},
		GPUContention:  0.89,
		CPUContention:  0.98,
		BlockSize:      640,
		ElemBytes:      4,
		SocketMemBytes: 16 * GiB,
		MemPressure:    0.75,
	}
}

// NewTestNode returns a small, fast, deterministic platform for unit tests:
// one 2-core socket and one tiny GPU, blocking factor 64. Only tests call it;
// it stays exported because the tests of several packages share it.
func NewTestNode() *Node {
	return &Node{
		Name: "testnode",
		Sockets: []*Socket{{
			Name:            "testcpu",
			Cores:           2,
			PeakCoreRate:    10e9,
			MinEff:          0.5,
			MaxEff:          0.9,
			RampElems:       4 * 64 * 64,
			ContentionAlpha: 0.05,
		}},
		GPUs: []*GPU{{
			Name:               "testgpu",
			MemBytes:           64 * MiB,
			PeakRate:           100e9,
			RampElems:          4 * 64 * 64,
			MisalignPenalty:    0.9,
			H2DBandwidth:       2e9,
			D2HBandwidth:       2e9,
			TransferLatency:    10e-6,
			DMAEngines:         2,
			CopyComputeOverlap: 0.6,
			KernelLaunch:       5e-6,
		}},
		GPUSocket:     []int{0},
		GPUContention: 0.9,
		CPUContention: 0.98,
		BlockSize:     64,
		ElemBytes:     4,
	}
}
