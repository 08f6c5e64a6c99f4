// Package hw models the hardware of a hybrid multicore/multi-GPU node: CPU
// sockets whose cores contend for shared resources, and GPUs with separate
// device memory reached over PCI Express.
//
// These models replace the physical testbed of the paper (Table I: 4×6-core
// AMD Opteron 8439SE + GeForce GTX680 + Tesla C870). They are *cost models*:
// given a problem size and an execution configuration they produce execution
// times, which the benchmarking layer turns into functional performance
// models exactly as the paper does with wall-clock measurements. Parameters
// are calibrated so the resulting speed levels and curve shapes match the
// paper's figures (Figures 2, 3 and 5).
package hw

import (
	"fmt"
	"math"
)

// Workload constants for the paper's application: blocked matrix
// multiplication in single precision with blocking factor b.

// BlockFlops returns the floating-point operations of one computation unit:
// the rank-b update of one b×b block of C costs 2·b³ flops.
func BlockFlops(b int) float64 { return 2 * float64(b) * float64(b) * float64(b) }

// BlockBytes returns the bytes of one b×b single-precision block.
func BlockBytes(b, elemBytes int) float64 { return float64(b) * float64(b) * float64(elemBytes) }

// Socket models one multicore CPU socket with private memory (NUMA): cores
// are identical but share memory bandwidth and last-level cache, so the
// per-core speed depends on how many cores are active — the reason the paper
// models a socket, not a core, as the unit of performance.
type Socket struct {
	// Name identifies the socket model ("Opteron8439SE").
	Name string `json:"name"`
	// Cores is the number of physical cores.
	Cores int `json:"cores"`
	// PeakCoreRate is the per-core peak arithmetic rate, flops/second.
	PeakCoreRate float64 `json:"peak_core_rate"`
	// MinEff and MaxEff bound the GEMM kernel efficiency: efficiency ramps
	// from MinEff at tiny problems to MaxEff asymptotically as per-core
	// problem size grows (cache-blocked GEMM amortises its overheads).
	MinEff float64 `json:"min_eff"`
	MaxEff float64 `json:"max_eff"`
	// RampElems is the per-core problem size — expressed as element area
	// (elements of C), which is what the cache-blocked kernel actually
	// sees — at which half the efficiency ramp is reached.
	RampElems float64 `json:"ramp_elems"`
	// ContentionAlpha is the per-additional-active-core slowdown of every
	// core on the socket: factor = 1/(1+alpha·(active-1)).
	ContentionAlpha float64 `json:"contention_alpha"`
	// DipStartElems and DipDepth optionally model a last-level-cache dip:
	// once the per-core working set passes DipStartElems elements, the
	// efficiency is reduced by up to DipDepth (fraction, e.g. 0.15), fading
	// in over one octave of problem size. Zero values disable the dip.
	// Speed functions with such dips are the paper's situation (i): tasks
	// crossing levels of the memory hierarchy — exactly what constant
	// models cannot express.
	DipStartElems float64 `json:"dip_start_elems,omitempty"`
	DipDepth      float64 `json:"dip_depth,omitempty"`
}

// Validate reports configuration errors.
func (s *Socket) Validate() error {
	switch {
	case s.Cores <= 0:
		return fmt.Errorf("hw: socket %s: cores %d", s.Name, s.Cores)
	case s.PeakCoreRate <= 0:
		return fmt.Errorf("hw: socket %s: peak rate %v", s.Name, s.PeakCoreRate)
	case s.MinEff <= 0 || s.MaxEff < s.MinEff || s.MaxEff > 1:
		return fmt.Errorf("hw: socket %s: efficiency bounds (%v,%v)", s.Name, s.MinEff, s.MaxEff)
	case s.RampElems <= 0:
		return fmt.Errorf("hw: socket %s: ramp %v", s.Name, s.RampElems)
	case s.ContentionAlpha < 0:
		return fmt.Errorf("hw: socket %s: contention %v", s.Name, s.ContentionAlpha)
	case s.DipDepth < 0 || s.DipDepth >= 1 || s.DipStartElems < 0:
		return fmt.Errorf("hw: socket %s: dip (%v, %v)", s.Name, s.DipStartElems, s.DipDepth)
	}
	return nil
}

// efficiency returns the GEMM efficiency at per-core problem size of
// yElems elements of C.
func (s *Socket) efficiency(yElems float64) float64 {
	if yElems <= 0 {
		return s.MinEff
	}
	eff := s.MinEff + (s.MaxEff-s.MinEff)*yElems/(yElems+s.RampElems)
	if s.DipDepth > 0 && s.DipStartElems > 0 && yElems > s.DipStartElems {
		// Fade the dip in over one octave beyond its start.
		frac := (yElems - s.DipStartElems) / s.DipStartElems
		if frac > 1 {
			frac = 1
		}
		eff *= 1 - s.DipDepth*frac
	}
	return eff
}

// contention returns the per-core speed factor with `active` cores running.
func (s *Socket) contention(active int) float64 {
	if active <= 1 {
		return 1
	}
	return 1 / (1 + s.ContentionAlpha*float64(active-1))
}

// CoreRate returns the achieved per-core rate (flops/s) when `active` cores
// each execute the GEMM kernel on a per-core problem of y blocks of b×b
// elements.
func (s *Socket) CoreRate(y float64, active, b int) float64 {
	if active < 1 {
		active = 1
	}
	if active > s.Cores {
		active = s.Cores
	}
	return s.PeakCoreRate * s.efficiency(y*float64(b)*float64(b)) * s.contention(active)
}

// KernelTime returns the wall time of one kernel invocation in which
// `active` cores of the socket collectively update x blocks (x/active blocks
// per core, executed in parallel), with blocking factor b.
func (s *Socket) KernelTime(x float64, active, b int) float64 {
	if x <= 0 {
		return 0
	}
	if active < 1 {
		active = 1
	}
	if active > s.Cores {
		active = s.Cores
	}
	perCore := x / float64(active)
	rate := s.CoreRate(perCore, active, b)
	return perCore * BlockFlops(b) / rate
}

// GPU models one accelerator: a device with private memory connected to the
// host over PCI Express, driven by a dedicated host core.
type GPU struct {
	// Name identifies the device ("GTX680", "TeslaC870").
	Name string `json:"name"`
	// MemBytes is the usable device memory.
	MemBytes float64 `json:"mem_bytes"`
	// PeakRate is the asymptotic device GEMM rate, flops/second.
	PeakRate float64 `json:"peak_rate"`
	// RampElems is the tile size — as element area of C — at which half of
	// PeakRate is reached (kernel launch and occupancy ramp).
	RampElems float64 `json:"ramp_elems"`
	// MisalignPenalty multiplies the rate when tile dimensions are not
	// multiples of 32 elements (the CUBLAS Level-3 alignment effect the
	// paper cites from Barrachina et al.).
	MisalignPenalty float64 `json:"misalign_penalty"`
	// H2DBandwidth and D2HBandwidth are PCIe bandwidths, bytes/second.
	H2DBandwidth float64 `json:"h2d_bandwidth"`
	D2HBandwidth float64 `json:"d2h_bandwidth"`
	// TransferLatency is the fixed cost of one transfer operation, seconds.
	TransferLatency float64 `json:"transfer_latency"`
	// DMAEngines is 1 (Tesla C870) or 2 (GeForce GTX680): with one engine,
	// host-to-device and device-to-host transfers serialise.
	DMAEngines int `json:"dma_engines"`
	// CopyComputeOverlap in [0,1] is the fraction of transfer time that the
	// overlapped (version-3) kernel manages to hide under computation;
	// imperfect overlap reflects stream synchronisation and pinned-buffer
	// staging costs on real hardware.
	CopyComputeOverlap float64 `json:"copy_compute_overlap"`
	// KernelLaunch is the fixed cost of one device kernel launch, seconds.
	KernelLaunch float64 `json:"kernel_launch"`
}

// Validate reports configuration errors.
func (g *GPU) Validate() error {
	switch {
	case g.MemBytes <= 0:
		return fmt.Errorf("hw: gpu %s: memory %v", g.Name, g.MemBytes)
	case g.PeakRate <= 0:
		return fmt.Errorf("hw: gpu %s: peak rate %v", g.Name, g.PeakRate)
	case g.RampElems < 0:
		return fmt.Errorf("hw: gpu %s: ramp %v", g.Name, g.RampElems)
	case g.MisalignPenalty <= 0 || g.MisalignPenalty > 1:
		return fmt.Errorf("hw: gpu %s: misalign penalty %v", g.Name, g.MisalignPenalty)
	case g.H2DBandwidth <= 0 || g.D2HBandwidth <= 0:
		return fmt.Errorf("hw: gpu %s: bandwidth (%v,%v)", g.Name, g.H2DBandwidth, g.D2HBandwidth)
	case g.TransferLatency < 0 || g.KernelLaunch < 0:
		return fmt.Errorf("hw: gpu %s: latencies (%v,%v)", g.Name, g.TransferLatency, g.KernelLaunch)
	case g.DMAEngines != 1 && g.DMAEngines != 2:
		return fmt.Errorf("hw: gpu %s: DMA engines %d", g.Name, g.DMAEngines)
	case g.CopyComputeOverlap < 0 || g.CopyComputeOverlap > 1:
		return fmt.Errorf("hw: gpu %s: overlap %v", g.Name, g.CopyComputeOverlap)
	}
	return nil
}

// Rate returns the achieved device GEMM rate for a tile whose element
// dimensions are rows×cols; the alignment penalty applies when either
// dimension is not a multiple of 32 elements.
func (g *GPU) Rate(rowsElems, colsElems int) float64 {
	area := float64(rowsElems) * float64(colsElems)
	if area <= 0 {
		return g.PeakRate * g.MisalignPenalty
	}
	r := g.PeakRate * area / (area + g.RampElems)
	if rowsElems%32 != 0 || colsElems%32 != 0 {
		r *= g.MisalignPenalty
	}
	return r
}

// H2DTime and D2HTime return transfer times for the given byte volume.
func (g *GPU) H2DTime(bytes float64) float64 {
	if bytes <= 0 {
		return 0
	}
	return g.TransferLatency + bytes/g.H2DBandwidth
}

// D2HTime returns the device-to-host transfer time for the byte volume.
func (g *GPU) D2HTime(bytes float64) float64 {
	if bytes <= 0 {
		return 0
	}
	return g.TransferLatency + bytes/g.D2HBandwidth
}

// Node is a complete hybrid platform: sockets plus GPUs, each GPU served by
// a dedicated core on a specific socket.
type Node struct {
	Name    string    `json:"name"`
	Sockets []*Socket `json:"sockets"`
	GPUs    []*GPU    `json:"gpus"`
	// GPUSocket[i] is the socket index hosting GPU i's dedicated core.
	GPUSocket []int `json:"gpu_socket"`
	// GPUContention multiplies GPU speed when CPU kernels run on the same
	// socket (the paper measured a 7–15% drop: factor 0.85–0.93).
	GPUContention float64 `json:"gpu_contention"`
	// CPUContention multiplies CPU speed when a GPU host process shares the
	// socket (the paper found CPUs "not so much affected": ~0.98).
	CPUContention float64 `json:"cpu_contention"`
	// BlockSize is the application blocking factor b (elements).
	BlockSize int `json:"block_size"`
	// ElemBytes is the element size (4 for single precision).
	ElemBytes int `json:"elem_bytes"`
	// SocketMemBytes is each socket's local NUMA memory (0 = unlimited).
	SocketMemBytes float64 `json:"socket_mem_bytes"`
	// MemPressure in [0,1) degrades a GPU host process when its working set
	// exceeds its socket's local memory and data must stream from remote
	// NUMA nodes: speed is scaled by 1 - MemPressure·(excess fraction).
	// The paper's GPU-only runs at n ≥ 50 (≥19 GB of matrices against
	// 16 GB/socket) show exactly this extra slowdown.
	MemPressure float64 `json:"mem_pressure"`
}

// GPUHostFactor returns the speed factor for a GPU host process whose
// working set is ws bytes: 1 when it fits the socket's local memory,
// degraded by remote-memory streaming otherwise.
func (n *Node) GPUHostFactor(ws float64) float64 {
	if n.SocketMemBytes <= 0 || n.MemPressure <= 0 || ws <= n.SocketMemBytes {
		return 1
	}
	return 1 - n.MemPressure*(ws-n.SocketMemBytes)/ws
}

// Validate reports configuration errors across the node.
func (n *Node) Validate() error {
	if len(n.Sockets) == 0 {
		return fmt.Errorf("hw: node %s has no sockets", n.Name)
	}
	if n.BlockSize <= 0 || n.ElemBytes <= 0 {
		return fmt.Errorf("hw: node %s: block %d elem %d", n.Name, n.BlockSize, n.ElemBytes)
	}
	if n.GPUContention <= 0 || n.GPUContention > 1 || n.CPUContention <= 0 || n.CPUContention > 1 {
		return fmt.Errorf("hw: node %s: contention (%v,%v)", n.Name, n.GPUContention, n.CPUContention)
	}
	if n.MemPressure < 0 || n.MemPressure >= 1 || n.SocketMemBytes < 0 {
		return fmt.Errorf("hw: node %s: memory pressure (%v, %v bytes)", n.Name, n.MemPressure, n.SocketMemBytes)
	}
	if len(n.GPUSocket) != len(n.GPUs) {
		return fmt.Errorf("hw: node %s: %d GPUs but %d socket mappings", n.Name, len(n.GPUs), len(n.GPUSocket))
	}
	for i, s := range n.Sockets {
		if s == nil {
			return fmt.Errorf("hw: node %s: socket %d missing", n.Name, i)
		}
		if err := s.Validate(); err != nil {
			return fmt.Errorf("socket %d: %w", i, err)
		}
	}
	for i, g := range n.GPUs {
		if g == nil {
			return fmt.Errorf("hw: node %s: gpu %d missing", n.Name, i)
		}
		if err := g.Validate(); err != nil {
			return fmt.Errorf("gpu %d: %w", i, err)
		}
		if n.GPUSocket[i] < 0 || n.GPUSocket[i] >= len(n.Sockets) {
			return fmt.Errorf("hw: gpu %d mapped to invalid socket %d", i, n.GPUSocket[i])
		}
	}
	// At most one GPU per socket: each needs its own dedicated core, and
	// the paper's platform dedicates one core per GPU on distinct sockets.
	seen := map[int]int{}
	for i, s := range n.GPUSocket {
		if prev, dup := seen[s]; dup {
			return fmt.Errorf("hw: gpus %d and %d share socket %d", prev, i, s)
		}
		seen[s] = i
	}
	return nil
}

// BlockFlops returns flops per computation unit for this node's b.
func (n *Node) BlockFlops() float64 { return BlockFlops(n.BlockSize) }

// BlockBytes returns bytes per b×b block for this node's configuration.
func (n *Node) BlockBytes() float64 { return BlockBytes(n.BlockSize, n.ElemBytes) }

// GPUMemBlocks returns how many b×b blocks fit in GPU i's memory.
func (n *Node) GPUMemBlocks(i int) float64 {
	return math.Floor(n.GPUs[i].MemBytes / n.BlockBytes())
}

// TotalCores returns the number of cores across all sockets.
func (n *Node) TotalCores() int {
	c := 0
	for _, s := range n.Sockets {
		c += s.Cores
	}
	return c
}
