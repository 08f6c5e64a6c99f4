package app

import (
	"fmt"
	"math"

	"fpmpart/internal/gpukernel"
	"fpmpart/internal/hw"
	"fpmpart/internal/layout"
)

// ProcessTime is the simulated outcome for one process.
type ProcessTime struct {
	Process Process
	// Area is the process's rectangle area in blocks.
	Area int
	// ComputeSeconds is the total computation time over all iterations —
	// the quantity plotted per process in the paper's Figure 6.
	ComputeSeconds float64
}

// SimResult is the simulated outcome of one application run.
type SimResult struct {
	PerProcess []ProcessTime
	// ComputeSeconds is the slowest process's computation time.
	ComputeSeconds float64
	// CommSeconds is the total communication time.
	CommSeconds float64
	// TotalSeconds = ComputeSeconds + CommSeconds, the paper's "execution
	// time" (Table II, Figure 7).
	TotalSeconds float64
}

// Imbalance returns max/min per-process compute time - 1 over processes
// with work.
func (r SimResult) Imbalance() float64 {
	lo, hi := math.Inf(1), 0.0
	for _, p := range r.PerProcess {
		if p.Area == 0 {
			continue
		}
		if p.ComputeSeconds < lo {
			lo = p.ComputeSeconds
		}
		if p.ComputeSeconds > hi {
			hi = p.ComputeSeconds
		}
	}
	if math.IsInf(lo, 1) || lo <= 0 {
		return math.NaN()
	}
	return hi/lo - 1
}

// IterationTime returns one process's per-iteration computation time for
// its rectangle: a CPU core's GEMM at its per-core size alongside `active`
// cores, or a GPU host's kernel invocation, with the contention and
// host-memory-pressure factors applied. It is the per-process cost model
// shared by the node-level and cluster-level simulations.
func IterationTime(node *hw.Node, p Process, r layout.Rect, active int, gpuBusy, cpuBusy bool, opts SimOptions) (float64, error) {
	area := r.Area()
	if area <= 0 {
		return 0, nil
	}
	if opts.Version == 0 {
		opts.Version = gpukernel.V2
	}
	switch p.Kind {
	case CPUCore:
		// The process's core runs alongside the other active cores of its
		// socket; its per-iteration time is its area over its core rate at
		// that per-core size.
		sock := node.Sockets[p.Socket]
		rate := sock.CoreRate(area, active, node.BlockSize)
		if opts.Contention && gpuBusy {
			rate *= node.CPUContention
		}
		return area * node.BlockFlops() / rate, nil
	case GPUHost:
		inv := gpukernel.Invocation{
			GPU:       node.GPUs[p.GPU],
			BlockSize: node.BlockSize, ElemBytes: node.ElemBytes,
			Rows: int(r.H), Cols: int(r.W),
		}
		bd, err := gpukernel.Time(opts.Version, inv)
		if err != nil {
			return 0, err
		}
		iter := bd.Makespan
		if opts.Contention && cpuBusy {
			iter /= node.GPUContention
		}
		// The host process streams its rectangles of A, B and C; when that
		// working set spills out of the socket's local NUMA memory the
		// remote accesses slow the transfers down.
		ws := 3 * area * node.BlockBytes()
		return iter / node.GPUHostFactor(ws), nil
	default:
		return 0, fmt.Errorf("app: unknown process kind %v", p.Kind)
	}
}

// SimOptions configures a simulated run.
type SimOptions struct {
	// Version is the GPU kernel implementation to use.
	Version gpukernel.Version
	// Contention applies the CPU↔GPU same-socket contention coefficients.
	Contention bool
	// Comm is the aggregate communication model; zero value disables
	// communication accounting.
	Comm CommModel
	// Network, when non-nil, replaces the scalar Comm model with
	// message-level scheduled communication: per-iteration pivot transfers
	// on per-process links under an aggregate cap.
	Network *Network
}

// Simulate runs the application on the modelled node: processes procs hold
// the rectangles of bl (procs[i] owns bl.Rects[i]); the run performs bl.N
// iterations, each updating every rectangle with one kernel invocation.
func Simulate(node *hw.Node, procs []Process, bl *layout.BlockLayout, opts SimOptions) (SimResult, error) {
	if err := node.Validate(); err != nil {
		return SimResult{}, err
	}
	if len(procs) != len(bl.Rects) {
		return SimResult{}, fmt.Errorf("app: %d processes for %d rectangles", len(procs), len(bl.Rects))
	}
	if err := bl.Validate(); err != nil {
		return SimResult{}, err
	}
	if opts.Version == 0 {
		opts.Version = gpukernel.V2
	}
	active := ActiveCPUCores(node, procs)
	gpuBusy := GPUBusySockets(node, procs)
	cpuBusy := make([]bool, len(node.Sockets))
	for s, a := range active {
		cpuBusy[s] = a > 0
	}

	res := SimResult{PerProcess: make([]ProcessTime, len(procs))}
	n := bl.N
	for i, p := range procs {
		r := bl.Rects[i]
		iter, err := IterationTime(node, p, r, active[p.Socket], gpuBusy[p.Socket], cpuBusy[p.Socket], opts)
		if err != nil {
			return SimResult{}, fmt.Errorf("app: process %d (%s): %w", i, p.Name, err)
		}
		total := iter * float64(n)
		res.PerProcess[i] = ProcessTime{Process: p, Area: int(math.Round(r.Area())), ComputeSeconds: total}
		if total > res.ComputeSeconds {
			res.ComputeSeconds = total
		}
	}
	if opts.Network != nil {
		commT, err := opts.Network.AppTime(bl, node.BlockBytes())
		if err != nil {
			return SimResult{}, err
		}
		res.CommSeconds = commT
	} else {
		res.CommSeconds = opts.Comm.IterationTime(bl, node.BlockBytes()) * float64(n)
	}
	res.TotalSeconds = res.ComputeSeconds + res.CommSeconds
	return res, nil
}
