// Package app implements the heterogeneous parallel column-based matrix
// multiplication application of Section IV of the paper: matrices A, B and C
// are partitioned over processes in a column-based 2D arrangement; at each
// of the n iterations the pivot column of A and pivot row of B are broadcast
// and every process updates its rectangle of C with one GEMM call.
//
// The application is simulated: per-process computation times come from the
// hardware cost models (internal/hw, internal/gpukernel) and communication
// times from the broadcast models of comm.go — this reproduces the paper's
// timing experiments (Tables II/III, Figures 6/7) on the modelled node. The
// package's tests also execute the blocked algorithm for real on goroutines
// with the packed GEMM (internal/blas), verifying that the partitioning and
// the blocked algorithm compute the correct product.
package app

import (
	"fmt"

	"fpmpart/internal/hw"
)

// Kind distinguishes process roles.
type Kind int

// Process kinds.
const (
	// CPUCore is a process running the CPU GEMM kernel on one core.
	CPUCore Kind = iota
	// GPUHost is a dedicated core driving a GPU.
	GPUHost
)

func (k Kind) String() string {
	if k == GPUHost {
		return "gpu-host"
	}
	return "cpu-core"
}

// Process is one rank of the parallel application, bound to a core.
type Process struct {
	// Rank is the process index (order of rectangles in the layout).
	Rank int
	// Name describes the binding, e.g. "socket1/core3" or "GTX680".
	Name string
	// Kind is the process role.
	Kind Kind
	// Socket is the index of the socket the process is bound to.
	Socket int
	// GPU is the device index for GPUHost processes, -1 otherwise.
	GPU int
}

// Config selects which processing elements participate in a run.
type Config int

// Run configurations of Table II.
const (
	// CPUOnly uses every core of every socket (24 processes on the paper's
	// node) and no GPUs.
	CPUOnly Config = iota
	// Hybrid dedicates one core per GPU and uses the remaining cores for
	// CPU kernels (24 processes: 22 CPU + 2 GPU hosts on the paper's node).
	Hybrid
)

// Processes enumerates the application's processes for a configuration.
// For SingleGPU-style runs use GPUProcess.
func Processes(node *hw.Node, cfg Config) ([]Process, error) {
	if err := node.Validate(); err != nil {
		return nil, err
	}
	gpuOnSocket := make(map[int]int, len(node.GPUSocket))
	if cfg == Hybrid {
		for g, s := range node.GPUSocket {
			gpuOnSocket[s] = g
		}
	}
	var ps []Process
	rank := 0
	for si, sock := range node.Sockets {
		cores := sock.Cores
		if g, ok := gpuOnSocket[si]; ok {
			ps = append(ps, Process{
				Rank: rank, Name: node.GPUs[g].Name, Kind: GPUHost, Socket: si, GPU: g,
			})
			rank++
			cores--
		}
		for c := 0; c < cores; c++ {
			ps = append(ps, Process{
				Rank: rank, Name: fmt.Sprintf("socket%d/core%d", si, c), Kind: CPUCore, Socket: si, GPU: -1,
			})
			rank++
		}
	}
	return ps, nil
}

// GPUProcess returns the single process of a GPU-only run (one dedicated
// core driving GPU g), matching Table II's "GTX680" column.
func GPUProcess(node *hw.Node, g int) (Process, error) {
	if err := node.Validate(); err != nil {
		return Process{}, err
	}
	if g < 0 || g >= len(node.GPUs) {
		return Process{}, fmt.Errorf("app: gpu index %d out of range", g)
	}
	return Process{Rank: 0, Name: node.GPUs[g].Name, Kind: GPUHost, Socket: node.GPUSocket[g], GPU: g}, nil
}

// ActiveCPUCores returns, per socket, the number of processes running the
// CPU kernel — the "active cores" parameter of the socket speed functions
// (5 on sockets hosting a GPU in hybrid mode, 6 otherwise on the paper's
// node).
func ActiveCPUCores(node *hw.Node, procs []Process) []int {
	active := make([]int, len(node.Sockets))
	for _, p := range procs {
		if p.Kind == CPUCore {
			active[p.Socket]++
		}
	}
	return active
}

// GPUBusySockets reports, per socket, whether a GPU host process runs there
// (for contention accounting).
func GPUBusySockets(node *hw.Node, procs []Process) []bool {
	busy := make([]bool, len(node.Sockets))
	for _, p := range procs {
		if p.Kind == GPUHost {
			busy[p.Socket] = true
		}
	}
	return busy
}
