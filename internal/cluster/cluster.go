// Package cluster scales the methodology from one hybrid node to a
// heterogeneous cluster of them — the setting the FPM partitioning line of
// work (references [5] and [6] of the paper) targets. The global matrix is
// partitioned over every process of every node in one column-based layout;
// per-process computation comes from each node's hardware models, and the
// pivot broadcasts are split into intra-node transfers (scheduled per node
// in parallel) and inter-node transfers over the slower cluster
// interconnect.
package cluster

import (
	"fmt"

	"fpmpart/internal/app"
	"fpmpart/internal/comm"
	"fpmpart/internal/hw"
	"fpmpart/internal/layout"
)

// Cluster is a set of hybrid nodes joined by an interconnect.
type Cluster struct {
	Nodes []*hw.Node
	// Interconnect carries the inter-node part of the broadcasts.
	Interconnect comm.Network
	// IntraNode carries transfers between processes of one node.
	IntraNode comm.Network
}

// DefaultInterconnect models a QDR-InfiniBand-class network (2012 era):
// ~3 GB/s per link, microsecond latencies.
func DefaultInterconnect() comm.Network {
	return comm.Network{LinkBandwidth: 3e9, AggregateBandwidth: 0, Latency: 3e-6}
}

// New assembles a cluster with default networks.
func New(nodes ...*hw.Node) (*Cluster, error) {
	c := &Cluster{Nodes: nodes, Interconnect: DefaultInterconnect(), IntraNode: comm.DefaultNetwork()}
	return c, c.Validate()
}

// Validate reports configuration errors.
func (c *Cluster) Validate() error {
	if len(c.Nodes) == 0 {
		return fmt.Errorf("cluster: no nodes")
	}
	for i, n := range c.Nodes {
		if err := n.Validate(); err != nil {
			return fmt.Errorf("cluster: node %d: %w", i, err)
		}
		if n.BlockSize != c.Nodes[0].BlockSize || n.ElemBytes != c.Nodes[0].ElemBytes {
			return fmt.Errorf("cluster: node %d block configuration differs", i)
		}
	}
	if err := c.Interconnect.Validate(); err != nil {
		return err
	}
	return c.IntraNode.Validate()
}

// Process is one rank of the cluster-wide application.
type Process struct {
	// GlobalRank indexes the cluster-wide layout.
	GlobalRank int
	// Node is the index of the owning node.
	Node int
	// P is the process's role within its node.
	P app.Process
}

// Processes enumerates the hybrid processes of every node, globally ranked
// node by node.
func (c *Cluster) Processes() ([]Process, error) {
	var out []Process
	rank := 0
	for ni, node := range c.Nodes {
		ps, err := app.Processes(node, app.Hybrid)
		if err != nil {
			return nil, err
		}
		for _, p := range ps {
			out = append(out, Process{GlobalRank: rank, Node: ni, P: p})
			rank++
		}
	}
	return out, nil
}

// SimResult is the outcome of one cluster-wide run.
type SimResult struct {
	// PerProcess computation seconds, by global rank.
	PerProcess []float64
	// ComputeSeconds is the slowest process's computation time.
	ComputeSeconds float64
	// IntraCommSeconds and InterCommSeconds split the broadcast cost.
	IntraCommSeconds, InterCommSeconds float64
	// TotalSeconds is compute + communication.
	TotalSeconds float64
}

// Simulate runs the application across the cluster: procs[i] owns
// bl.Rects[i] of the global n×n-block matrix.
func (c *Cluster) Simulate(procs []Process, bl *layout.BlockLayout, opts app.SimOptions) (SimResult, error) {
	if err := c.Validate(); err != nil {
		return SimResult{}, err
	}
	if len(procs) != len(bl.Rects) {
		return SimResult{}, fmt.Errorf("cluster: %d processes for %d rectangles", len(procs), len(bl.Rects))
	}
	if err := bl.Validate(); err != nil {
		return SimResult{}, err
	}

	// Per-node occupancy for contention accounting.
	active := make([][]int, len(c.Nodes))
	gpuBusy := make([][]bool, len(c.Nodes))
	cpuBusy := make([][]bool, len(c.Nodes))
	for ni, node := range c.Nodes {
		active[ni] = make([]int, len(node.Sockets))
		gpuBusy[ni] = make([]bool, len(node.Sockets))
		cpuBusy[ni] = make([]bool, len(node.Sockets))
	}
	for _, p := range procs {
		switch p.P.Kind {
		case app.CPUCore:
			active[p.Node][p.P.Socket]++
			cpuBusy[p.Node][p.P.Socket] = true
		case app.GPUHost:
			gpuBusy[p.Node][p.P.Socket] = true
		}
	}

	res := SimResult{PerProcess: make([]float64, len(procs))}
	for i, p := range procs {
		node := c.Nodes[p.Node]
		iter, err := app.IterationTime(node, p.P, bl.Rects[i],
			active[p.Node][p.P.Socket], gpuBusy[p.Node][p.P.Socket], cpuBusy[p.Node][p.P.Socket], opts)
		if err != nil {
			return SimResult{}, fmt.Errorf("cluster: rank %d: %w", i, err)
		}
		total := iter * float64(bl.N)
		res.PerProcess[i] = total
		if total > res.ComputeSeconds {
			res.ComputeSeconds = total
		}
	}

	// Communication: split each iteration's pivot transfers by locality.
	blockBytes := c.Nodes[0].BlockBytes()
	for k := 0; k < bl.N; k++ {
		trs, err := comm.PivotTransfers(bl, k, blockBytes)
		if err != nil {
			return SimResult{}, err
		}
		intra := make([][]comm.Transfer, len(c.Nodes))
		var inter []comm.Transfer
		for _, tr := range trs {
			from, to := procs[tr.From].Node, procs[tr.To].Node
			if from == to {
				intra[from] = append(intra[from], tr)
			} else {
				inter = append(inter, tr)
			}
		}
		var worstIntra float64
		for ni := range c.Nodes {
			t, err := c.IntraNode.IterationTime(intra[ni], len(procs))
			if err != nil {
				return SimResult{}, err
			}
			if t > worstIntra {
				worstIntra = t
			}
		}
		interT, err := c.Interconnect.IterationTime(inter, len(procs))
		if err != nil {
			return SimResult{}, err
		}
		res.IntraCommSeconds += worstIntra
		res.InterCommSeconds += interT
	}
	res.TotalSeconds = res.ComputeSeconds + res.IntraCommSeconds + res.InterCommSeconds
	return res, nil
}
