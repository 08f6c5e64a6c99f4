package experiments

import (
	"fmt"

	"fpmpart/internal/app"
	"fpmpart/internal/hw"
	"fpmpart/internal/layout"
	"fpmpart/internal/partition"
)

// interconnect models the cluster network, QDR-InfiniBand class (2012 era):
// ~3 GB/s per link, microsecond latencies. It carries the inter-node part of
// the pivot broadcasts; transfers within a node ride app.DefaultNetwork.
var interconnect = app.Network{LinkBandwidth: 3e9, Latency: 3e-6}

// clusterTimes is the outcome of one cluster-wide run, in seconds.
type clusterTimes struct {
	// compute is the slowest process's computation time.
	compute float64
	// intraComm and interComm split the broadcast cost by locality.
	intraComm, interComm float64
}

func (c clusterTimes) total() float64 { return c.compute + c.intraComm + c.interComm }

// simulateCluster runs the application across count identical nodes, each
// running nodeProcs: process r of node i owns bl.Rects[i*len(nodeProcs)+r]
// of the global n×n-block matrix. Per-process computation comes from the
// node's hardware models; each pivot round's transfers are split into
// intra-node transfers (scheduled per node, in parallel) and inter-node
// transfers over the interconnect.
func simulateCluster(node *hw.Node, count int, nodeProcs []app.Process, bl *layout.BlockLayout, opts app.SimOptions) (clusterTimes, error) {
	per := len(nodeProcs)
	if count <= 0 || len(bl.Rects) != count*per {
		return clusterTimes{}, fmt.Errorf("experiments: %d nodes of %d processes for %d rectangles", count, per, len(bl.Rects))
	}
	if err := bl.Validate(); err != nil {
		return clusterTimes{}, err
	}
	active := app.ActiveCPUCores(node, nodeProcs)
	gpuBusy := app.GPUBusySockets(node, nodeProcs)
	var res clusterTimes
	for i, r := range bl.Rects {
		p := nodeProcs[i%per]
		iter, err := app.IterationTime(node, p, r, active[p.Socket], gpuBusy[p.Socket], active[p.Socket] > 0, opts)
		if err != nil {
			return clusterTimes{}, fmt.Errorf("experiments: rank %d: %w", i, err)
		}
		res.compute = max(res.compute, iter*float64(bl.N))
	}

	intraNet := app.DefaultNetwork()
	for k := 0; k < bl.N; k++ {
		trs, err := app.PivotTransfers(bl, k, node.BlockBytes())
		if err != nil {
			return clusterTimes{}, err
		}
		intra := make([][]app.Transfer, count)
		var inter []app.Transfer
		for _, tr := range trs {
			if from := tr.From / per; from == tr.To/per {
				intra[from] = append(intra[from], tr)
			} else {
				inter = append(inter, tr)
			}
		}
		var worstIntra float64
		for _, nodeTrs := range intra {
			t, err := intraNet.IterationTime(nodeTrs, len(bl.Rects))
			if err != nil {
				return clusterTimes{}, err
			}
			worstIntra = max(worstIntra, t)
		}
		interT, err := interconnect.IterationTime(inter, len(bl.Rects))
		if err != nil {
			return clusterTimes{}, err
		}
		res.intraComm += worstIntra
		res.interComm += interT
	}
	return res, nil
}

// ClusterScaling extends the paper's single-node result to a cluster of
// hybrid nodes: the global matrix is FPM-partitioned over every socket and
// GPU of every node (with inter-node broadcasts over a slower interconnect)
// and compared against the homogeneous distribution, for 1, 2 and 4 nodes.
func ClusterScaling(node *hw.Node, n int, opts ModelOptions) (*Table, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if n <= 0 {
		n = 80
	}
	t := &Table{
		ID:      "cluster-scaling",
		Title:   fmt.Sprintf("FPM partitioning across a cluster of hybrid nodes (n=%d)", n),
		Columns: []string{"nodes", "FPM total s", "homogeneous total s", "FPM speedup vs 1 node", "inter-node comm s"},
		Notes: []string{
			"each node is the paper's platform; inter-node pivot broadcasts ride a 3 GB/s interconnect",
			"FPM keeps every socket and GPU of every node finishing together; homogeneous is dominated by the slowest cores",
		},
	}
	// The per-count cluster runs are independent (each rebuilds its own
	// models); run them on the pool and derive the speedup baseline from the
	// single-node result afterwards.
	counts := []int{1, 2, 4}
	type unit struct {
		fpmTotal, homTotal, interComm float64
	}
	units := make([]unit, len(counts))
	err = opts.forEachUnit(len(counts), func(ci int) error {
		count := counts[ci]
		// Build models once (identical nodes) and partition over the union
		// of all devices.
		models, err := BuildModels(node, opts)
		if err != nil {
			return err
		}
		devs := models.Devices()
		var union []partition.Device
		for i := 0; i < count; i++ {
			union = append(union, devs...)
		}
		var shares []float64
		part, err := partition.FPM(union, n*n, partition.FPMOptions{})
		if err != nil {
			return err
		}
		// Expand per-device units to per-process shares node by node.
		nodeProcs, err := app.Processes(node, app.Hybrid)
		if err != nil {
			return err
		}
		perDev := len(devs)
		for i := 0; i < count; i++ {
			nodeShares, err := models.ProcessShares(nodeProcs, part.Units()[i*perDev:(i+1)*perDev])
			if err != nil {
				return err
			}
			shares = append(shares, nodeShares...)
		}
		l, err := layout.Continuous(shares)
		if err != nil {
			return err
		}
		bl, err := l.Discretize(n)
		if err != nil {
			return err
		}
		simOpts := app.SimOptions{Version: models.Version, Contention: true}
		fpmRes, err := simulateCluster(node, count, nodeProcs, bl, simOpts)
		if err != nil {
			return err
		}
		ble, err := evenLayout(count*len(nodeProcs), n)
		if err != nil {
			return err
		}
		homRes, err := simulateCluster(node, count, nodeProcs, ble, simOpts)
		if err != nil {
			return err
		}
		units[ci] = unit{
			fpmTotal:  fpmRes.total(),
			homTotal:  homRes.total(),
			interComm: fpmRes.interComm,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	base := units[0].fpmTotal // counts[0] == 1 node
	for ci, count := range counts {
		t.AddRow(count, units[ci].fpmTotal, units[ci].homTotal,
			fmt.Sprintf("%.2fx", base/units[ci].fpmTotal),
			fmt.Sprintf("%.2f", units[ci].interComm))
	}
	return t, nil
}
