package cluster

import (
	"testing"

	"fpmpart/internal/app"
	"fpmpart/internal/comm"
	"fpmpart/internal/hw"
	"fpmpart/internal/layout"
)

func twoNodeCluster(t *testing.T) *Cluster {
	t.Helper()
	c, err := New(hw.NewIGNode(), hw.NewIGNode())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func uniformLayout(t *testing.T, p, n int) *layout.BlockLayout {
	t.Helper()
	areas := make([]float64, p)
	for i := range areas {
		areas[i] = 1
	}
	l, err := layout.Continuous(areas)
	if err != nil {
		t.Fatal(err)
	}
	bl, err := l.Discretize(n)
	if err != nil {
		t.Fatal(err)
	}
	return bl
}

func TestClusterProcesses(t *testing.T) {
	c := twoNodeCluster(t)
	procs, err := c.Processes()
	if err != nil {
		t.Fatal(err)
	}
	if len(procs) != 48 { // 24 per ig node
		t.Fatalf("processes = %d, want 48", len(procs))
	}
	for i, p := range procs {
		if p.GlobalRank != i {
			t.Errorf("rank %d at %d", p.GlobalRank, i)
		}
		if want := i / 24; p.Node != want {
			t.Errorf("rank %d on node %d, want %d", i, p.Node, want)
		}
	}
}

func TestClusterValidate(t *testing.T) {
	if _, err := New(); err == nil {
		t.Error("empty cluster accepted")
	}
	bad := hw.NewIGNode()
	bad.BlockSize = 320
	if _, err := New(hw.NewIGNode(), bad); err == nil {
		t.Error("mismatched block sizes accepted")
	}
	broken := &Cluster{Nodes: []*hw.Node{hw.NewIGNode()}}
	if err := broken.Validate(); err == nil {
		t.Error("zero networks accepted")
	}
}

func TestClusterSimulate(t *testing.T) {
	c := twoNodeCluster(t)
	procs, err := c.Processes()
	if err != nil {
		t.Fatal(err)
	}
	bl := uniformLayout(t, len(procs), 48)
	res, err := c.Simulate(procs, bl, app.SimOptions{Contention: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.ComputeSeconds <= 0 || res.TotalSeconds < res.ComputeSeconds {
		t.Errorf("result %+v", res)
	}
	if res.IntraCommSeconds <= 0 || res.InterCommSeconds <= 0 {
		t.Errorf("comm split (%v, %v) must both be positive",
			res.IntraCommSeconds, res.InterCommSeconds)
	}
	// Two identical nodes with an even layout should nearly halve the
	// single-node compute time for the same n (each process has half the
	// area of the 24-process case).
	single, err := New(hw.NewIGNode())
	if err != nil {
		t.Fatal(err)
	}
	sp, err := single.Processes()
	if err != nil {
		t.Fatal(err)
	}
	sres, err := single.Simulate(sp, uniformLayout(t, len(sp), 48), app.SimOptions{Contention: true})
	if err != nil {
		t.Fatal(err)
	}
	speedup := sres.ComputeSeconds / res.ComputeSeconds
	if speedup < 1.5 || speedup > 2.5 {
		t.Errorf("2-node compute speedup = %v, want ≈2", speedup)
	}
}

func TestClusterSimulateErrors(t *testing.T) {
	c := twoNodeCluster(t)
	procs, _ := c.Processes()
	bl := uniformLayout(t, len(procs), 48)
	if _, err := c.Simulate(procs[:3], bl, app.SimOptions{}); err == nil {
		t.Error("mismatched processes accepted")
	}
	bad := &layout.BlockLayout{N: 48, Rects: bl.Rects[:1]}
	if _, err := c.Simulate(procs[:1], bad, app.SimOptions{}); err == nil {
		t.Error("invalid layout accepted")
	}
}

func TestInterconnectSlowerThanIntra(t *testing.T) {
	inter := DefaultInterconnect()
	intra := comm.DefaultNetwork()
	if inter.LinkBandwidth >= intra.LinkBandwidth {
		t.Error("interconnect should be slower than shared memory")
	}
}
