package experiments

import (
	"testing"

	"fpmpart/internal/app"
	"fpmpart/internal/hw"
	"fpmpart/internal/layout"
)

func TestSimulateCluster(t *testing.T) {
	node := hw.NewIGNode()
	procs, err := app.Processes(node, app.Hybrid)
	if err != nil {
		t.Fatal(err)
	}
	opts := app.SimOptions{Contention: true}
	bl, err := evenLayout(2*len(procs), 48)
	if err != nil {
		t.Fatal(err)
	}
	res, err := simulateCluster(node, 2, procs, bl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.compute <= 0 || res.total() < res.compute {
		t.Errorf("result %+v", res)
	}
	if res.intraComm <= 0 || res.interComm <= 0 {
		t.Errorf("comm split (%v, %v) must both be positive", res.intraComm, res.interComm)
	}
	// Two identical nodes with an even layout should nearly halve the
	// single-node compute time for the same n (each process has half the
	// area of the 24-process case).
	sbl, err := evenLayout(len(procs), 48)
	if err != nil {
		t.Fatal(err)
	}
	single, err := simulateCluster(node, 1, procs, sbl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if single.interComm != 0 {
		t.Errorf("one node sends %v s over the interconnect", single.interComm)
	}
	speedup := single.compute / res.compute
	if speedup < 1.5 || speedup > 2.5 {
		t.Errorf("2-node compute speedup = %v, want ≈2", speedup)
	}
}

func TestSimulateClusterErrors(t *testing.T) {
	node := hw.NewIGNode()
	procs, err := app.Processes(node, app.Hybrid)
	if err != nil {
		t.Fatal(err)
	}
	bl, err := evenLayout(2*len(procs), 48)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := simulateCluster(node, 2, procs[:3], bl, app.SimOptions{}); err == nil {
		t.Error("mismatched processes accepted")
	}
	bad := &layout.BlockLayout{N: 48, Rects: bl.Rects[:1]}
	if _, err := simulateCluster(node, 1, procs[:1], bad, app.SimOptions{}); err == nil {
		t.Error("invalid layout accepted")
	}
}

func TestInterconnectSlowerThanIntra(t *testing.T) {
	if interconnect.LinkBandwidth >= app.DefaultNetwork().LinkBandwidth {
		t.Error("interconnect should be slower than shared memory")
	}
}
