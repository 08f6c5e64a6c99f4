package experiments

import (
	"fmt"
	"math"

	"fpmpart/internal/gpukernel"
	"fpmpart/internal/partition"
	"fpmpart/internal/resilient"
)

// DeviceOracle returns the platform's true iteration-time oracle at
// Devices() granularity: sockets run their share over their active cores,
// GPUs run a near-square rectangle of their share's area, both with the
// contention coefficients applied — the same physics as app.Simulate. It is
// the ground truth resilient.Run executes against, wrapped by a
// faults.Injector.
func (m *Models) DeviceOracle() func(device, units int) float64 {
	node := m.Node
	gpuCount := len(node.GPUs)
	return func(d, u int) float64 {
		if u <= 0 {
			return 0
		}
		if d < gpuCount {
			rows := int(math.Round(math.Sqrt(float64(u))))
			if rows < 1 {
				rows = 1
			}
			cols := (u + rows - 1) / rows
			bd, err := gpukernel.Time(m.Version, gpukernel.Invocation{
				GPU: node.GPUs[d], BlockSize: node.BlockSize, ElemBytes: node.ElemBytes,
				Rows: rows, Cols: cols,
			})
			if err != nil {
				// A share too wide for the device: dominate the makespan so
				// the balancer moves work away instead of crashing.
				return 1e6
			}
			t := bd.Makespan * float64(u) / float64(rows*cols) / node.GPUContention
			return t / node.GPUHostFactor(3*float64(u)*node.BlockBytes())
		}
		s := d - gpuCount
		sock := node.Sockets[s]
		active := sock.Cores
		for _, gs := range node.GPUSocket {
			if gs == s {
				active--
			}
		}
		return sock.KernelTime(float64(u), active, node.BlockSize) / node.CPUContention
	}
}

// MigrationCostPerUnit prices moving one computation unit between devices:
// one block of C (plus its A/B panels) over shared memory.
func (m *Models) MigrationCostPerUnit() float64 {
	return 3 * m.Node.BlockBytes() / 6e9
}

// AblationDynamic compares static FPM partitioning against the dynamic
// load-balancing baseline of the paper's related work (reference [14]):
// the iterative application starts from a homogeneous, CPM or FPM
// distribution and resilient.Run's proportional policy redistributes by
// observed speed between iterations, paying a per-unit migration cost. The
// experiment quantifies the paper's argument that on a dedicated platform an
// accurate static partitioning gets the distribution right from iteration
// one, while the dynamic balancer pays for its early unbalanced iterations
// and for data migration.
func AblationDynamic(models *Models, n, iters int) (*Table, error) {
	if n <= 0 {
		n = 60
	}
	if iters <= 0 {
		iters = n // the application runs n iterations at matrix size n
	}
	devs := models.Devices()
	oracle, err := wrapSpec("", 0, models.DeviceOracle()) // no faults
	if err != nil {
		return nil, err
	}
	migration := models.MigrationCostPerUnit()

	t := &Table{
		ID:    "ablation-dynamic",
		Title: fmt.Sprintf("Static FPM vs dynamic balancing at n=%d (%d iterations)", n, iters),
		Columns: []string{
			"initial distribution", "rebalances", "blocks moved", "total s", "first-iter imbalance", "final imbalance",
		},
		Notes: []string{
			"dynamic balancing converges to the FPM distribution but pays for unbalanced early iterations and migration",
			"paper, Section II: dynamic algorithms often use static partitioning for their initial step",
		},
	}

	starts := []struct {
		name string
		get  func() (partition.Result, error)
	}{
		{"homogeneous", func() (partition.Result, error) { return partition.Homogeneous(devs, n*n) }},
		{"CPM", func() (partition.Result, error) { return models.PartitionCPM(n) }},
		{"FPM", func() (partition.Result, error) { return models.PartitionFPM(n) }},
	}
	for _, s := range starts {
		res, err := s.get()
		if err != nil {
			return nil, fmt.Errorf("experiments: dynamic %s start: %w", s.name, err)
		}
		tr, err := resilient.Run(devs, oracle, res.Units(), iters, resilient.Options{
			Policy:        resilient.Proportional,
			MigrationCost: migration,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: dynamic from %s: %w", s.name, err)
		}
		moved := 0
		for _, st := range tr.Steps {
			moved += st.Moved
		}
		t.AddRow(s.name, tr.Rebalances, moved, tr.TotalSeconds,
			fmt.Sprintf("%.2f", tr.Steps[0].Imbalance),
			fmt.Sprintf("%.2f", tr.Steps[len(tr.Steps)-1].Imbalance))
	}
	return t, nil
}
