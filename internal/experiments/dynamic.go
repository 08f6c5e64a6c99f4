package experiments

import (
	"fmt"

	"fpmpart/internal/bench"
	"fpmpart/internal/partition"
	"fpmpart/internal/resilient"
)

// DeviceOracle returns the platform's true iteration-time oracle at
// Devices() granularity: the noiseless benchmark kernels the models are
// built from, each slowed by the node's contention coefficient. A socket
// runs its share on its cores less one per GPU it hosts, and pays the CPU
// coefficient only if it hosts a GPU, as buildModels' host curves and
// app.IterationTime charge it. A GPU times the near-square rectangle
// of its share's area, not the layout's rectangle, and its host core slows
// further once the working set spills the socket's memory. It is the ground
// truth resilient.Run executes against, wrapped by a faults.Injector.
func (m *Models) DeviceOracle() func(device, units int) float64 {
	node := m.Node
	var kernels []bench.Kernel
	for _, gpu := range node.GPUs {
		kernels = append(kernels, &bench.GPUKernel{
			GPU: gpu, Version: m.Version, BlockSize: node.BlockSize, ElemBytes: node.ElemBytes,
			SpeedFactor: node.GPUContention,
		})
	}
	for s, sock := range node.Sockets {
		active, factor := sock.Cores, 1.0
		for _, gs := range node.GPUSocket {
			if gs == s {
				active, factor = active-1, node.CPUContention
			}
		}
		kernels = append(kernels, &bench.SocketKernel{
			Socket: sock, Active: active, BlockSize: node.BlockSize, SpeedFactor: factor,
		})
	}
	return func(d, u int) float64 {
		if u <= 0 {
			return 0
		}
		t, err := kernels[d].Run(float64(u))
		if err != nil {
			// A share too wide for the device: dominate the makespan so
			// the balancer moves work away instead of crashing.
			return 1e6
		}
		if d < len(node.GPUs) {
			t /= node.GPUHostFactor(3 * float64(u) * node.BlockBytes())
		}
		return t
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
