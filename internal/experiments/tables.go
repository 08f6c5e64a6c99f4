package experiments

import (
	"fmt"
	"strings"

	"fpmpart/internal/app"
)

// Table2 reproduces the paper's Table II: execution time of the parallel
// matrix multiplication on three configurations — all CPU cores
// (homogeneous distribution), the fast GPU with a dedicated core, and the
// full hybrid node under FPM-based partitioning.
func Table2(models *Models, ns []int) (*Table, error) {
	if len(ns) == 0 {
		ns = []int{40, 50, 60, 70}
	}
	// The paper's GPU column is the GTX680, the fast GPU.
	g := fastGPU(models.Node)
	t := &Table{
		ID:    "table2",
		Title: "Execution time of parallel matrix multiplication (seconds)",
		Columns: []string{
			"matrix (blocks)",
			fmt.Sprintf("CPUs (%d cores)", models.Node.TotalCores()),
			models.Node.GPUs[g].Name,
			"Hybrid-FPM",
		},
		Notes: []string{
			"paper (40/50/60/70): CPUs 99.5/195.4/300.1/491.6, GTX680 74.2/162.7/316.8/554.8, hybrid 26.6/77.8/114.4/226.1",
			"shape: GPU wins while its memory holds the problem comfortably, CPUs win at large sizes, hybrid-FPM always wins",
		},
	}
	procs, err := app.Processes(models.Node, app.Hybrid)
	if err != nil {
		return nil, err
	}
	type row struct{ cpu, gpu, hyb float64 }
	rows := make([]row, len(ns))
	err = models.forEachUnit(len(ns), func(i int) error {
		n := ns[i]
		cpu, err := runCPUOnly(models, n)
		if err != nil {
			return err
		}
		gpu, err := runSingleGPU(models, g, n)
		if err != nil {
			return err
		}
		fpmPart, err := models.PartitionFPM(n)
		if err != nil {
			return err
		}
		hyb, err := runWithUnits(models, procs, fpmPart.Units(), n)
		if err != nil {
			return err
		}
		rows[i] = row{cpu.TotalSeconds, gpu.TotalSeconds, hyb.TotalSeconds}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, n := range ns {
		t.AddRow(fmt.Sprintf("%d x %d", n, n), rows[i].cpu, rows[i].gpu, rows[i].hyb)
	}
	return t, nil
}

// Table3 reproduces the paper's Table III: the block distributions produced
// by the CPM-based and FPM-based partitioning algorithms on the hybrid node
// for several matrix sizes. Device columns follow the paper's naming: G1 is
// the fast GPU, G2 the slow one, S5 the sockets with a dedicated core, S6
// the full sockets.
func Table3(models *Models, ns []int) (*Table, error) {
	if len(ns) == 0 {
		ns = []int{40, 50, 60, 70}
	}
	devs := models.Devices()
	cols := []string{"matrix (blocks)"}
	for _, d := range devs {
		cols = append(cols, "CPM "+shortName(d.Name))
	}
	for _, d := range devs {
		cols = append(cols, "FPM "+shortName(d.Name))
	}
	t := &Table{
		ID:      "table3",
		Title:   "Heterogeneous data partitioning on the hybrid node (blocks per device)",
		Columns: cols,
		Notes: []string{
			"paper FPM at 70x70: G1=2250 G2=806 S5=425 S6=504; CPM at 70x70: G1=2848 G2=677 S5=320 S6=366",
			"shape: CPM keeps the G1:S6 ratio ≈8 of the in-memory probe and overloads the fast GPU from 50x50 up; FPM lowers G1's share as it spills out of device memory",
		},
	}
	rows := make([][]any, len(ns))
	err := models.forEachUnit(len(ns), func(i int) error {
		n := ns[i]
		cpm, err := models.PartitionCPM(n)
		if err != nil {
			return err
		}
		fpmPart, err := models.PartitionFPM(n)
		if err != nil {
			return err
		}
		row := []any{fmt.Sprintf("%d x %d", n, n)}
		for _, u := range cpm.Units() {
			row = append(row, u)
		}
		for _, u := range fpmPart.Units() {
			row = append(row, u)
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	return t, nil
}

// shortName compresses device names like "S6/socket2" to "S6/2" and leaves
// GPU names intact.
func shortName(name string) string {
	if i := strings.Index(name, "/socket"); i >= 0 {
		return name[:i] + "/" + name[i+len("/socket"):]
	}
	return name
}
