package experiments

import (
	"fmt"

	"fpmpart/internal/gpukernel"
	"fpmpart/internal/hw"
	"fpmpart/internal/sim"
)

// Figure4 regenerates the content of the paper's Figure 4(b) — the
// concurrent data transfers and kernel executions of the out-of-core
// overlapped kernel — as the actual scheduled engine timeline on both GPUs.
// (Figures 1 and 4(a) are structural diagrams with no measured data; the
// buffer structure they depict is implemented in internal/gpukernel.)
// Each row is one scheduled task: engine, task, start and end times. On the
// two-DMA GTX680 the uploads and downloads overlap; on the single-DMA Tesla
// C870 they serialise on one engine, exactly as the paper describes.
func Figure4(node *hw.Node, opts ModelOptions) (*Table, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := node.Validate(); err != nil {
		return nil, err
	}
	if len(node.GPUs) == 0 {
		return nil, fmt.Errorf("experiments: figure4 needs GPUs")
	}
	t := &Table{
		ID:      "figure4",
		Title:   "Out-of-core v3 kernel schedule (Figure 4b): engine timelines per GPU",
		Columns: []string{"gpu", "engine", "task", "start s", "end s"},
		Notes: []string{
			"tasks: B = pivot row download, dN = tile N download (A tile + C tile), gN = tile N GEMM, uN = tile N upload",
			"GTX680 (2 DMA engines): h2d, d2h and compute rows overlap; Tesla C870 (1 engine): h2d carries both directions",
		},
	}
	// A 45x45-block rectangle is out-of-core on both preset devices.
	const side = 45
	for _, g := range node.GPUs {
		var tl sim.Timeline
		bd, err := gpukernel.ScheduleV3(gpukernel.Invocation{
			GPU: g, BlockSize: node.BlockSize, ElemBytes: node.ElemBytes,
			Rows: side, Cols: side,
		}, &tl)
		if err != nil {
			return nil, err
		}
		for _, s := range tl.Spans() {
			t.AddRow(g.Name, s.Lane, s.Label,
				fmt.Sprintf("%.3f", s.Start), fmt.Sprintf("%.3f", s.End))
		}
		t.Notes = append(t.Notes, fmt.Sprintf(
			"%s: %d tiles, pipelined makespan %.3f s, reported makespan %.3f s (overlap quality %.2f)",
			g.Name, bd.Tiles, tl.Makespan(), bd.Makespan, g.CopyComputeOverlap))
	}
	return t, nil
}
