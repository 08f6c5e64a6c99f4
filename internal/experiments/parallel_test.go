package experiments

import (
	"reflect"
	"strings"
	"testing"

	"fpmpart/internal/hw"
)

// The experiment drivers fan independent units out to a worker pool; their
// tables must be identical at any pool width because all measurement noise
// derives from per-point seeds.

func TestBuildModelsParallelBitIdentical(t *testing.T) {
	node := hw.NewIGNode()
	base := ModelOptions{Seed: 5, NoiseSigma: 0.03, Points: 10}
	opts := base
	opts.Parallelism = 1
	seq, err := BuildModels(node, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		opts := base
		opts.Parallelism = workers
		par, err := BuildModels(node, opts)
		if err != nil {
			t.Fatal(err)
		}
		for s := range seq.SocketFull {
			if !reflect.DeepEqual(seq.SocketFull[s].Points(), par.SocketFull[s].Points()) {
				t.Fatalf("workers=%d: socket %d full model differs", workers, s)
			}
			if !reflect.DeepEqual(seq.SocketHost[s].Points(), par.SocketHost[s].Points()) {
				t.Fatalf("workers=%d: socket %d host model differs", workers, s)
			}
		}
		for g := range seq.GPU {
			if !reflect.DeepEqual(seq.GPU[g].Points(), par.GPU[g].Points()) {
				t.Fatalf("workers=%d: gpu %d model differs", workers, g)
			}
		}
	}
}

func TestFigure7SweepParallelBitIdentical(t *testing.T) {
	node := hw.NewIGNode()
	run := func(workers int) *Table {
		t.Helper()
		models, err := BuildModels(node, ModelOptions{
			Seed: 3, NoiseSigma: 0.04, Points: 10, Parallelism: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		tab, err := Figure7(models, []int{10, 20, 30, 40})
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	seq := run(1)
	for _, workers := range []int{2, 8} {
		par := run(workers)
		if !reflect.DeepEqual(seq.Rows, par.Rows) {
			t.Fatalf("workers=%d: figure7 rows differ:\nseq %v\npar %v", workers, seq.Rows, par.Rows)
		}
	}
}

func TestModelOptionsValidation(t *testing.T) {
	node := hw.NewIGNode()
	cases := []struct {
		name string
		opts ModelOptions
		want string
	}{
		{"negative parallelism", ModelOptions{Parallelism: -1}, "parallelism"},
		{"negative points", ModelOptions{Points: -4}, "grid"},
		{"negative max blocks", ModelOptions{MaxBlocks: -100}, "size limit"},
		{"negative noise", ModelOptions{NoiseSigma: -0.1}, "noise"},
	}
	for _, c := range cases {
		if _, err := BuildModels(node, c.opts); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.want)
		}
	}
	// Drivers taking ModelOptions surface the same validation.
	if _, err := Figure7SweepOpts(node, ModelOptions{Parallelism: -3}); err == nil {
		t.Error("sweep accepted negative parallelism")
	}
}

// Figure7SweepOpts builds models and runs the Figure 7 sweep.
func Figure7SweepOpts(node *hw.Node, opts ModelOptions) (*Table, error) {
	models, err := BuildModels(node, opts)
	if err != nil {
		return nil, err
	}
	return Figure7(models, nil)
}
