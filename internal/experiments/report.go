package experiments

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"fpmpart/internal/hw"
)

// Print runs the named experiments in order and writes each table to w —
// aligned text, or markdown when markdown is set — and, when csvDir is not
// empty, also as csvDir/<id>.csv. It is what cmd/experiments prints, and
// testdata/experiments.golden pins its output. A failing experiment is
// skipped; the failures come back joined once every name has run.
func Print(w io.Writer, node *hw.Node, opts ModelOptions, names []string, markdown bool, csvDir string) error {
	var errs []error
	for _, name := range names {
		tab, err := Run(name, node, opts)
		if err != nil {
			errs = append(errs, fmt.Errorf("experiments: %s: %w", name, err))
			continue
		}
		render := tab.Render
		if markdown {
			render = tab.RenderMarkdown
		}
		if err := render(w); err != nil {
			errs = append(errs, err)
		}
		if csvDir != "" {
			if err := writeCSV(csvDir, tab); err != nil {
				errs = append(errs, err)
			}
		}
	}
	return errors.Join(errs...)
}

func writeCSV(dir string, tab *Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, tab.ID+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return tab.WriteCSV(f)
}
