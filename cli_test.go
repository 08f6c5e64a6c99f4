package fpmpart_test

// Integration tests for the command-line tools: each binary is built once
// into a temporary directory and exercised end to end. They are skipped in
// -short mode (they shell out to the Go toolchain).

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"fpmpart/internal/service"
)

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

func buildCmds(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "fpmpart-bin")
		if err != nil {
			buildErr = err
			return
		}
		binDir = dir
		for _, c := range []string{"experiments", "fpmbench", "stencil"} {
			cmd := exec.Command("go", "build", "-o", filepath.Join(dir, c), "./cmd/"+c)
			if out, err := cmd.CombinedOutput(); err != nil {
				buildErr = err
				t.Logf("build %s: %s", c, out)
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatalf("building commands: %v", buildErr)
	}
	return binDir
}

func runCmd(t *testing.T, name string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(buildCmds(t), name), args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", name, args, err, out)
	}
	return string(out)
}

func TestCLIExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	out := runCmd(t, "experiments", "-list")
	for _, want := range []string{"figure2", "figure7", "table2", "table3", "ablation-dynamic"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list missing %q", want)
		}
	}
	out = runCmd(t, "experiments", "table2")
	if !strings.Contains(out, "Hybrid-FPM") || !strings.Contains(out, "40 x 40") {
		t.Errorf("table2 output malformed:\n%s", out)
	}
	// CSV export.
	dir := t.TempDir()
	runCmd(t, "experiments", "-csv", dir, "table3")
	data, err := os.ReadFile(filepath.Join(dir, "table3.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "FPM GTX680") {
		t.Errorf("csv malformed:\n%s", data)
	}
	// Markdown rendering.
	out = runCmd(t, "experiments", "-markdown", "table1")
	if !strings.Contains(out, "| component |") {
		t.Errorf("markdown output malformed:\n%s", out)
	}
	// Chrome trace of a simulated hybrid run, with the GPU engine lanes.
	traceFile := filepath.Join(dir, "run.json")
	runCmd(t, "experiments", "-trace-out", traceFile, "-trace-n", "40")
	data, err = os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Args struct {
				Name string `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatalf("trace is not Chrome JSON: %v", err)
	}
	h2d := false
	for _, e := range tr.TraceEvents {
		h2d = h2d || e.Ph == "M" && strings.Contains(e.Args.Name, "h2d")
	}
	if len(tr.TraceEvents) == 0 || !h2d {
		t.Errorf("trace has %d events and no h2d lane", len(tr.TraceEvents))
	}
}

func TestCLIFpmbenchAndPartitionRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	dir := t.TempDir()
	out := runCmd(t, "fpmbench", "-out", dir, "-points", "8")
	if !strings.Contains(out, "GTX680") || !strings.Contains(out, "Gflops") {
		t.Errorf("fpmbench output malformed:\n%s", out)
	}
	for _, f := range []string{"socket5.fpm", "socket6.fpm", "GTX680.fpm", "TeslaC870.fpm"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("model file %s missing: %v", f, err)
		}
	}
	// The model files load the way fpmd -models loads them, and partition.
	s, err := service.New(service.Config{ModelDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if s.Models.Len() != 4 {
		t.Fatalf("loaded %d models, want 4: %v", s.Models.Len(), s.Models.List())
	}
	body := `{"models":["socket5","socket6","GTX680","TeslaC870"],"n":3600}`
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/partition", strings.NewReader(body)))
	var res struct {
		Total     int     `json:"total"`
		Imbalance float64 `json:"imbalance"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &res); rec.Code != http.StatusOK || err != nil {
		t.Fatalf("partition: %d %v\n%s", rec.Code, err, rec.Body)
	}
	if res.Total != 3600 || res.Imbalance > 0.05 {
		t.Errorf("partition of the loaded models: total %d, imbalance %v", res.Total, res.Imbalance)
	}
	// Single-device selection.
	out = runCmd(t, "fpmbench", "-device", "GTX680", "-points", "6")
	if strings.Contains(out, "TeslaC870") {
		t.Errorf("-device filter leaked other devices:\n%s", out)
	}
	// Adaptive placement.
	out = runCmd(t, "fpmbench", "-adaptive", "-device", "TeslaC870", "-points", "10")
	if !strings.Contains(out, "TeslaC870") || !strings.Contains(out, "kernel runs") {
		t.Errorf("adaptive fpmbench malformed:\n%s", out)
	}
}

func TestCLIStencil(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	out := runCmd(t, "stencil", "-rows", "480", "-cols", "256", "-iters", "6", "-workers", "1,3")
	if !strings.Contains(out, "verification OK") {
		t.Errorf("stencil did not verify:\n%s", out)
	}
	if !strings.Contains(out, "FPM row bands") {
		t.Errorf("no partitioning report:\n%s", out)
	}
}

// TestExamplesRun executes both example programs end to end.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cases := map[string]string{
		"quickstart": "FPM imbalance",
		"realfpm":    "predicted imbalance",
	}
	for name, want := range cases {
		name, want := name, want
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cmd := exec.Command("go", "run", "./examples/"+name)
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("%v\n%s", err, out)
			}
			if !strings.Contains(string(out), want) {
				t.Errorf("output missing %q:\n%s", want, out)
			}
		})
	}
}

func TestCLIPlatformConfigAndReport(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	dir := t.TempDir()
	plat := filepath.Join(dir, "plat.json")
	out := runCmd(t, "experiments", "-dump-platform")
	if err := os.WriteFile(plat, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	out = runCmd(t, "experiments", "-platform", plat, "table1")
	if !strings.Contains(out, "ig.icl.utk.edu") {
		t.Errorf("platform config not used:\n%s", out)
	}
}
