// Command benchmark is the repository's one performance benchmark. It boots
// the real stack — fpmd, workerd workers, a clusterd ring — on loopback
// ports inside this process, drives it over HTTP the way its callers do,
// checks every answer, and reports end-to-end and per-layer numbers under
// the names BENCHMARK.json declares. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"fpmpart/internal/telemetry"
)

// instance is one booted and warmed workload.
type instance interface {
	// run drives the workload's closed loop for d, cut into slices parts.
	// traced runs also issue the baseline traffic only the per-layer numbers
	// need.
	run(d time.Duration, slices int, traced bool) window
	// trace re-enacts requests level by level for d, recording spans.
	trace(tr *tracer, d time.Duration) error
	// counters are the workload's own per-layer numbers.
	counters() map[string]float64
	// finish makes the output checks that have to wait for the window's end.
	finish() (attempted, failed int, err error)
	close()
}

type workload struct {
	name string
	// tail is the percentile op_tail_ms reports: the highest with about ten
	// samples beyond it in one window.
	tail float64
	// slices is how many consecutive parts of the window the tail and the
	// rate are medians over.
	slices int
	setup  func(seed int64) (instance, error)
}

var workloads = []workload{
	{"exec-large", 0.80, 1, func(seed int64) (instance, error) { return setupExec(execLarge, seed) }},
	{"exec-small", 0.95, 7, func(seed int64) (instance, error) { return setupExec(execSmall, seed) }},
	{"serve-warm", 0.99, 15, func(seed int64) (instance, error) { return setupServe(false, seed) }},
	{"serve-cold", 0.99, 15, func(seed int64) (instance, error) { return setupServe(true, seed) }},
	{"ring-churn", 0.99, 15, func(seed int64) (instance, error) { return setupRing(seed) }},
}

// setups is how often a run sets its workload up; setup_s is the median.
const setups = 3

// spec is BENCHMARK.json: the metric names, units and bounds every run
// reports under, read from the file so that two commits being compared run
// the same settings.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
	root     string
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec finds BENCHMARK.json in the working directory or its parent (the
// repository root when run from benchmark/).
func loadSpec() (*spec, error) {
	var firstErr error
	for _, root := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		sp := &spec{root: root}
		if err := json.Unmarshal(data, sp); err != nil {
			return nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return sp, nil
	}
	return nil, firstErr
}

func (sp *spec) why(name string) string {
	for _, w := range sp.Workloads {
		if w.Name == name {
			return w.Why
		}
	}
	return ""
}

// runResult is one run of one workload, as result.json keeps it.
type runResult struct {
	Workload  string   `json:"workload"`
	Why       string   `json:"why"`
	Seed      int64    `json:"seed"`
	Traced    bool     `json:"traced"`
	Seconds   float64  `json:"seconds"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Error     string   `json:"error,omitempty"`
	Metrics   []metric `json:"metrics"`
}

// resultFile is benchmark/out/result.json.
type resultFile struct {
	Host       string      `json:"host"`
	NProc      int         `json:"nproc"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	GoVersion  string      `json:"go_version"`
	Commit     string      `json:"commit"`
	Seed       int64       `json:"seed"`
	Runs       []runResult `json:"runs"`
}

func newResultFile(seed int64) *resultFile {
	host, _ := os.Hostname()
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return &resultFile{
		Host: host, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit, Seed: seed,
	}
}

// measure runs one workload once: untraced for the end-to-end metrics, or
// traced for the per-layer ones.
func measure(sp *spec, w workload, seed int64, seconds float64, traced bool, outDir string) runResult {
	res := runResult{Workload: w.name, Why: sp.why(w.name), Seed: seed, Traced: traced, Seconds: seconds}
	ms := &metrics{}
	declared := sp.EndToEnd
	var err error
	if traced {
		declared = sp.PerLayer
		err = measureLayers(w, seed, seconds, outDir, &res, ms)
	} else {
		err = measureEndToEnd(w, seed, seconds, &res, ms)
	}
	// A run with failed operations still reports what it measured.
	reported, derr := ms.declaredAs(declared)
	res.Metrics = reported
	if err = errors.Join(err, derr); err != nil {
		// A run that could not finish counts as one failed operation at least.
		res.Error = err.Error()
		res.Failed = max(res.Failed, 1)
		res.Attempted = max(res.Attempted, 1)
	}
	return res
}

func durationOf(seconds float64) time.Duration { return time.Duration(seconds * float64(time.Second)) }

func measureEndToEnd(w workload, seed int64, seconds float64, res *runResult, ms *metrics) error {
	var in instance
	var setupSecs []float64
	for k := 0; k < setups; k++ {
		if in != nil {
			in.close()
		}
		start := time.Now()
		var err error
		if in, err = w.setup(seed); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setupSecs = append(setupSecs, time.Since(start).Seconds())
	}
	defer in.close()
	sampler := startRSSSampler()
	win := in.run(durationOf(seconds), w.slices, false)
	rss, rssSamples, rssErr := sampler.median()
	if rssErr != nil {
		return rssErr
	}
	attempted, failed, err := in.finish()
	res.Attempted = win.attempted + attempted
	res.Failed = win.failed + failed
	if err == nil {
		err = win.firstErr
	}
	lats := win.lats()
	if len(lats) == 0 {
		return fmt.Errorf("no operation succeeded: %v", err)
	}
	n := len(lats)
	for _, s := range win.slices {
		if p := supportedTail(len(s)); p < w.tail {
			fmt.Printf("  note: a slice of %d samples supports p%g at most, op_tail_ms reports p%g\n", len(s), p*100, w.tail*100)
			break
		}
	}
	ms.add("setup_s", median(setupSecs), setups, 0.5)
	ms.add("op_p50_ms", median(lats)*1e3, n, 0.5)
	ms.add("op_tail_ms", 1e3*sliceMedian(win.slices, func(s []float64) float64 {
		return quantile(s, w.tail)
	}), n, w.tail)
	ms.add("ops_per_s", sliceMedian(win.slices, func(s []float64) float64 {
		return float64(len(s)) * float64(len(win.slices)) / win.elapsed
	}), n, 0)
	ms.add("rss_mb", rss, rssSamples, 0.5)
	return err
}

func measureLayers(w workload, seed int64, seconds float64, outDir string, res *runResult, ms *metrics) error {
	in, err := w.setup(seed)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	half := durationOf(seconds / 2)
	win := in.run(half, 1, true)
	tr := newTracer()
	traceErr := in.trace(tr, half)
	attempted, failed, err := in.finish()
	counters := in.counters()
	in.close()
	res.Attempted = win.attempted + attempted
	res.Failed = win.failed + failed
	if err := errors.Join(win.firstErr, traceErr, err); err != nil {
		return err
	}
	if err := writeTrace(filepath.Join(outDir, "trace-"+w.name+".json"), w.name, seed, tr.spans); err != nil {
		return err
	}

	lats := win.lats()
	for name, v := range counters {
		ms.add(name, v, len(lats), 0)
	}
	var roots []float64
	for _, s := range tr.spans {
		if s.Parent == -1 {
			roots = append(roots, s.dur()/1e6)
		}
	}
	for layer, share := range layerShares(tr.spans) {
		ms.add("share."+layer, share, len(roots), 0)
	}
	if len(lats) > 0 && len(roots) > 0 {
		untraced := median(lats)
		ms.add("bench.trace_overhead_frac", (median(roots)-untraced)/untraced, len(roots), 0.5)
	}
	if err := runProbes(seed, ms); err != nil {
		return fmt.Errorf("layer probes: %w", err)
	}
	return nil
}

// lastLine is the object the driver reads from the last line of output.
type lastLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]lineValue `json:"metrics"`
}

type lineValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r runResult) lastLine() lastLine {
	out := lastLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]lineValue{}}
	for _, m := range r.Metrics {
		out.Metrics[m.Name] = lineValue{m.Value, m.Unit}
	}
	return out
}

func (r runResult) print() {
	kind := "end to end"
	if r.Traced {
		kind = "per layer"
	}
	fmt.Printf("%s seed=%d %s: %d attempted, %d failed\n", r.Workload, r.Seed, kind, r.Attempted, r.Failed)
	if r.Error != "" {
		fmt.Printf("  ERROR %s\n", r.Error)
	}
	metrics(r.Metrics).print()
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all: each workload untraced, then traced")
		seed    = flag.Int64("seed", 1, "seed the inputs are generated from")
		seconds = flag.Float64("seconds", 0, "length of a timed window (0 = run_seconds of BENCHMARK.json)")
		trace   = flag.Int("trace", 0, "with -workload NAME: 0 reports the end-to-end metrics, 1 the per-layer ones")
		repeat  = flag.Int("repeat", 1, "with -workload all: sets to run; from the second on, each is compared with the first")
	)
	flag.Parse()
	sp, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	outDir := filepath.Join(sp.root, "benchmark", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	// What cmd/fpmd and cmd/fpmworker do at start-up.
	telemetry.Default().SetEnabled(true)

	file := newResultFile(*seed)
	ok := true
	record := func(r runResult) {
		r.print()
		file.Runs = append(file.Runs, r)
		ok = ok && r.Failed == 0
	}
	single := *name != "all"
	if single {
		var picked *workload
		for i := range workloads {
			if workloads[i].name == *name {
				picked = &workloads[i]
			}
		}
		if picked == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		record(measure(sp, *picked, *seed, *seconds, *trace == 1, outDir))
	} else {
		for set := 0; set < *repeat; set++ {
			for _, w := range workloads {
				record(measure(sp, w, *seed, *seconds, false, outDir))
				record(measure(sp, w, *seed, *seconds, true, outDir))
			}
		}
		if *repeat > 1 {
			ok = compareSets(sp, file.Runs, *repeat) && ok
		}
	}
	if err := writeJSON(filepath.Join(outDir, "result.json"), file); err != nil {
		fatal(err)
	}
	if single {
		// The driver reads the run's result from the last line of output.
		line, err := json.Marshal(file.Runs[0].lastLine())
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
	if !ok {
		os.Exit(1)
	}
}

// fatal reports a failure of the harness itself, as opposed to a wrong
// answer from the program (exit 1).
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// compareSets prints, for every end-to-end metric of every workload, how
// much worse each later set read than the first, against the metric's bound.
func compareSets(sp *spec, runs []runResult, sets int) bool {
	perSet := len(runs) / sets
	within := true
	fmt.Println("set-to-set difference (positive = worse than set 1):")
	for i := 0; i < perSet; i++ {
		if runs[i].Traced {
			continue
		}
		for _, d := range sp.EndToEnd {
			base, _ := metrics(runs[i].Metrics).get(d.Name)
			for set := 1; set < sets; set++ {
				m, _ := metrics(runs[set*perSet+i].Metrics).get(d.Name)
				worse := (m.Value - base.Value) / base.Value
				if d.Better == "higher" {
					worse = -worse
				}
				verdict := "ok"
				if worse > d.Bound {
					verdict = "OUTSIDE BOUND"
					within = false
				}
				fmt.Printf("  %-11s %-12s set %d %+7.2f%%  bound %4.1f%%  %s\n",
					runs[i].Workload, d.Name, set+1, worse*100, d.Bound*100, verdict)
			}
		}
	}
	return within
}
