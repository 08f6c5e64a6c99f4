package main

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"fpmpart/internal/workerd"
)

func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		samples int
		want    float64
	}{{9, 0}, {40, 0.75}, {50, 0.80}, {100, 0.90}, {200, 0.95}, {1000, 0.99}, {10000, 0.999}} {
		if got := supportedTail(c.samples); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.samples, got, c.want)
		}
	}
}

func TestSliceMedianIgnoresOneBadSlice(t *testing.T) {
	slices := [][]float64{{1, 1, 1, 2}, {1, 1, 1, 3}, {1, 1, 1, 900}, {1, 1, 1, 4}, {1, 1, 1, 5}}
	max := func(s []float64) float64 { return quantile(s, 1) }
	if got := sliceMedian(slices, max); got != 4 {
		t.Errorf("sliceMedian of maxima = %v, want 4: one stalled slice must not move it", got)
	}
}

func TestClosedLoopSlicesAndCounts(t *testing.T) {
	const clients, k = 2, 4
	w := closedLoop(clients, 200*time.Millisecond, k, func(_, i int) (time.Duration, bool, error) {
		time.Sleep(time.Millisecond)
		switch i % 10 {
		case 3:
			return 0, true, nil // a write among reads
		case 7:
			return 0, false, errors.New("wrong answer")
		}
		return time.Millisecond, false, nil
	})
	if len(w.slices) != k {
		t.Fatalf("%d slices, want %d", len(w.slices), k)
	}
	for i, s := range w.slices {
		if len(s) == 0 {
			t.Errorf("slice %d is empty", i)
		}
	}
	if w.failed == 0 || w.firstErr == nil {
		t.Errorf("failed = %d, firstErr = %v: the failing operations were not counted", w.failed, w.firstErr)
	}
	if skipped := w.attempted - w.failed - len(w.lats()); skipped < w.attempted/20 || skipped > w.attempted/5 {
		t.Errorf("%d attempted, %d failed, %d sampled: about a tenth should be skipped writes", w.attempted, w.failed, len(w.lats()))
	}
	if w.elapsed < 0.2 {
		t.Errorf("window lasted %v s, want at least 0.2", w.elapsed)
	}
}

func TestSelfTimes(t *testing.T) {
	// A job of 100 whose re-enacted solve took 10 and whose dispatch, also
	// re-enacted, took 80; inside the dispatch two shards ran side by side,
	// the longer for 70; that shard's re-enacted fill and kernel took 20 and
	// 40.
	spans := []span{
		{ID: 0, Parent: -1, Name: "service.execute", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "partition.FPM", Start: 100, End: 110},
		{ID: 2, Parent: 0, Name: "workerd.dispatch", Start: 110, End: 190},
		{ID: 3, Parent: 2, Name: "workerd.shard", Start: 112, End: 150},
		{ID: 4, Parent: 2, Name: "workerd.shard", Start: 113, End: 183},
		{ID: 5, Parent: 4, Name: "matrix.fill", Start: 200, End: 220},
		{ID: 6, Parent: 4, Name: "blas.GemmPacked", Start: 220, End: 260},
		// The shorter shard's work is off the blocking path.
		{ID: 7, Parent: 3, Name: "blas.GemmPacked", Start: 300, End: 330},
	}
	got := selfTimes(childIndex(spans), spans[0])
	want := map[string]float64{
		"service":   10,     // 100 - 10 - 80
		"partition": 10,     //
		"workerd":   9 + 10, // dispatch 80 - union [112,183]; shard 70 - 20 - 40
		"matrix":    20,     //
		"blas":      40,     //
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	total := 0.0
	for _, v := range got {
		total += v
	}
	if total > spans[0].dur() {
		t.Errorf("self times sum to %v, more than the root's %v", total, spans[0].dur())
	}
}

func TestSelfTimesScalesOvershootingReenactments(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "http.partition", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "service.handler", Start: 100, End: 250},
	}
	got := selfTimes(childIndex(spans), spans[0])
	if got["service"] != 100 || got["http"] != 0 {
		t.Errorf("selfTimes = %v, want the handler scaled to the root's 100", got)
	}
	shares := layerShares(spans)
	if shares["service"] != 1 {
		t.Errorf("layerShares = %v, want service 1", shares)
	}
}

func TestLayerSharesAveragesOverRequests(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Request: 0, Name: "clusterd.member", Start: 0, End: 100},
		{ID: 1, Parent: 0, Request: 0, Name: "http.partition", Start: 100, End: 160},
		{ID: 2, Parent: -1, Request: 1, Name: "http.partition", Start: 200, End: 260},
	}
	got := layerShares(spans)
	if math.Abs(got["clusterd"]-0.2) > 1e-12 || math.Abs(got["http"]-0.8) > 1e-12 {
		t.Errorf("layerShares = %v, want clusterd 0.2 (0.4 on one request of two) and http 0.8", got)
	}
}

func TestGenChecker(t *testing.T) {
	g := genChecker{}
	for _, gen := range []uint64{1, 1, 3} {
		if err := g.observe("a", "m", gen); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.observe("b", "m", 2); err != nil {
		t.Errorf("another member may lag: %v", err)
	}
	if err := g.observe("a", "other", 1); err != nil {
		t.Errorf("another model has its own stream: %v", err)
	}
	if err := g.observe("a", "m", 2); err == nil {
		t.Error("generation 2 after 3 through one member must fail")
	}
}

func TestCheckBands(t *testing.T) {
	ok := []workerd.ShardReport{{Row0: 0, Row1: 3, Units: 3}, {Row0: 3, Row1: 10, Units: 7}}
	if err := checkBands(ok, 10); err != nil {
		t.Error(err)
	}
	for name, bad := range map[string][]workerd.ShardReport{
		"gap":        {{Row0: 0, Row1: 3, Units: 3}, {Row0: 4, Row1: 10, Units: 6}},
		"short":      {{Row0: 0, Row1: 3, Units: 3}},
		"units":      {{Row0: 0, Row1: 10, Units: 9}},
		"redispatch": {{Row0: 0, Row1: 10, Units: 10, Attempt: 1}},
	} {
		if err := checkBands(bad, 10); err == nil {
			t.Errorf("%s: want an error", name)
		}
	}
}

func TestAnswerCheck(t *testing.T) {
	var a answer
	if err := json.Unmarshal([]byte(`{"total":10,"devices":[{"units":4},{"units":6}],"converged":true}`), &a); err != nil {
		t.Fatal(err)
	}
	if err := a.check(10, 2); err != nil {
		t.Error(err)
	}
	if a.check(11, 2) == nil || a.check(10, 3) == nil {
		t.Error("wrong sum or device count must fail")
	}
	a.Converged = false
	if a.check(10, 2) == nil {
		t.Error("a solve that did not converge must fail")
	}
}

func TestResultFileRoundTrip(t *testing.T) {
	in := newResultFile(7)
	in.Runs = []runResult{{
		Workload: "serve-warm", Why: "why", Seed: 7, Seconds: 15, Attempted: 3, Failed: 1, Error: "boom",
		Metrics: []metric{{"op_p50_ms", "ms", 0.125, 3, 0.5}, {"ops_per_s", "1/s", 8000, 3, 0}},
	}}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	out := new(resultFile)
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip changed the result:\n in %+v\nout %+v", in, out)
	}
	line := in.Runs[0].lastLine()
	if line.Correct || line.Attempted != 3 || line.Failed != 1 || line.Metrics["op_p50_ms"] != (lineValue{0.125, "ms"}) {
		t.Errorf("last line = %+v", line)
	}
}

// TestSmoke runs every workload, untraced and traced, on windows and job
// shapes a fiftieth the size, and checks that each run is correct and
// reports exactly the metrics BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the whole stack")
	}
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	defer func(l execShape) { execLarge = l }(execLarge)
	execLarge = execShape{rows: 512, k: 256, n: 256, bands: []int{256, 512}, warmup: 8}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the code has %d", len(sp.Workloads), len(workloads))
	}
	dir := t.TempDir()
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the code", i, sp.Workloads[i].Name, w.name)
		}
		for _, traced := range []bool{false, true} {
			start := time.Now()
			res := measure(sp, w, 3, 0.3, traced, dir)
			t.Logf("%s traced=%v: %v", w.name, traced, time.Since(start))
			if res.Failed != 0 || res.Attempted == 0 || res.Error != "" {
				t.Errorf("%s traced=%v: %d of %d failed: %s", w.name, traced, res.Failed, res.Attempted, res.Error)
				continue
			}
			declared := sp.EndToEnd
			if traced {
				declared = sp.PerLayer
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s traced=%v: %d metrics reported, %d declared", w.name, traced, len(res.Metrics), len(declared))
			}
			for _, d := range declared {
				m, ok := metrics(res.Metrics).get(d.Name)
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s missing", w.name, traced, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s: %s has unit %q, declared %q", w.name, d.Name, m.Unit, d.Unit)
				case !traced && !(m.Value > 0):
					t.Errorf("%s: end-to-end %s = %v, must be positive", w.name, d.Name, m.Value)
				}
			}
		}
	}
}
