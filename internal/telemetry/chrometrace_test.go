package telemetry

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"fpmpart/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// checkGolden compares got against testdata/<name> (rewriting it under
// -update).
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// engineTimeline builds a small deterministic GPU-engine schedule like the
// ones internal/gpukernel records (the paper's Figure 4(b) shape).
func engineTimeline(t *testing.T) *trace.Timeline {
	t.Helper()
	var tl trace.Timeline
	for _, s := range []struct {
		lane, label string
		start, end  float64
	}{
		{"h2d", "B", 0, 0.010},
		{"h2d", "d0", 0.010, 0.050},
		{"compute", "g0", 0.050, 0.150},
		{"h2d", "d1", 0.050, 0.090},
		{"compute", "g1", 0.150, 0.250},
		{"d2h", "u0", 0.150, 0.190},
		{"d2h", "u1", 0.250, 0.290},
	} {
		if err := tl.Add(s.lane, s.label, s.start, s.end); err != nil {
			t.Fatal(err)
		}
	}
	return &tl
}

func TestChromeTraceGoldenFromTimeline(t *testing.T) {
	ct := NewChromeTrace()
	ct.AddTimeline("GTX680", engineTimeline(t))
	var buf bytes.Buffer
	if err := ct.Write(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "chrometrace_timeline.golden", buf.Bytes())

	// The golden must stay valid JSON with the expected event structure.
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	// 1 process_name + 3 thread_name + 7 spans.
	if len(doc.TraceEvents) != 11 {
		t.Fatalf("got %d events, want 11", len(doc.TraceEvents))
	}
	tids := map[string]int{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			if e.Pid != 1 {
				t.Errorf("span %s on pid %d, want 1", e.Name, e.Pid)
			}
			tids[e.Name] = e.Tid
		}
	}
	// Lane→tid mapping follows first-appearance order: h2d=1, compute=2,
	// d2h=3 — distinct lanes per engine, as the acceptance criteria demand.
	if tids["B"] != 1 || tids["g0"] != 2 || tids["u0"] != 3 {
		t.Errorf("lane mapping wrong: %v", tids)
	}
}

func TestChromeTraceGoldenByLane(t *testing.T) {
	var tl trace.Timeline
	for _, s := range []struct {
		lane, label string
		start, end  float64
	}{
		{"socket0/core1", "it0", 0, 1.5},
		{"socket0/core2", "it0", 0, 1.4},
		{"GTX680/host", "it0", 0, 0.9},
		{"GTX680/h2d", "d0", 0, 0.2},
		{"GTX680/compute", "g0", 0.2, 0.8},
		{"node/broadcast", "bcast0", 1.5, 1.7},
	} {
		if err := tl.Add(s.lane, s.label, s.start, s.end); err != nil {
			t.Fatal(err)
		}
	}
	ct := NewChromeTrace()
	ct.AddTimelineByLane(&tl)
	var buf bytes.Buffer
	if err := ct.Write(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "chrometrace_bylane.golden", buf.Bytes())

	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
}

func TestChromeTraceStableAcrossRewrites(t *testing.T) {
	build := func() []byte {
		ct := NewChromeTrace()
		ct.AddTimeline("gpu", engineTimeline(t))
		var buf bytes.Buffer
		if err := ct.Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(build(), build()) {
		t.Error("export ordering is not stable")
	}
}
