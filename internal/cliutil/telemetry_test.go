package cliutil

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"fpmpart/internal/telemetry"
)

func TestInactiveFlagsAreNoops(t *testing.T) {
	var tf TelemetryFlags
	called := false
	if err := tf.WriteChromeTrace(func(*telemetry.ChromeTrace) error {
		called = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Error("WriteChromeTrace built a trace without -trace-out")
	}
}

func TestWriteChromeTrace(t *testing.T) {
	dir := t.TempDir()
	tf := TelemetryFlags{TraceOut: filepath.Join(dir, "trace.json")}
	if err := tf.WriteChromeTrace(func(ct *telemetry.ChromeTrace) error {
		ct.Span("proc", "thread", "task", 0, 1e-3)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tf.TraceOut)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("no trace events written")
	}
}
