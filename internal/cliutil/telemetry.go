// Package cliutil shares command-line plumbing between the cmd/ tools: the
// -parallel pool width, the -trace-out Chrome trace and the
// -log-format/-log-level logger.
package cliutil

import (
	"flag"
	"os"

	"fpmpart/internal/telemetry"
)

// TelemetryFlags is the batch tools' trace flag: -trace-out.
type TelemetryFlags struct {
	// TraceOut receives a Chrome trace_event JSON file (tool-specific
	// content; the tool decides what to export).
	TraceOut string
}

// Register installs -trace-out on the default flag set.
func (t *TelemetryFlags) Register() {
	flag.StringVar(&t.TraceOut, "trace-out", "",
		"write a Chrome trace_event JSON file of the run to this path (load in Perfetto or chrome://tracing)")
}

// WriteChromeTrace writes a Chrome trace to TraceOut (no-op when the flag is
// unset). The build callback populates the trace.
func (t *TelemetryFlags) WriteChromeTrace(build func(ct *telemetry.ChromeTrace) error) error {
	if t.TraceOut == "" {
		return nil
	}
	ct := telemetry.NewChromeTrace()
	if err := build(ct); err != nil {
		return err
	}
	f, err := os.Create(t.TraceOut)
	if err != nil {
		return err
	}
	if err := ct.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
