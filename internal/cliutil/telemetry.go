// Package cliutil shares command-line plumbing between the cmd/ tools —
// currently the telemetry flag set (-metrics-addr, -telemetry-json,
// -trace-out) and its lifecycle.
package cliutil

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"fpmpart/internal/telemetry"
)

// TelemetryFlags is the shared observability flag set of the cmd/ tools.
type TelemetryFlags struct {
	// MetricsAddr serves the registry over HTTP while the tool runs.
	MetricsAddr string
	// TraceOut receives a Chrome trace_event JSON file (tool-specific
	// content; the tool decides what to export).
	TraceOut string
	// JSONOut receives structured JSONL telemetry events.
	JSONOut string
	// Pprof mounts net/http/pprof on the metrics endpoint.
	Pprof bool
}

// Register installs -metrics-addr, -trace-out and -telemetry-json on the
// default flag set.
func (t *TelemetryFlags) Register() {
	flag.StringVar(&t.MetricsAddr, "metrics-addr", "",
		"serve Prometheus text (/metrics) and a JSON snapshot (/metrics.json) on this address while running")
	flag.StringVar(&t.TraceOut, "trace-out", "",
		"write a Chrome trace_event JSON file of the run to this path (load in Perfetto or chrome://tracing)")
	flag.StringVar(&t.JSONOut, "telemetry-json", "",
		"write structured JSONL telemetry events to this file")
	flag.BoolVar(&t.Pprof, "pprof", false,
		"serve net/http/pprof runtime profiling under /debug/pprof/ on the metrics address")
}

// Active reports whether any telemetry flag was set.
func (t *TelemetryFlags) Active() bool {
	return t.MetricsAddr != "" || t.TraceOut != "" || t.JSONOut != ""
}

// Start enables the default registry when any flag is set and attaches the
// requested sinks. The returned stop function emits a final metrics
// snapshot to the event log, shuts the HTTP endpoint down and closes the
// event file; it is safe to call even when telemetry is inactive.
func (t *TelemetryFlags) Start() (stop func(), err error) {
	if !t.Active() {
		return func() {}, nil
	}
	reg := telemetry.Default()
	reg.SetEnabled(true)

	var logFile *os.File
	if t.JSONOut != "" {
		logFile, err = os.Create(t.JSONOut)
		if err != nil {
			return nil, err
		}
		reg.SetEventLog(telemetry.NewEventLog(logFile))
	}

	var shutdown func(context.Context) error
	if t.MetricsAddr != "" {
		h := reg.Handler()
		if t.Pprof {
			h = telemetry.WithPprof(h)
		}
		var addr string
		addr, shutdown, err = telemetry.ServeHTTP(t.MetricsAddr, h)
		if err != nil {
			if logFile != nil {
				logFile.Close()
			}
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "telemetry: serving http://%s/metrics\n", addr)
		if t.Pprof {
			fmt.Fprintf(os.Stderr, "telemetry: serving http://%s/debug/pprof/\n", addr)
		}
	}

	return func() {
		reg.Event("metrics.snapshot", "metrics", reg.Snapshot())
		if shutdown != nil {
			// Graceful: let an in-flight scrape finish, but never hang a
			// tool's exit for more than a few seconds.
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			_ = shutdown(ctx)
			cancel()
		}
		if logFile != nil {
			reg.SetEventLog(nil)
			if err := logFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "telemetry:", err)
			}
		}
	}, nil
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
