package telemetry

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestNewReqTraceGeneratesID(t *testing.T) {
	a := NewReqTrace("", "partition")
	b := NewReqTrace("", "partition")
	if a.ID() == "" || b.ID() == "" {
		t.Fatal("generated trace IDs must be non-empty")
	}
	if a.ID() == b.ID() {
		t.Fatalf("two generated IDs collided: %q", a.ID())
	}
	if len(a.ID()) != 16 {
		t.Fatalf("generated ID %q: want 16 hex chars", a.ID())
	}
}

func TestNewReqTraceKeepsCallerID(t *testing.T) {
	rt := NewReqTrace("caller-42", "partition")
	if rt.ID() != "caller-42" {
		t.Fatalf("ID = %q, want caller-42", rt.ID())
	}
	if rt.Route() != "partition" {
		t.Fatalf("Route = %q, want partition", rt.Route())
	}
}

func TestStageNesting(t *testing.T) {
	rt := NewReqTrace("nest", "partition")
	ctx := ContextWithTrace(context.Background(), rt)

	sctx, endSolve := StartStage(ctx, "solve")
	endGate := Stage(sctx, "gate.wait")
	endGate()
	endEqualTime := Stage(sctx, "equal-time")
	endEqualTime()
	endSolve()
	endSer := Stage(ctx, "serialize")
	endSer()
	rt.Finish(200)

	snap := rt.Snapshot()
	if len(snap.Spans) != 2 {
		t.Fatalf("top-level spans = %d, want 2 (solve, serialize): %+v", len(snap.Spans), snap.Spans)
	}
	solve := snap.Spans[0]
	if solve.Name != "solve" || len(solve.Children) != 2 {
		t.Fatalf("solve span wrong: %+v", solve)
	}
	if solve.Children[0].Name != "gate.wait" || solve.Children[1].Name != "equal-time" {
		t.Fatalf("solve children wrong: %+v", solve.Children)
	}
	if snap.Spans[1].Name != "serialize" || len(snap.Spans[1].Children) != 0 {
		t.Fatalf("serialize span wrong: %+v", snap.Spans[1])
	}
}

func TestStageWithoutTraceIsNoop(t *testing.T) {
	ctx := context.Background()
	Stage(ctx, "x")()
	sctx, end := StartStage(ctx, "y")
	end()
	if sctx != ctx {
		t.Fatal("StartStage without a trace must return ctx unchanged")
	}
	AnnotateTrace(ctx, "k", "v") // must not panic
	if TraceFrom(ctx) != nil {
		t.Fatal("TraceFrom on bare ctx must be nil")
	}
}

func TestNilTraceMethodsSafe(t *testing.T) {
	var rt *ReqTrace
	if rt.ID() != "" || rt.Route() != "" || rt.Status() != 0 || rt.Duration() != 0 {
		t.Fatal("nil trace accessors must return zero values")
	}
	rt.Annotate("k", "v")
	rt.Finish(500)
	if snap := rt.Snapshot(); snap.ID != "" || len(snap.Spans) != 0 {
		t.Fatalf("nil trace snapshot must be empty: %+v", snap)
	}
	rt.AddToChromeTrace(NewChromeTrace(), "p")
}

func TestFinishClipsOpenSpansAndIsIdempotent(t *testing.T) {
	rt := NewReqTrace("clip", "partition")
	ctx := ContextWithTrace(context.Background(), rt)
	_ = Stage(ctx, "leaked") // never closed
	time.Sleep(time.Millisecond)
	rt.Finish(503)
	dur := rt.Duration()
	if dur <= 0 {
		t.Fatal("Finish must record a positive duration")
	}
	snap := rt.Snapshot()
	if len(snap.Spans) != 1 || snap.Spans[0].DurationUS <= 0 {
		t.Fatalf("open span must be clipped to request end: %+v", snap.Spans)
	}
	time.Sleep(time.Millisecond)
	rt.Finish(200)
	if rt.Status() != 503 || rt.Duration() != dur {
		t.Fatal("second Finish must not overwrite the first")
	}
}

func TestAnnotateLastValueWins(t *testing.T) {
	rt := NewReqTrace("a", "partition")
	rt.Annotate("cache", "miss")
	rt.Annotate("cache", "coalesced")
	snap := rt.Snapshot()
	if snap.Attrs["cache"] != "coalesced" {
		t.Fatalf("Attrs[cache] = %q, want coalesced", snap.Attrs["cache"])
	}
}

func TestAddToChromeTrace(t *testing.T) {
	rt := NewReqTrace("chrome-1", "partition")
	ctx := ContextWithTrace(context.Background(), rt)
	Stage(ctx, "solve")()
	rt.Finish(200)

	ct := NewChromeTrace()
	rt.AddToChromeTrace(ct, "fpmd")
	var sb strings.Builder
	if err := ct.Write(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("chrome trace is not JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if n, ok := ev["name"].(string); ok {
			names[n] = true
		}
	}
	if !names["partition"] || !names["solve"] {
		t.Fatalf("chrome trace missing route/stage slices: %v", names)
	}
}
