package telemetry

import (
	"context"
	"math/rand/v2"
	"sync"
	"time"
)

// Request-scoped tracing: a per-request span tree carried through
// context.Context from the serving middleware into the admission gate, the
// solution cache, and the partition solver. Unlike the process-wide Tracer
// (one global timeline), a ReqTrace belongs to exactly one request, so a
// slow or shed request can be reconstructed after the fact — which stage ate
// the time: admission wait, cache miss, equal-time solve, serialization.
//
// Everything is nil-safe: when no trace rides the context (background tools,
// tracing disabled), TraceFrom returns nil, Stage returns a stage whose End
// does nothing, and the cost is one context lookup.

// Attr is one key/value annotation on a request trace.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// ReqSpan is one stage of a request, parent-linked into a tree.
type ReqSpan struct {
	// Name labels the stage ("gate.wait", "solve", "serialize").
	Name string
	// Parent is the index of the enclosing span in the trace's span list,
	// or -1 for a top-level stage.
	Parent int
	// StartNS / EndNS are nanosecond offsets from the trace start. EndNS is
	// -1 while the span is open.
	StartNS, EndNS int64
}

// ReqTrace is one request's trace: identity, route, and a span tree with
// per-stage durations. It is safe for concurrent use, though a request is
// normally traced from a single goroutine and only read (by the flight
// recorder) after Finish.
type ReqTrace struct {
	id    string
	route string
	begin time.Time

	mu     sync.Mutex
	spans  []ReqSpan
	attrs  []Attr
	status int
	durNS  int64
	done   bool
}

const hexDigits = "0123456789abcdef"

// NewTraceID returns a fresh 16-hex-digit request id. Request ids are
// correlation handles, not secrets, so math/rand is sufficient (and the
// manual encoding keeps the warm path at one allocation).
func NewTraceID() string {
	v := rand.Uint64()
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexDigits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

// NewReqTrace starts a trace for one request on the given route. An empty id
// generates one; a caller-supplied id (e.g. from an X-Request-Id header) is
// kept verbatim so logs, responses and the flight recorder correlate with
// the caller's own tracing. Span storage is preallocated for the typical
// request shape so the per-stage cost is lock + append.
func NewReqTrace(id, route string) *ReqTrace {
	if id == "" {
		id = NewTraceID()
	}
	return &ReqTrace{
		id: id, route: route, begin: time.Now(),
		spans: make([]ReqSpan, 0, 8),
	}
}

// ID returns the trace id ("" on a nil trace).
func (t *ReqTrace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Route returns the route label the trace was started for.
func (t *ReqTrace) Route() string {
	if t == nil {
		return ""
	}
	return t.route
}

// Annotate attaches a key/value annotation ("cache" = "hit"). Later values
// for the same key win in the snapshot.
func (t *ReqTrace) Annotate(key, value string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.attrs = append(t.attrs, Attr{Key: key, Value: value})
	t.mu.Unlock()
}

// startSpan opens a span under parent (-1 = top level) and returns its index.
func (t *ReqTrace) startSpan(name string, parent int) int {
	off := time.Since(t.begin).Nanoseconds()
	t.mu.Lock()
	idx := len(t.spans)
	t.spans = append(t.spans, ReqSpan{Name: name, Parent: parent, StartNS: off, EndNS: -1})
	t.mu.Unlock()
	return idx
}

// endSpan closes the span at idx.
func (t *ReqTrace) endSpan(idx int) {
	off := time.Since(t.begin).Nanoseconds()
	t.mu.Lock()
	if idx >= 0 && idx < len(t.spans) && t.spans[idx].EndNS < 0 {
		t.spans[idx].EndNS = off
	}
	t.mu.Unlock()
}

// Finish seals the trace with the response status. Open spans are clipped to
// the request end. Finish is idempotent; only the first call records.
func (t *ReqTrace) Finish(status int) {
	if t == nil {
		return
	}
	off := time.Since(t.begin).Nanoseconds()
	t.mu.Lock()
	if !t.done {
		t.done = true
		t.status = status
		t.durNS = off
		for i := range t.spans {
			if t.spans[i].EndNS < 0 {
				t.spans[i].EndNS = off
			}
		}
	}
	t.mu.Unlock()
}

// Status returns the recorded response status (0 before Finish).
func (t *ReqTrace) Status() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.status
}

// Duration returns the request duration recorded by Finish (0 before).
func (t *ReqTrace) Duration() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return time.Duration(t.durNS)
}

// SpanSnapshot is one stage in the exported span tree.
type SpanSnapshot struct {
	Name       string          `json:"name"`
	StartUS    float64         `json:"start_us"`
	DurationUS float64         `json:"duration_us"`
	Children   []*SpanSnapshot `json:"children,omitempty"`
}

// ReqTraceSnapshot is the JSON view of a finished trace, served by the
// flight recorder's drill-down endpoint.
type ReqTraceSnapshot struct {
	ID         string            `json:"id"`
	Route      string            `json:"route"`
	Start      time.Time         `json:"start"`
	Status     int               `json:"status"`
	DurationUS float64           `json:"duration_us"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Spans      []*SpanSnapshot   `json:"spans,omitempty"`
}

// Snapshot renders the trace as an exportable span tree.
func (t *ReqTrace) Snapshot() ReqTraceSnapshot {
	if t == nil {
		return ReqTraceSnapshot{}
	}
	t.mu.Lock()
	spans := append([]ReqSpan(nil), t.spans...)
	attrs := append([]Attr(nil), t.attrs...)
	snap := ReqTraceSnapshot{
		ID: t.id, Route: t.route, Start: t.begin,
		Status: t.status, DurationUS: float64(t.durNS) / 1e3,
	}
	t.mu.Unlock()
	if len(attrs) > 0 {
		snap.Attrs = make(map[string]string, len(attrs))
		for _, a := range attrs {
			snap.Attrs[a.Key] = a.Value
		}
	}
	nodes := make([]*SpanSnapshot, len(spans))
	for i, s := range spans {
		end := s.EndNS
		if end < 0 {
			end = s.StartNS
		}
		nodes[i] = &SpanSnapshot{
			Name:       s.Name,
			StartUS:    float64(s.StartNS) / 1e3,
			DurationUS: float64(end-s.StartNS) / 1e3,
		}
	}
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(nodes) && s.Parent != i {
			nodes[s.Parent].Children = append(nodes[s.Parent].Children, nodes[i])
		} else {
			snap.Spans = append(snap.Spans, nodes[i])
		}
	}
	return snap
}

// AddToChromeTrace exports the trace's span tree into a ChromeTrace: the
// request becomes one thread of the given process, with the route as the
// enclosing slice and stages stacked beneath it (Perfetto renders the
// nesting from the overlaps).
func (t *ReqTrace) AddToChromeTrace(ct *ChromeTrace, process string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	spans := append([]ReqSpan(nil), t.spans...)
	route, id, durNS := t.route, t.id, t.durNS
	t.mu.Unlock()
	ct.Span(process, id, route, 0, float64(durNS)/1e9)
	for _, s := range spans {
		end := s.EndNS
		if end < 0 {
			end = s.StartNS
		}
		ct.Span(process, id, s.Name, float64(s.StartNS)/1e9, float64(end)/1e9)
	}
}

// Context plumbing. The trace and the index of the current (innermost) span
// travel separately so leaf stages need no context derivation.

type reqTraceKey struct{}
type reqSpanKey struct{}

// ContextWithTrace attaches t to ctx.
func ContextWithTrace(ctx context.Context, t *ReqTrace) context.Context {
	return context.WithValue(ctx, reqTraceKey{}, t)
}

// TraceFrom returns the request trace carried by ctx, or nil.
func TraceFrom(ctx context.Context) *ReqTrace {
	t, _ := ctx.Value(reqTraceKey{}).(*ReqTrace)
	return t
}

// currentSpan returns the index of the innermost open span in ctx (-1 when
// at top level).
func currentSpan(ctx context.Context) int {
	if idx, ok := ctx.Value(reqSpanKey{}).(int); ok {
		return idx
	}
	return -1
}

// OpenStage is a stage that Stage or StartStage opened; End closes it. It is
// a value, not a closure, so opening a stage on a traced request allocates
// nothing beyond the span itself. The zero OpenStage (no trace) closes
// nothing.
type OpenStage struct {
	t   *ReqTrace
	idx int
}

// End closes the stage.
func (s OpenStage) End() {
	if s.t != nil {
		s.t.endSpan(s.idx)
	}
}

// StartStage opens a named stage under ctx's current span and returns a
// derived context (so further stages nest beneath it) plus the open stage.
// With no trace on ctx it returns ctx and a stage whose End does nothing.
func StartStage(ctx context.Context, name string) (context.Context, OpenStage) {
	t := TraceFrom(ctx)
	if t == nil {
		return ctx, OpenStage{}
	}
	idx := t.startSpan(name, currentSpan(ctx))
	return context.WithValue(ctx, reqSpanKey{}, idx), OpenStage{t, idx}
}

// Stage opens a leaf stage under ctx's current span. Use it for stages that
// never have children (gate wait, cache lookup, serialization); it avoids
// deriving a context.
func Stage(ctx context.Context, name string) OpenStage {
	t := TraceFrom(ctx)
	if t == nil {
		return OpenStage{}
	}
	return OpenStage{t, t.startSpan(name, currentSpan(ctx))}
}

// AnnotateTrace attaches a key/value annotation to ctx's request trace, if
// any.
func AnnotateTrace(ctx context.Context, key, value string) {
	TraceFrom(ctx).Annotate(key, value)
}
