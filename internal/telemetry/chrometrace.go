package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"fpmpart/internal/trace"
)

// ChromeTrace accumulates spans and writes them in the Chrome trace_event
// JSON format, loadable in chrome://tracing and Perfetto. Processes map to
// pids, lanes/threads to tids; both are numbered in first-appearance order,
// and the output is fully deterministic (golden-tested).
type ChromeTrace struct {
	procs   []*chromeProcess
	procIdx map[string]*chromeProcess
	seq     int
}

type chromeProcess struct {
	name    string
	pid     int
	threads []*chromeThread
	thrIdx  map[string]*chromeThread
}

type chromeThread struct {
	name  string
	tid   int
	spans []chromeSpan
}

type chromeSpan struct {
	name    string
	ts, dur float64 // microseconds
	seq     int     // insertion order, tie-break for simultaneous spans
}

// NewChromeTrace returns an empty trace.
func NewChromeTrace() *ChromeTrace {
	return &ChromeTrace{procIdx: map[string]*chromeProcess{}}
}

func (c *ChromeTrace) process(name string) *chromeProcess {
	if p, ok := c.procIdx[name]; ok {
		return p
	}
	p := &chromeProcess{name: name, pid: len(c.procs) + 1, thrIdx: map[string]*chromeThread{}}
	c.procs = append(c.procs, p)
	c.procIdx[name] = p
	return p
}

func (p *chromeProcess) thread(name string) *chromeThread {
	if t, ok := p.thrIdx[name]; ok {
		return t
	}
	t := &chromeThread{name: name, tid: len(p.threads) + 1}
	p.threads = append(p.threads, t)
	p.thrIdx[name] = t
	return t
}

// Span records one complete event: start and end are in seconds.
func (c *ChromeTrace) Span(process, thread, name string, start, end float64) {
	if end < start {
		start, end = end, start
	}
	t := c.process(process).thread(thread)
	c.seq++
	t.spans = append(t.spans, chromeSpan{
		name: name, ts: start * 1e6, dur: (end - start) * 1e6, seq: c.seq,
	})
}

// AddTimeline adds every span of a trace.Timeline under one process; lanes
// become threads. This is how the engine schedules recorded by
// internal/gpukernel (the paper's Figure 4(b)) reach Perfetto.
func (c *ChromeTrace) AddTimeline(process string, tl *trace.Timeline) {
	for _, s := range tl.Spans() {
		c.Span(process, s.Lane, s.Label, s.Start, s.End)
	}
}

// AddTimelineByLane adds a timeline whose lane names encode the process: a
// lane "socket0/core3" becomes thread "core3" of process "socket0"; a lane
// without a separator becomes thread "main" of a process named after it.
func (c *ChromeTrace) AddTimelineByLane(tl *trace.Timeline) {
	for _, s := range tl.Spans() {
		proc, thread, ok := strings.Cut(s.Lane, "/")
		if !ok {
			proc, thread = s.Lane, "main"
		}
		c.Span(proc, thread, s.Label, s.Start, s.End)
	}
}

// jsonStr renders a JSON string literal.
func jsonStr(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		return `"?"`
	}
	return string(b)
}

// Write writes the trace as a JSON object with one event per line:
// process/thread name metadata first, then the complete ("X") events sorted
// by (pid, tid, start, insertion order).
func (c *ChromeTrace) Write(w io.Writer) error {
	var lines []string
	for _, p := range c.procs {
		lines = append(lines, fmt.Sprintf(
			`{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":%s}}`,
			p.pid, jsonStr(p.name)))
		for _, t := range p.threads {
			lines = append(lines, fmt.Sprintf(
				`{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":%s}}`,
				p.pid, t.tid, jsonStr(t.name)))
		}
	}
	for _, p := range c.procs {
		for _, t := range p.threads {
			spans := append([]chromeSpan(nil), t.spans...)
			sort.Slice(spans, func(i, j int) bool {
				if spans[i].ts != spans[j].ts {
					return spans[i].ts < spans[j].ts
				}
				return spans[i].seq < spans[j].seq
			})
			for _, s := range spans {
				lines = append(lines, fmt.Sprintf(
					`{"name":%s,"ph":"X","pid":%d,"tid":%d,"ts":%.3f,"dur":%.3f}`,
					jsonStr(s.name), p.pid, t.tid, s.ts, s.dur))
			}
		}
	}
	if _, err := io.WriteString(w, "{\"displayTimeUnit\":\"ms\",\n\"traceEvents\":[\n"); err != nil {
		return err
	}
	for i, l := range lines {
		sep := ",\n"
		if i == len(lines)-1 {
			sep = "\n"
		}
		if _, err := io.WriteString(w, l+sep); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]}\n")
	return err
}
