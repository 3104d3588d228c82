package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"transpimlib"
)

// span is one timed call the benchmark made into the program.
type span struct {
	Name   string `json:"name"`
	Op     uint64 `json:"op"`
	Parent int32  `json:"parent"` // index in the same recorder, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int    `json:"n,omitempty"` // elements the call covered
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder is one goroutine's in-memory span log. Each goroutine owns
// its recorder, so recording takes no lock; a nil recorder records
// nothing.
type recorder struct {
	name   string
	origin time.Time
	spans  []span
}

func newRecorder(name string, origin time.Time) *recorder {
	return &recorder{name: name, origin: origin, spans: make([]span, 0, 1<<12)}
}

// add records a span over [start, end] and returns its index.
func (r *recorder) add(name string, op uint64, parent int32, start, end time.Time, n int) int32 {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{
		Name: name, Op: op, Parent: parent,
		Start: int64(start.Sub(r.origin)), End: int64(end.Sub(r.origin)), N: n,
	})
	return int32(len(r.spans) - 1)
}

// durations returns the durations of every span named name across rs.
func durations(rs []*recorder, name string) []time.Duration {
	var out []time.Duration
	for _, r := range rs {
		for _, s := range r.spans {
			if s.Name == name {
				out = append(out, s.dur())
			}
		}
	}
	return out
}

// nsPerElem is the summed duration of spans named name over the
// elements they covered.
func nsPerElem(rs []*recorder, name string) float64 {
	var ns, n float64
	for _, r := range rs {
		for _, s := range r.spans {
			if s.Name == name {
				ns += float64(s.End - s.Start)
				n += float64(s.N)
			}
		}
	}
	if n == 0 {
		return 0
	}
	return ns / n
}

// stageSplit is the engine pipeline's per-stage wall time, read from
// the request tracer's span trees (request → queue / batch[k] →
// transfer_in / setup / kernel / transfer_out).
type stageSplit struct {
	requests int
	queue    []time.Duration // per request
	stageIn  []time.Duration // per batch, below likewise
	setup    []time.Duration
	kernel   []time.Duration
	drain    []time.Duration
	wait     []time.Duration // batch[k] wall minus its children
	kernNs   float64
	kernEl   float64
	// outside counts stage spans that fall outside their request span.
	outside int
}

// splitStages walks every engine request span in traces — the trace
// root for a bare engine, grafted under attempt[k] for a cluster. A
// batch shared by coalesced requests appears in each of their trees
// and is counted once.
func splitStages(traces []*transpimlib.Trace) stageSplit {
	var st stageSplit
	seen := map[string]bool{}
	var walk func(s *transpimlib.Span, proc string)
	walk = func(s *transpimlib.Span, proc string) {
		if s.Proc != "" {
			proc = s.Proc
		}
		if s.Name != "request" {
			for _, c := range s.Child {
				walk(c, proc)
			}
			return
		}
		st.requests++
		var check func(*transpimlib.Span)
		check = func(c *transpimlib.Span) {
			if c.Start.Before(s.Start) || c.End.After(s.End) {
				st.outside++
			}
			for _, g := range c.Child {
				check(g)
			}
		}
		for _, c := range s.Child {
			check(c)
			if c.Name == "queue" {
				st.queue = append(st.queue, c.Wall())
				continue
			}
			if len(c.Name) < 6 || c.Name[:6] != "batch[" {
				continue
			}
			key := fmt.Sprintf("%s/%d/%d", proc, c.Shard, c.Start.UnixNano())
			if seen[key] {
				continue
			}
			seen[key] = true
			self := c.Wall()
			for _, g := range c.Child {
				self -= g.Wall()
				switch g.Name {
				case "transfer_in":
					st.stageIn = append(st.stageIn, g.Wall())
				case "setup":
					st.setup = append(st.setup, g.Wall())
				case "kernel":
					st.kernel = append(st.kernel, g.Wall())
					st.kernNs += float64(g.Wall())
					st.kernEl += attrFloat(c, "elements")
				case "transfer_out":
					st.drain = append(st.drain, g.Wall())
				}
			}
			st.wait = append(st.wait, max(self, 0))
		}
	}
	for _, t := range traces {
		walk(t.Root, "")
	}
	return st
}

func attrFloat(s *transpimlib.Span, key string) float64 {
	for _, a := range s.Attrs {
		if a.Key == key {
			v, _ := strconv.ParseFloat(a.Value, 64)
			return v
		}
	}
	return 0
}

// maxSpansOut bounds the spans written per recorder, keeping a traced
// file readable; per-layer metrics use every recorded span.
const maxSpansOut = 20000

// traceFile is the traced run's output document, one per workload.
type traceFile struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Checks    map[string]string  `json:"checks"`
	PerLayer  map[string]float64 `json:"per_layer"`
	Recorders []recorderOut      `json:"recorders"`
	// EngineTraces is a sample of the program's own request span
	// trees, as the request tracer retained them.
	EngineTraces []*transpimlib.Trace `json:"engine_traces,omitempty"`
}

type recorderOut struct {
	Name    string `json:"name"`
	Total   int    `json:"total_spans"`
	Written int    `json:"written_spans"`
	Spans   []span `json:"spans"`
}

func writeTraceFile(dir string, f *traceFile, rs []*recorder, traces []*transpimlib.Trace) (string, error) {
	for _, r := range rs {
		out := r.spans
		if len(out) > maxSpansOut {
			out = out[:maxSpansOut]
		}
		f.Recorders = append(f.Recorders, recorderOut{Name: r.name, Total: len(r.spans), Written: len(out), Spans: out})
	}
	if len(traces) > 16 {
		traces = traces[len(traces)-16:]
	}
	f.EngineTraces = traces
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, f.Workload+".trace.json")
	data, err := json.Marshal(f)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
