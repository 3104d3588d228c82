package engine

import (
	"strings"
	"testing"

	"transpimlib/internal/core"
	"transpimlib/internal/pimsim"
	"transpimlib/internal/profiler"
	"transpimlib/internal/stats"
	"transpimlib/internal/telemetry"
)

// collectSpans flattens a span tree into name → spans.
func collectSpans(root *telemetry.Span) map[string][]*telemetry.Span {
	out := map[string][]*telemetry.Span{}
	var walk func(s *telemetry.Span)
	walk = func(s *telemetry.Span) {
		name := s.Name
		if strings.HasPrefix(name, "batch[") {
			name = "batch"
		}
		out[name] = append(out[name], s)
		for _, c := range s.Child {
			walk(c)
		}
	}
	walk(root)
	return out
}

// TestRequestTrace: a traced request must leave a full span tree —
// queue, batch, transfer_in, setup, kernel, transfer_out — with
// wall-clock ordering and the batch's modeled seconds attached, and
// its RequestStats must carry the trace id.
func TestRequestTrace(t *testing.T) {
	e, err := New(Config{DPUs: 2, Shards: 1, TraceDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	fn, par := llutSpec()
	xs := stats.RandomInputs(-7.9, 7.9, 64, 1)
	_, st, err := e.EvaluateBatch(fn, par, xs)
	if err != nil {
		t.Fatal(err)
	}
	if st.TraceID == 0 {
		t.Fatal("RequestStats.TraceID not set with tracing enabled")
	}
	tr, ok := e.TraceLast()
	if !ok {
		t.Fatal("TraceLast empty after a completed request")
	}
	if tr.ID != st.TraceID {
		t.Fatalf("trace id %d != stats trace id %d", tr.ID, st.TraceID)
	}
	spans := collectSpans(tr.Root)
	for _, name := range []string{"request", "queue", "batch", "transfer_in", "setup", "kernel", "transfer_out"} {
		if len(spans[name]) == 0 {
			t.Errorf("span %q missing from trace", name)
		}
	}
	req := spans["request"][0]
	if req.Wall() <= 0 {
		t.Error("request span has no wall-clock extent")
	}
	batch := spans["batch"][0]
	if batch.Start.Before(req.Start) || batch.End.After(req.End) {
		t.Error("batch span not contained in request span")
	}
	kern := spans["kernel"][0]
	if kern.Modeled <= 0 {
		t.Error("kernel span has no modeled seconds")
	}
	if got := st.ComputeSeconds; got != kern.Modeled {
		t.Errorf("kernel modeled %g != stats compute %g", kern.Modeled, got)
	}
	// One cold request: the setup span must carry the miss.
	if spans["setup"][0].Modeled <= 0 {
		t.Error("cold setup span has no modeled seconds")
	}
	if spans["error"] != nil {
		t.Error("successful request must not carry an error span")
	}
}

// TestRequestErrors: a request whose batch fails (table build
// overflows the 64-KB WRAM) must increment both the per-batch and the
// new per-request error counters, and its trace must end in an
// Err-carrying terminal span.
func TestRequestErrors(t *testing.T) {
	e, err := New(Config{DPUs: 2, Shards: 1, TraceDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	xs := stats.RandomInputs(-1, 1, 16, 1)
	// 2^18 float entries ≫ 64 KB WRAM: the shard's table build fails.
	bad := core.Params{Method: core.LLUT, Interp: true, SizeLog2: 18, Placement: pimsim.InWRAM}
	_, st, err := e.EvaluateBatch(core.Sigmoid, bad, xs)
	if err == nil {
		t.Fatal("oversized WRAM table must fail")
	}
	stats := e.Stats()
	if stats.Errors != 1 {
		t.Errorf("Errors = %d, want 1", stats.Errors)
	}
	if stats.RequestErrors != 1 {
		t.Errorf("RequestErrors = %d, want 1", stats.RequestErrors)
	}
	tr, ok := e.TraceLast()
	if !ok {
		t.Fatal("failed request left no trace")
	}
	if tr.ID != st.TraceID {
		t.Errorf("trace id %d != stats trace id %d", tr.ID, st.TraceID)
	}
	if tr.Root.Err == "" {
		t.Error("failed request's root span carries no error")
	}
	spans := collectSpans(tr.Root)
	if len(spans["error"]) != 1 || spans["error"][0].Err == "" {
		t.Error("failed request's trace lacks the Err-carrying terminal span")
	}

	// A subsequent good request must not disturb the error counters.
	fn, par := llutSpec()
	if _, _, err := e.EvaluateBatch(fn, par, xs); err != nil {
		t.Fatal(err)
	}
	stats = e.Stats()
	if stats.RequestErrors != 1 || stats.Errors != 1 {
		t.Errorf("error counters moved: batch %d request %d", stats.Errors, stats.RequestErrors)
	}
}

// TestMetricsExposition: the engine's registry must expose the core
// series in Prometheus text format with per-shard attribution.
func TestMetricsExposition(t *testing.T) {
	e, err := New(Config{DPUs: 4, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	fn, par := llutSpec()
	xs := stats.RandomInputs(-7.9, 7.9, 256, 1)
	for i := 0; i < 3; i++ {
		if _, _, err := e.EvaluateBatch(fn, par, xs); err != nil {
			t.Fatal(err)
		}
	}
	var sb strings.Builder
	if err := e.Observe().Registry.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"engine_requests_total 3",
		"engine_request_latency_seconds_count 3",
		`engine_shard_batches_total{shard="0"}`,
		`engine_shard_batches_total{shard="1"}`,
		"engine_cache_hits_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestTracingDisabledPath: with TraceDepth 0 no trace may appear and
// no stage stamps may be taken (batch.tr stays nil), and TraceID
// stays zero.
func TestTracingDisabledPath(t *testing.T) {
	e, err := New(Config{DPUs: 2, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	fn, par := llutSpec()
	xs := stats.RandomInputs(-7.9, 7.9, 64, 1)
	_, st, err := e.EvaluateBatch(fn, par, xs)
	if err != nil {
		t.Fatal(err)
	}
	if st.TraceID != 0 {
		t.Error("TraceID set with tracing disabled")
	}
	if _, ok := e.TraceLast(); ok {
		t.Error("TraceLast returned a trace with tracing disabled")
	}
	if e.Traces() != nil {
		t.Error("Traces non-nil with tracing disabled")
	}
	// Metrics still work.
	if e.Stats().Requests != 1 {
		t.Error("metrics lost with tracing disabled")
	}
}

// BenchmarkEvaluateBatchTelemetry compares the warm EvaluateBatch
// path with telemetry disabled (the default: atomic counters only)
// and fully enabled (tracing + the modeled-cycle profiler). The disabled
// variant is the <2%-overhead acceptance benchmark against the
// pre-telemetry mutex collector; run with -benchtime=... and compare.
func BenchmarkEvaluateBatchTelemetry(b *testing.B) {
	for _, bc := range []struct {
		name string
		cfg  Config
	}{
		{"disabled", Config{DPUs: 4, Shards: 2}},
		{"trace+profile", Config{DPUs: 4, Shards: 2, TraceDepth: 64, Profiler: profiler.Config{Enabled: true}}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			e, err := New(bc.cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			fn, par := llutSpec()
			xs := stats.RandomInputs(-7.9, 7.9, 1024, 1)
			if _, _, err := e.EvaluateBatch(fn, par, xs); err != nil {
				b.Fatal(err) // warm the table cache
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := e.EvaluateBatch(fn, par, xs); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(xs) * 4))
		})
	}
}

// TestEvaluateBatchTraced: an externally minted trace ID propagates
// into the request's stats, its span tree (returned to the caller and
// retained in the engine's own ring), and the configured process lane.
func TestEvaluateBatchTraced(t *testing.T) {
	e, err := New(Config{DPUs: 2, Shards: 1, TraceDepth: 4, ProcName: "replica/3"})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	fn, par := llutSpec()
	xs := stats.RandomInputs(-7.9, 7.9, 64, 1)
	const mintID = 0xfeed
	out, st, rec, err := e.EvaluateBatchTraced("acme", mintID, fn, par, xs)
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil {
		t.Fatal("traced engine returned no record")
	}
	tr := rec.Materialize()
	if len(out) != len(xs) {
		t.Fatalf("outputs = %d, want %d", len(out), len(xs))
	}
	if st.TraceID != mintID {
		t.Fatalf("stats trace id %d, want the minted %d", st.TraceID, mintID)
	}
	if tr == nil || tr.ID != mintID {
		t.Fatalf("returned trace = %+v, want id %d", tr, mintID)
	}
	if tr.Root.Proc != "replica/3" {
		t.Fatalf("root proc = %q, want replica/3", tr.Root.Proc)
	}
	last, ok := e.TraceLast()
	if !ok || last.ID != mintID {
		t.Fatalf("engine ring trace = %v %v, want the same minted id", last, ok)
	}
	// With tracing disabled the traced call degrades gracefully.
	e2, err := New(Config{DPUs: 2, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	_, st2, tr2, err := e2.EvaluateBatchTraced("acme", mintID, fn, par, xs)
	if err != nil {
		t.Fatal(err)
	}
	if tr2 != nil || st2.TraceID != 0 {
		t.Fatalf("untraced engine returned trace %v, id %d", tr2, st2.TraceID)
	}
}
