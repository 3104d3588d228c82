package telemetry

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func span(name string, shard int, t0 time.Time, off, dur time.Duration) *Span {
	return &Span{Name: name, Shard: shard, Start: t0.Add(off), End: t0.Add(off + dur)}
}

func testTrace(id uint64, t0 time.Time) *Trace {
	root := span("request", 0, t0, 0, 10*time.Millisecond)
	root.SetAttr("fn", "sigmoid")
	q := span("queue", 0, t0, 0, time.Millisecond)
	b := span("batch[0]", 0, t0, time.Millisecond, 9*time.Millisecond)
	b.Modeled = 0.5
	b.AddChild(span("kernel", 0, t0, 2*time.Millisecond, 6*time.Millisecond))
	root.AddChild(q)
	root.AddChild(b)
	return &Trace{ID: id, Root: root}
}

// countingRecord is a Record that counts how often its tree is built.
type countingRecord struct {
	tr    *Trace
	built *atomic.Int64
}

func (r countingRecord) Materialize() *Trace {
	r.built.Add(1)
	return r.tr
}

func TestTracerRing(t *testing.T) {
	tr := NewTracer(3)
	t0 := time.Date(2026, 8, 6, 0, 0, 0, 0, time.UTC)
	if _, ok := tr.Last(); ok {
		t.Fatal("empty tracer must have no last trace")
	}
	for i := 1; i <= 5; i++ {
		tr.Push(testTrace(uint64(i), t0))
	}
	last, ok := tr.Last()
	if !ok || last.ID != 5 {
		t.Fatalf("Last = %v, %v; want trace 5", last, ok)
	}
	got := tr.Traces()
	if len(got) != 3 || got[0].ID != 3 || got[2].ID != 5 {
		ids := []uint64{}
		for _, g := range got {
			ids = append(ids, g.ID)
		}
		t.Fatalf("ring = %v, want [3 4 5]", ids)
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(8)
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr.Push(testTrace(tr.NextID(), t0))
				tr.Last()
				tr.Traces()
			}
		}()
	}
	wg.Wait()
	if got := len(tr.Traces()); got != 8 {
		t.Errorf("retained %d traces, want 8", got)
	}
}

func TestSpanLifecycle(t *testing.T) {
	t0 := time.Date(2026, 8, 6, 0, 0, 0, 0, time.UTC)
	tr := testTrace(1, t0)
	if got := tr.Root.Wall(); got != 10*time.Millisecond {
		t.Errorf("root wall = %v", got)
	}
	if len(tr.Root.Child) != 2 {
		t.Fatalf("children = %d", len(tr.Root.Child))
	}
	// Round-trips through JSON with the tree intact.
	data, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var back Trace
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Root.Child[1].Child[0].Name != "kernel" {
		t.Error("span tree lost through JSON")
	}
	if back.Root.Attrs[0].Value != "sigmoid" {
		t.Error("attrs lost through JSON")
	}
}

func TestChromeTraceShape(t *testing.T) {
	t0 := time.Date(2026, 8, 6, 0, 0, 0, 0, time.UTC)
	var sb strings.Builder
	if err := WriteChromeTrace(&sb, []*Trace{testTrace(1, t0), testTrace(2, t0.Add(time.Second))}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	// 8 X span events plus the labeling metadata: one process_name per
	// trace (no Span.Proc set, so each trace is its own lane) and one
	// thread_name per (pid, shard 0) row.
	if len(doc.TraceEvents) != 12 {
		t.Fatalf("events = %d, want 12", len(doc.TraceEvents))
	}
	meta := doc.TraceEvents[0]
	if meta["ph"] != "M" || meta["name"] != "process_name" {
		t.Errorf("first event = %v, want process_name metadata", meta)
	}
	if args := meta["args"].(map[string]any); args["name"] != "trace 1" {
		t.Errorf("process name = %v, want trace 1", args["name"])
	}
	if th := doc.TraceEvents[2]; th["name"] != "thread_name" {
		t.Errorf("event 2 = %v, want thread_name metadata", th)
	}
	ev := doc.TraceEvents[4]
	for _, k := range []string{"name", "ph", "ts", "dur", "pid", "tid"} {
		if _, ok := ev[k]; !ok {
			t.Errorf("event missing %q", k)
		}
	}
	if ev["ph"] != "X" {
		t.Errorf("ph = %v, want X", ev["ph"])
	}
	// Timestamps are relative to the earliest span: the first trace
	// starts at 0, the second a second later.
	if ts := ev["ts"].(float64); ts != 0 {
		t.Errorf("first ts = %v, want 0", ts)
	}
	if ts := doc.TraceEvents[8]["ts"].(float64); ts != 1e6 {
		t.Errorf("second trace ts = %v, want 1e6", ts)
	}
}

func TestHTTPHandler(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("requests_total", "requests").Add(3)
	tracer := NewTracer(4)
	t0 := time.Date(2026, 8, 6, 0, 0, 0, 0, time.UTC)
	var built atomic.Int64
	for i := 1; i <= 3; i++ {
		tracer.Push(countingRecord{testTrace(uint64(i), t0), &built})
	}
	tel := &Telemetry{Registry: reg, Tracer: tracer}
	srv := httptest.NewServer(tel.Handler())
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, sb.String()
	}

	code, body := get("/metrics")
	if code != 200 || !strings.Contains(body, "requests_total 3") {
		t.Errorf("/metrics = %d %q", code, body)
	}
	code, body = get("/debug/trace")
	var traces []*Trace
	if code != 200 {
		t.Fatalf("/debug/trace = %d", code)
	}
	if err := json.Unmarshal([]byte(body), &traces); err != nil || len(traces) != 3 {
		t.Errorf("/debug/trace: %v, %d traces", err, len(traces))
	}
	before := built.Load()
	code, body = get("/debug/trace?n=1")
	if err := json.Unmarshal([]byte(body), &traces); err != nil || len(traces) != 1 {
		t.Errorf("/debug/trace?n=1: %v, %d traces (code %d)", err, len(traces), code)
	}
	if got := built.Load() - before; got != 1 {
		t.Errorf("/debug/trace?n=1 built %d trees, want 1", got)
	}
	code, body = get("/debug/trace?format=chrome")
	if code != 200 || !strings.Contains(body, "traceEvents") {
		t.Errorf("chrome format = %d %q", code, body[:min(len(body), 80)])
	}
	if code, _ := get("/debug/trace?format=nope"); code != 400 {
		t.Errorf("bad format = %d, want 400", code)
	}
	if code, _ := get("/debug/trace?n=x"); code != 400 {
		t.Errorf("bad n = %d, want 400", code)
	}

	// Timeline and ledger disabled on this handle: both 404.
	if code, _ := get("/debug/timeline"); code != 404 {
		t.Errorf("disabled timeline = %d, want 404", code)
	}
	if code, _ := get("/debug/ledger"); code != 404 {
		t.Errorf("disabled ledger = %d, want 404", code)
	}

	// Tracing disabled: /metrics still works, /debug/trace 404s.
	off := httptest.NewServer((&Telemetry{Registry: reg}).Handler())
	defer off.Close()
	resp, err := off.Client().Get(off.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("disabled tracer = %d, want 404", resp.StatusCode)
	}
}

// TestHTTPTimelineLedger serves enabled timeline and ledger documents.
func TestHTTPTimelineLedger(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("requests_total", "requests").Add(6)
	tl := NewTimeline(reg, TimelineConfig{Enabled: true, BucketWidth: time.Second, Buckets: 4})
	tl.Tick(time.Date(2026, 8, 7, 12, 0, 1, 0, time.UTC))
	led := NewLedger(reg)
	led.Add(LedgerKey{Tenant: "acme", Function: "sin", Method: "m-lut"}, LedgerEntry{Requests: 1, KernelCycles: 99})

	tel := &Telemetry{Registry: reg, Timeline: tl, LedgerJSON: func() any { return led.Snapshot() }}
	srv := httptest.NewServer(tel.Handler())
	defer srv.Close()

	get := func(path string) string {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s = %d", path, resp.StatusCode)
		}
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return sb.String()
	}

	var snap TimelineSnapshot
	if err := json.Unmarshal([]byte(get("/debug/timeline")), &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Windows) != 1 || snap.Windows[0].Values["requests_total:rate"] != 6 {
		t.Fatalf("timeline = %+v", snap)
	}
	var ls LedgerSnapshot
	if err := json.Unmarshal([]byte(get("/debug/ledger")), &ls); err != nil {
		t.Fatal(err)
	}
	if len(ls.Rows) != 1 || ls.Rows[0].Tenant != "acme" || ls.Rows[0].KernelCycles != 99 {
		t.Fatalf("ledger = %+v", ls)
	}
}
