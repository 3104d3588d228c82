package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"transpimlib"
)

func TestReplicaIDs(t *testing.T) {
	m := map[string]float64{
		`cluster_replica_queue_depth{replica="2"}`: 0,
		`cluster_replica_queue_depth{replica="0"}`: 3,
		`cluster_replica_queue_depth{replica="1"}`: 1,
		`cluster_routed_total{replica="0"}`:        9,
		"engine_requests_total":                    4,
	}
	ids := replicaIDs(m)
	if len(ids) != 3 || ids[0] != 0 || ids[1] != 1 || ids[2] != 2 {
		t.Fatalf("replicaIDs = %v", ids)
	}
	if ids := replicaIDs(map[string]float64{"engine_requests_total": 1}); len(ids) != 0 {
		t.Fatalf("single-engine target yields replicas: %v", ids)
	}
}

func TestLedgerRowsRates(t *testing.T) {
	key := transpimlib.LedgerKey{Tenant: "acme", Function: "sigmoid", Method: "l-lut(i)"}
	prev := transpimlib.LedgerSnapshot{Rows: []transpimlib.LedgerRow{{
		LedgerKey:   key,
		LedgerEntry: transpimlib.LedgerEntry{Requests: 10, Elements: 1000, KernelCycles: 50_000, BytesIn: 4_000_000},
	}}}
	cur := transpimlib.LedgerSnapshot{Rows: []transpimlib.LedgerRow{{
		LedgerKey:   key,
		LedgerEntry: transpimlib.LedgerEntry{Requests: 30, Elements: 3000, KernelCycles: 150_000, BytesIn: 12_000_000},
	}}}
	rows := ledgerRows(prev, cur, 2)
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	r := rows[0]
	if r.reqs != 10 || r.elems != 1000 || r.kcycles != 50 || r.mbIn != 4 {
		t.Fatalf("rates = %+v", r)
	}

	// No prev: cumulative totals.
	rows = ledgerRows(transpimlib.LedgerSnapshot{}, cur, 1)
	if rows[0].reqs != 30 || rows[0].kcycles != 150 {
		t.Fatalf("totals = %+v", rows[0])
	}
}

func TestLedgerRowsSortedByCost(t *testing.T) {
	cur := transpimlib.LedgerSnapshot{Rows: []transpimlib.LedgerRow{
		{LedgerKey: transpimlib.LedgerKey{Tenant: "cheap"}, LedgerEntry: transpimlib.LedgerEntry{KernelCycles: 1_000}},
		{LedgerKey: transpimlib.LedgerKey{Tenant: "costly"}, LedgerEntry: transpimlib.LedgerEntry{KernelCycles: 9_000}},
	}}
	rows := ledgerRows(transpimlib.LedgerSnapshot{}, cur, 1)
	if rows[0].Tenant != "costly" || rows[1].Tenant != "cheap" {
		t.Fatalf("sort order: %v, %v", rows[0].Tenant, rows[1].Tenant)
	}
}

func TestRateSparkline(t *testing.T) {
	tl := transpimlib.TimelineSnapshot{Windows: []transpimlib.TimelineWindow{
		{Values: map[string]float64{"x:rate": 1}},
		{Values: map[string]float64{"x:rate": 10}},
	}}
	s := rateSparkline(tl, "x:rate")
	if n := len([]rune(s)); n != 2 {
		t.Fatalf("sparkline %q has %d glyphs, want 2", s, n)
	}
	r := []rune(s)
	if r[0] >= r[1] {
		t.Fatalf("sparkline not monotone: %q", s)
	}
	if rateSparkline(transpimlib.TimelineSnapshot{}, "x:rate") != "" {
		t.Fatal("empty timeline should render nothing")
	}
}

// TestFetchRenderLive runs the real fetch/render path against a live
// instrumented cluster mounted the way tplload mounts it.
func TestFetchRenderLive(t *testing.T) {
	cl, err := transpimlib.NewCluster(transpimlib.ClusterConfig{
		Replicas: 2,
		Engine: transpimlib.EngineConfig{DPUs: 2, Shards: 1,
			Accuracy: transpimlib.AccuracyConfig{Enabled: true, SampleRate: 1}},
		Seed:     1,
		Ledger:   true,
		Timeline: transpimlib.TimelineConfig{Enabled: true, BucketWidth: time.Second},
		Profiler: transpimlib.ProfilerConfig{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	spec := transpimlib.Config{Method: transpimlib.LLUT, Interpolated: true, SizeLog2: 12}
	xs := make([]float32, 256)
	for i := range xs {
		xs[i] = -2 + 4*float32(i)/256
	}
	for r := 0; r < 4; r++ {
		if _, _, err := cl.EvaluateBatchAs("acme", transpimlib.Sigmoid, spec, xs); err != nil {
			t.Fatal(err)
		}
	}
	cl.Observe().Timeline.Tick(time.Now())

	mux := http.NewServeMux()
	mux.Handle("/", cl.Observe().Handler())
	mux.Handle("/replica/0/", http.StripPrefix("/replica/0", cl.ReplicaObserve(0).Handler()))
	mux.Handle("/replica/1/", http.StripPrefix("/replica/1", cl.ReplicaObserve(1).Handler()))
	srv := httptest.NewServer(mux)
	defer srv.Close()

	p1, err := fetch(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.ledger.Rows) == 0 {
		t.Fatal("fetch returned no ledger rows")
	}
	if len(p1.replicas) != 2 {
		t.Fatalf("fetch found %d replicas, want 2", len(p1.replicas))
	}

	for r := 0; r < 4; r++ {
		if _, _, err := cl.EvaluateBatchAs("acme", transpimlib.Sigmoid, spec, xs); err != nil {
			t.Fatal(err)
		}
	}
	p2, err := fetch(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	p2.at = p1.at.Add(time.Second) // pin dt for deterministic rates

	var sb strings.Builder
	render(&sb, p1, p2)
	out := sb.String()
	for _, want := range []string{"acme", "sigmoid", "l-lut(i)", "REPLICA", "REQ/s",
		"WALLCYC/s", "HEATMAP replica/1", "  dpu   1 [", "ACCURACY replica/0", "ACCURACY replica/1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render output lacks %q:\n%s", want, out)
		}
	}
	// 4 requests over the pinned 1s window on the acme row.
	if !strings.Contains(out, " 4.0 ") {
		t.Fatalf("expected a 4.0 req/s cell:\n%s", out)
	}

	// Totals frame (no prev) renders too.
	sb.Reset()
	render(&sb, nil, p2)
	if !strings.Contains(sb.String(), "total") {
		t.Fatalf("totals frame: %s", sb.String())
	}
}
