package cluster

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"transpimlib/internal/core"
	"transpimlib/internal/engine"
	"transpimlib/internal/stats"
	"transpimlib/internal/telemetry"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden files from current output")

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create)", err)
	}
	if got != string(want) {
		t.Errorf("%s mismatch:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// skeleton renders a span tree's deterministic content — names,
// process lanes, attributes, errors, shards and modeled seconds —
// without the wall-clock fields, so a golden file can pin the
// connected-trace structure.
func skeleton(s *telemetry.Span, indent string, sb *strings.Builder) {
	sb.WriteString(indent)
	sb.WriteString(s.Name)
	if s.Proc != "" {
		fmt.Fprintf(sb, " proc=%s", s.Proc)
	}
	for _, a := range s.Attrs {
		fmt.Fprintf(sb, " %s=%s", a.Key, a.Value)
	}
	if s.Err != "" {
		fmt.Fprintf(sb, " err=%q", s.Err)
	}
	fmt.Fprintf(sb, " shard=%d modeled=%s\n", s.Shard, strconv.FormatFloat(s.Modeled, 'g', -1, 64))
	for _, c := range s.Child {
		skeleton(c, indent+"  ", sb)
	}
}

// TestClusterConnectedTrace is the tentpole acceptance test: one
// traced cluster request yields a single connected trace — the router
// placement spans with the owning replica's engine pipeline spans
// grafted underneath — pinned by a golden skeleton. It doubles as the
// TraceID regression: the cluster-minted ID must reach the caller's
// RequestStats and both trace rings.
func TestClusterConnectedTrace(t *testing.T) {
	ecfg := engine.Config{DPUs: 2, Shards: 1, MaxBatch: 512}
	cl, err := New(Config{
		Engines:    []engine.Config{ecfg, ecfg},
		TraceDepth: 8,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	fn := core.Sigmoid
	p := core.Params{Method: core.LLUT, Interp: true, SizeLog2: 10}
	// Prewarm so the pinned skeleton is a warm request's.
	if err := cl.Prewarm(fn, p, "acme"); err != nil {
		t.Fatal(err)
	}
	xs := stats.RandomInputs(-6, 6, 64, 3)
	_, st, err := cl.EvaluateBatchTenant("acme", fn, p, xs)
	if err != nil {
		t.Fatal(err)
	}

	if st.TraceID == 0 {
		t.Fatal("cluster path left RequestStats.TraceID unset")
	}
	tr, ok := cl.TraceLast()
	if !ok {
		t.Fatal("no cluster trace retained")
	}
	if tr.ID != st.TraceID {
		t.Fatalf("cluster trace id %d != stats trace id %d", tr.ID, st.TraceID)
	}

	// The serving replica's own ring retained the same identity — the
	// propagated ID connects both views.
	served := -1
	for i, n := range cl.Stats().Routed {
		if n > 0 {
			served = i
		}
	}
	if served < 0 {
		t.Fatal("no replica served the request")
	}
	etr, ok := cl.Replica(served).TraceLast()
	if !ok || etr.ID != st.TraceID {
		t.Fatalf("replica %d trace = %v (ok=%v), want id %d", served, etr, ok, st.TraceID)
	}

	// Structure: cluster root → attempt → engine request subtree with
	// the full pipeline underneath, in the replica's process lane.
	var sb strings.Builder
	skeleton(tr.Root, "", &sb)
	out := sb.String()
	for _, want := range []string{
		"cluster_request proc=cluster",
		"attempt[0]",
		"request proc=replica/",
		"kernel",
		"transfer_in",
		"transfer_out",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("connected trace lacks %q:\n%s", want, out)
		}
	}

	// Pin the exact skeleton. The kernel cycle count and the warm
	// spans' modeled seconds come from the cost model, deterministic
	// across runs and platforms.
	checkGolden(t, "trace.skeleton.golden", out)
}

// TestClusterTraceLadder drives the non-happy placement rungs — quota
// shed, queue shed, failover — and checks each leaves its span.
func TestClusterTraceLadder(t *testing.T) {
	fakes, execs := newFakes(2)
	rate := 100.0
	cl, err := NewWithExecutors(Config{
		TraceDepth:   8,
		Ledger:       true,
		MaxQueue:     4,
		Quotas:       map[string]Quota{"capped": {Rate: rate, Burst: 8}},
		Clock:        func() time.Time { return time.Unix(0, 0) },
		VirtualNodes: 16,
	}, execs)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	fn := core.Sigmoid
	p := core.Params{Method: core.LLUT, Interp: true, SizeLog2: 10}
	xs := make([]float32, 16)

	// Quota shed: burst 8 < 16 elements.
	if _, _, err := cl.EvaluateBatchTenant("capped", fn, p, xs); err == nil {
		t.Fatal("quota shed did not error")
	}
	tr, _ := cl.TraceLast()
	var sb strings.Builder
	skeleton(tr.Root, "", &sb)
	if !strings.Contains(sb.String(), "shed reason=quota") {
		t.Fatalf("quota shed trace:\n%s", sb.String())
	}

	// Queue shed: both fakes over MaxQueue.
	fakes[0].depth.Store(10)
	fakes[1].depth.Store(10)
	if _, _, err := cl.EvaluateBatchTenant("t", fn, p, xs); err == nil {
		t.Fatal("queue shed did not error")
	}
	tr, _ = cl.TraceLast()
	sb.Reset()
	skeleton(tr.Root, "", &sb)
	if !strings.Contains(sb.String(), "shed reason=queue") {
		t.Fatalf("queue shed trace:\n%s", sb.String())
	}
	fakes[0].depth.Store(0)
	fakes[1].depth.Store(0)

	// Failover: first-choice replica fails, the other serves.
	fakes[0].failing.Store(true)
	fakes[1].failing.Store(false)
	if _, _, err := cl.EvaluateBatchTenant("t", fn, p, xs); err != nil {
		// Either replica may be primary for this key; flip and retry.
		fakes[0].failing.Store(false)
		fakes[1].failing.Store(true)
		if _, _, err := cl.EvaluateBatchTenant("t", fn, p, xs); err != nil {
			t.Fatal(err)
		}
	}
	tr, _ = cl.TraceLast()
	sb.Reset()
	skeleton(tr.Root, "", &sb)
	out := sb.String()
	if !strings.Contains(out, "failover=true") || !strings.Contains(out, "attempt[1]") {
		t.Fatalf("failover trace lacks the re-placement rung:\n%s", out)
	}

	// The router ledger recorded the sheds and the failover.
	snap := cl.Ledger()
	var shed, failovers uint64
	for _, r := range snap.Rows {
		shed += r.Shed
		failovers += r.Failovers
	}
	if shed != 2 || failovers != 1 {
		t.Fatalf("ledger shed=%d failovers=%d, want 2/1: %+v", shed, failovers, snap.Rows)
	}
}

// TestClusterLedgerReconciles is the ±0 acceptance gate: for a fully
// served (100%-traced, fault-free) workload, the merged cluster ledger's
// kernel-cycle total equals the sum of the replicas' simulator-attributed
// cycles exactly.
func TestClusterLedgerReconciles(t *testing.T) {
	ecfg := engine.Config{DPUs: 2, Shards: 1, MaxBatch: 256}
	cl, err := New(Config{
		Engines:    []engine.Config{ecfg, ecfg, ecfg},
		TraceDepth: 4,
		Ledger:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	type spec struct {
		fn core.Function
		p  core.Params
	}
	specs := []spec{
		{core.Sigmoid, core.Params{Method: core.LLUT, Interp: true, SizeLog2: 10}},
		{core.Exp, core.Params{Method: core.MLUT, SizeLog2: 12}},
		{core.Sin, core.Params{Method: core.CORDIC, Iterations: 16}},
	}
	tenants := []string{"acme", "globex", "initech"}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sp := specs[w%len(specs)]
			for i := 0; i < 5; i++ {
				xs := stats.RandomInputs(-3, 3, 50+w*17+i, uint64(w*100+i+1))
				if _, _, err := cl.EvaluateBatchTenant(tenants[w%3], sp.fn, sp.p, xs); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()

	snap := cl.Ledger()
	var ledCycles, ledElems, ledReqs uint64
	for _, r := range snap.Rows {
		ledCycles += r.KernelCycles
		ledElems += r.Elements
		ledReqs += r.Requests
	}
	var simCycles, engCycles, engElems, engReqs uint64
	for i := 0; i < cl.Replicas(); i++ {
		simCycles += cl.Replica(i).System().AttributedKernelCycles()
		st := cl.Replica(i).Stats()
		engCycles += st.KernelCycles
		engElems += st.Elements
		engReqs += st.Requests
	}
	if ledCycles != simCycles {
		t.Errorf("ledger cycles %d != simulator attributed cycles %d (Δ %d)",
			ledCycles, simCycles, int64(ledCycles)-int64(simCycles))
	}
	if ledCycles != engCycles {
		t.Errorf("ledger cycles %d != engine counter cycles %d", ledCycles, engCycles)
	}
	if ledElems != engElems {
		t.Errorf("ledger elements %d != engine elements %d", ledElems, engElems)
	}
	if ledReqs != engReqs {
		t.Errorf("ledger requests %d != engine requests %d", ledReqs, engReqs)
	}
	if snap.Overflowed != 0 {
		t.Errorf("ledger overflowed %d rows", snap.Overflowed)
	}
}

// TestClusterObservabilityDisabledIdentical: with tracing, ledger and
// timeline all off, the cluster serves bit-identical outputs and
// identical modeled accounting to a fully instrumented one.
func TestClusterObservabilityDisabledIdentical(t *testing.T) {
	run := func(instrumented bool) ([]float32, uint64) {
		ecfg := engine.Config{DPUs: 2, Shards: 1, MaxBatch: 256}
		cfg := Config{Engines: []engine.Config{ecfg, ecfg}}
		if instrumented {
			cfg.TraceDepth = 8
			cfg.Ledger = true
			cfg.Timeline = telemetry.TimelineConfig{Enabled: true, BucketWidth: 10 * time.Millisecond}
		}
		cl, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		fn := core.Sigmoid
		p := core.Params{Method: core.LLUT, Interp: true, SizeLog2: 10}
		xs := stats.RandomInputs(-6, 6, 333, 9)
		out, st, err := cl.EvaluateBatchTenant("acme", fn, p, xs)
		if err != nil {
			t.Fatal(err)
		}
		return out, st.KernelCycles
	}
	outOn, cycOn := run(true)
	outOff, cycOff := run(false)
	if cycOn != cycOff {
		t.Fatalf("modeled cycles diverge: %d vs %d", cycOn, cycOff)
	}
	for i := range outOn {
		if outOn[i] != outOff[i] {
			t.Fatalf("output %d diverges", i)
		}
	}
}

// TestClusterTimelineServed: an enabled cluster timeline accumulates
// windows from the cluster registry.
func TestClusterTimelineServed(t *testing.T) {
	ecfg := engine.Config{DPUs: 2, Shards: 1}
	cl, err := New(Config{
		Engines:  []engine.Config{ecfg},
		Timeline: telemetry.TimelineConfig{Enabled: true, BucketWidth: time.Second, Buckets: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	fn := core.Sigmoid
	p := core.Params{Method: core.LLUT, Interp: true, SizeLog2: 10}
	if _, _, err := cl.EvaluateBatchTenant("t", fn, p, make([]float32, 8)); err != nil {
		t.Fatal(err)
	}
	cl.timeline.Tick(time.Now())
	snap := cl.Observe().Timeline.Snapshot()
	if len(snap.Windows) == 0 {
		t.Fatal("timeline has no windows after a tick")
	}
	if got := snap.Windows[len(snap.Windows)-1].Values["cluster_requests_total:rate"]; got <= 0 {
		t.Fatalf("request rate = %v, want > 0", got)
	}
}
