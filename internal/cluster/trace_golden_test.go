package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"transpimlib/internal/core"
	"transpimlib/internal/engine"
	"transpimlib/internal/faultsim"
	"transpimlib/internal/fusion"
	"transpimlib/internal/pimsim"
	"transpimlib/internal/stats"
	"transpimlib/internal/telemetry"
)

// TestTraceRequestsGolden pins the full content of served traces: the
// skeleton of every cluster, replica and engine trace (names, process
// lanes, shards, attributes in order, errors, modeled seconds) and the
// /debug/trace?format=chrome document for the same traces with its
// wall-clock ts and dur zeroed. The mix covers a one-batch, a
// three-batch and a three-element request, a failing request, batches
// recovered from injected faults, a cold request whose setup span
// pins the modeled table build and broadcast, and a fused program on
// a standalone engine.
//
// The faulted spec is prewarmed (and the program runs once before the
// recorded run) so the recovery traces show warm batches only.
func TestTraceRequestsGolden(t *testing.T) {
	// Replica 0 serves this spec's key. Its lane 0 fails the first
	// launch of each of the 1,100-element request's three batches
	// (retries); the third failure quarantines the lane, so that
	// batch's retry and the next request run remapped onto lane 1. The
	// 64-element request's lane 1 straggles and is hedged.
	plan, err := faultsim.ParsePlan("failat=3:0;4:0;5:0,slowat=2:1")
	if err != nil {
		t.Fatal(err)
	}
	ecfg := engine.Config{DPUs: 2, Shards: 1, MaxBatch: 512}
	faulty := ecfg
	faulty.Faults = &plan
	faulty.Reliability = engine.ReliabilityConfig{HedgeRatio: 2}
	cl, err := New(Config{
		Engines:    []engine.Config{faulty, ecfg},
		TraceDepth: 16,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	fn := core.Sigmoid
	p := core.Params{Method: core.LLUT, Interp: true, SizeLog2: 10}
	if err := cl.Prewarm(fn, p, "acme"); err != nil {
		t.Fatal(err)
	}
	var prewarmed [2]int
	for i := range prewarmed {
		prewarmed[i] = len(cl.Replica(i).Traces())
	}
	for k, n := range []int{64, 1100, 3} {
		if _, _, err := cl.EvaluateBatchTenant("acme", fn, p, stats.RandomInputs(-6, 6, n, uint64(k+1))); err != nil {
			t.Fatal(err)
		}
	}
	// 2^18 float entries overflow the 64-KB WRAM: the table build fails.
	bad := core.Params{Method: core.LLUT, Interp: true, SizeLog2: 18, Placement: pimsim.InWRAM}
	if _, _, err := cl.EvaluateBatchTenant("acme", fn, bad, stats.RandomInputs(-1, 1, 16, 4)); err == nil {
		t.Fatal("oversized WRAM table must fail")
	}
	// Cold: this spec's tables are built on first use.
	cold := core.Params{Method: core.DLLUT, Interp: true, SizeLog2: 8}
	if _, st, err := cl.EvaluateBatchTenant("acme", core.Tanh, cold, stats.RandomInputs(-6, 6, 32, 5)); err != nil || st.CacheHit {
		t.Fatalf("cold request: hit=%v err=%v", st.CacheHit, err)
	}

	e, err := engine.New(engine.Config{DPUs: 2, Shards: 1, TraceDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	prog := fusion.NewProgram("softmax")
	x := prog.Input()
	ex := prog.Func(core.Exp, prog.Sub(x, prog.Broadcast(prog.ReduceMax(x))))
	prog.Return(prog.Mul(ex, prog.Div(prog.Const(1), prog.Broadcast(prog.ReduceSum(ex)))))
	c, err := e.CompileProgram(prog, core.Params{Method: core.LLUT, Interp: true, SizeLog2: 12})
	if err != nil {
		t.Fatal(err)
	}
	in := [][]float32{stats.RandomInputs(-7.5, 7.5, 256, 11)}
	for run := 0; run < 2; run++ {
		if _, _, err := e.EvaluateProgram(c, in, nil); err != nil {
			t.Fatal(err)
		}
	}

	// Each section holds the traces recorded after the prewarm, newest
	// last, and the chrome document of the same traces.
	var sb strings.Builder
	section := func(name string, tel *telemetry.Telemetry, skip int) {
		traces := tel.Tracer.Traces()[skip:]
		fmt.Fprintf(&sb, "== %s ==\n", name)
		for _, tr := range traces {
			fmt.Fprintf(&sb, "trace %d\n", tr.ID)
			skeleton(tr.Root, "", &sb)
		}
		fmt.Fprintf(&sb, "== %s chrome ==\n", name)
		sb.WriteString(chromeZeroed(t, tel.Handler(), len(traces)))
	}
	section("cluster", cl.Observe(), 0)
	for i := range prewarmed {
		section(fmt.Sprintf("replica/%d", i), cl.ReplicaObserve(i), prewarmed[i])
	}
	section("engine", e.Observe(), 1)

	out := sb.String()
	for _, want := range []string{"retries=", "remapped=true", "hedged=true", "error", "setup", "program=softmax"} {
		if !strings.Contains(out, want) {
			t.Errorf("golden traces lack %q", want)
		}
	}
	checkGolden(t, "trace.requests.golden", out)
}

// chromeZeroed fetches the n newest traces from h's
// /debug/trace?format=chrome and re-encodes the document with every
// event's wall-clock ts and dur set to zero.
func chromeZeroed(t *testing.T, h http.Handler, n int) string {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/debug/trace?format=chrome&n=%d", n), nil))
	if w.Code != http.StatusOK {
		t.Fatalf("chrome trace: status %d: %s", w.Code, w.Body.String())
	}
	var doc map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	events, _ := doc["traceEvents"].([]any)
	for _, ev := range events {
		m := ev.(map[string]any)
		m["ts"], m["dur"] = 0, 0
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return string(data) + "\n"
}
