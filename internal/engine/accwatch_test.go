package engine

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"transpimlib/internal/accwatch"
	"transpimlib/internal/core"
	"transpimlib/internal/stats"
)

// TestAccuracyDisabledBitIdentical is the acceptance check for the
// watcher's cost discipline: an engine with shadow sampling enabled at
// full rate must produce bit-identical outputs and identical modeled
// cycle accounting to one without it — the watcher reads completed
// requests, it never touches the compute pipeline.
func TestAccuracyDisabledBitIdentical(t *testing.T) {
	cfg := Config{DPUs: 2, Shards: 1, MaxBatch: 256}
	plain, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	wcfg := cfg
	wcfg.Accuracy = accwatch.Config{Enabled: true, SampleRate: 1.0}
	watched, err := New(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer watched.Close()

	fn, par := llutSpec()
	for round := 0; round < 3; round++ {
		xs := stats.RandomInputs(-7.9, 7.9, 300, uint64(round+1))
		pOut, pSt, err := plain.EvaluateBatch(fn, par, xs)
		if err != nil {
			t.Fatal(err)
		}
		wOut, wSt, err := watched.EvaluateBatch(fn, par, xs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range xs {
			if math.Float32bits(pOut[i]) != math.Float32bits(wOut[i]) {
				t.Fatalf("round %d output %d: plain %v != watched %v", round, i, pOut[i], wOut[i])
			}
		}
		if pSt.KernelCycles != wSt.KernelCycles {
			t.Fatalf("round %d kernel cycles: plain %d != watched %d", round, pSt.KernelCycles, wSt.KernelCycles)
		}
	}
	if _, ok := plain.Accuracy(); ok {
		t.Fatal("disabled engine reports an accuracy snapshot")
	}
	if snap, ok := watched.Accuracy(); !ok || snap.Samples == 0 {
		t.Fatalf("watched engine snapshot = %+v, ok=%v; want samples > 0", snap, ok)
	}
}

// TestAccuracyDisabledNoWatcher pins the disabled path's shape: no
// watcher object exists, the sampling hook is one nil check, and a nil
// watcher's Sample is allocation-free (the accwatch package pins the
// same property; this is the engine-level face of it).
func TestAccuracyDisabledNoWatcher(t *testing.T) {
	e, err := New(Config{DPUs: 1, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.acc != nil {
		t.Fatal("engine built a watcher with Accuracy.Enabled false")
	}
	if avg := testing.AllocsPerRun(100, func() {
		e.acc.Sample(accwatch.Request{}, nil, nil)
	}); avg != 0 {
		t.Fatalf("nil-watcher Sample allocates %.1f objects, want 0", avg)
	}
}

// TestOnlineMatchesOffline is the bit-comparability acceptance check:
// at SampleRate 1.0 the watcher's cumulative per-series errors must
// exactly equal an offline stats.Collector fed the same (output,
// reference) pairs — both paths route through stats.Deviation, so
// online /debug/accuracy numbers and cmd/tplrepro accuracy numbers agree to
// the last bit on the same inputs.
func TestOnlineMatchesOffline(t *testing.T) {
	e, err := New(Config{
		DPUs: 1, Shards: 1, MaxBatch: 128,
		Accuracy: accwatch.Config{Enabled: true, SampleRate: 1.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	fn, par := llutSpec()
	ref := fn.Ref()
	var offline stats.Collector
	for round := 0; round < 4; round++ {
		xs := stats.RandomInputs(-7.9, 7.9, 257, uint64(100+round))
		ys, _, err := e.EvaluateBatch(fn, par, xs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range xs {
			offline.Add(ys[i], ref(float64(xs[i])))
		}
	}

	snap, ok := e.Accuracy()
	if !ok || len(snap.Series) != 1 {
		t.Fatalf("snapshot ok=%v series=%d, want 1 series", ok, len(snap.Series))
	}
	if snap.Series[0].Key.Method != "l-lut(i)" {
		t.Fatalf("method label = %q, want %q", snap.Series[0].Key.Method, "l-lut(i)")
	}
	if got, want := snap.Series[0].Cumulative, offline.Result(); got != want {
		t.Fatalf("online cumulative %+v != offline collector %+v", got, want)
	}
}

// TestAccuracySLOTripAndCoverage drives the acceptance scenario: a
// traffic shift to out-of-range inputs must visibly move the coverage
// histogram, raise the out-of-range counter, trip the SLO breach
// counter, and annotate the request trace.
func TestAccuracySLOTripAndCoverage(t *testing.T) {
	e, err := New(Config{
		DPUs: 1, Shards: 1, MaxBatch: 1024, TraceDepth: 4,
		Accuracy: accwatch.Config{
			Enabled:    true,
			SampleRate: 1.0,
			Window:     256,
			SLOs:       []accwatch.SLO{{Function: "sigmoid", MaxMAE: 1e-15}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	fn, par := llutSpec()
	// In-domain traffic first, then a shift far outside the table's
	// dense region (sigmoid's domain is about [-8, 8]).
	in := stats.RandomInputs(-7.9, 7.9, 256, 7)
	out := stats.RandomInputs(600, 1000, 256, 8)
	if _, _, err := e.EvaluateBatch(fn, par, in); err != nil {
		t.Fatal(err)
	}
	if _, st, err := e.EvaluateBatch(fn, par, out); err != nil {
		t.Fatal(err)
	} else if st.Latency <= 0 {
		t.Fatal("request reported no latency")
	}

	snap, ok := e.Accuracy()
	if !ok {
		t.Fatal("accuracy snapshot unavailable")
	}
	if snap.Breaches == 0 {
		t.Fatalf("no SLO breach recorded: %+v", snap)
	}
	if snap.OutOfRange != 256 {
		t.Fatalf("out-of-range samples = %d, want 256", snap.OutOfRange)
	}
	// The shift must occupy high-exponent coverage buckets (600..1000
	// spans 2^9..2^9 exponents) absent from the in-domain phase.
	var high uint64
	for _, cb := range snap.Series[0].Coverage {
		if cb.Label == "2^9" {
			high = cb.Count
		}
	}
	if high != 256 {
		t.Fatalf("coverage bucket 2^9 = %d, want 256 (coverage: %+v)", high, snap.Series[0].Coverage)
	}

	// The breach shows up in the Prometheus exposition…
	var sb strings.Builder
	e.Observe().Registry.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), "engine_accuracy_slo_breached_total") {
		t.Fatal("exposition lacks engine_accuracy_slo_breached_total")
	}
	// …and on the breaching request's trace.
	tr, ok := e.TraceLast()
	if !ok {
		t.Fatal("no trace retained")
	}
	found := false
	for _, a := range tr.Root.Attrs {
		if a.Key == "accuracy_slo_breached" && a.Value == "true" {
			found = true
		}
	}
	if !found {
		t.Fatalf("trace root lacks accuracy_slo_breached attr: %+v", tr.Root.Attrs)
	}
}

// TestAccuracyTenantSeries checks that EvaluateBatchTenant splits the
// accuracy accounting per tenant without affecting results.
func TestAccuracyTenantSeries(t *testing.T) {
	e, err := New(Config{
		DPUs: 1, Shards: 1,
		Accuracy: accwatch.Config{Enabled: true, SampleRate: 1.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	fn, par := llutSpec()
	xs := stats.RandomInputs(-7.9, 7.9, 64, 21)
	a, _, err := e.EvaluateBatchTenant("team-a", fn, par, xs)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := e.EvaluateBatchTenant("team-b", fn, par, xs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			t.Fatalf("tenant tag changed results at %d: %v != %v", i, a[i], b[i])
		}
	}
	snap, _ := e.Accuracy()
	if len(snap.Series) != 2 {
		t.Fatalf("series = %d, want 2 (one per tenant)", len(snap.Series))
	}
	if snap.Series[0].Key.Tenant != "team-a" || snap.Series[1].Key.Tenant != "team-b" {
		t.Fatalf("tenant keys = %q, %q", snap.Series[0].Key.Tenant, snap.Series[1].Key.Tenant)
	}
}

// TestDebugAccuracyEndpoint golden-checks /debug/accuracy: the JSON
// document is valid, carries the expected shape, and — because the
// snapshot holds no wall-clock state — two identical deterministic
// sessions serve byte-identical documents.
func TestDebugAccuracyEndpoint(t *testing.T) {
	serve := func() string {
		e, err := New(Config{
			DPUs: 1, Shards: 1,
			Accuracy: accwatch.Config{Enabled: true, SampleRate: 0.25, Seed: 99},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		fn, par := llutSpec()
		for round := 0; round < 3; round++ {
			xs := stats.RandomInputs(-7.9, 7.9, 200, uint64(50+round))
			if _, _, err := e.EvaluateBatch(fn, par, xs); err != nil {
				t.Fatal(err)
			}
		}
		rec := httptest.NewRecorder()
		e.Observe().Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/accuracy", nil))
		if rec.Code != 200 {
			t.Fatalf("/debug/accuracy status %d", rec.Code)
		}
		return rec.Body.String()
	}

	body1, body2 := serve(), serve()
	if body1 != body2 {
		t.Fatalf("identical sessions served different documents:\n%s\n---\n%s", body1, body2)
	}
	var snap accwatch.Snapshot
	if err := json.Unmarshal([]byte(body1), &snap); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if snap.SampleRate != 0.25 || snap.Samples == 0 || len(snap.Series) != 1 {
		t.Fatalf("unexpected document: %+v", snap)
	}
	if snap.Series[0].Key.Function != "sigmoid" {
		t.Fatalf("series key = %+v", snap.Series[0].Key)
	}

	// Disabled engines 404 the endpoint.
	e, err := New(Config{DPUs: 1, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rec := httptest.NewRecorder()
	e.Observe().Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/accuracy", nil))
	if rec.Code != 404 {
		t.Fatalf("disabled /debug/accuracy status %d, want 404", rec.Code)
	}
}

// TestAccuracyGateViolations checks the cumulative end-of-session gate
// behind Engine.AccuracyViolations.
func TestAccuracyGateViolations(t *testing.T) {
	e, err := New(Config{
		DPUs: 1, Shards: 1,
		Accuracy: accwatch.Config{
			Enabled:    true,
			SampleRate: 1.0,
			SLOs: []accwatch.SLO{
				{Method: "l-lut(i)", MaxMAE: 1e-15}, // unmeetable: must fail
				{Function: "nothing-uses-this", MaxMAE: 1e-15},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	fn, par := llutSpec()
	xs := stats.RandomInputs(-7.9, 7.9, 128, 31)
	if _, _, err := e.EvaluateBatch(fn, par, xs); err != nil {
		t.Fatal(err)
	}
	v := e.AccuracyViolations()
	if len(v) != 1 {
		t.Fatalf("violations = %+v, want exactly 1", v)
	}
	if v[0].Metric != "mae" || v[0].Got <= 1e-15 {
		t.Fatalf("violation = %+v", v[0])
	}

	// A sane bound passes.
	e2, err := New(Config{
		DPUs: 1, Shards: 1,
		Accuracy: accwatch.Config{
			Enabled:    true,
			SampleRate: 1.0,
			SLOs:       []accwatch.SLO{{Method: "l-lut(i)", MaxMAE: 1e-2}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if _, _, err := e2.EvaluateBatch(fn, par, xs); err != nil {
		t.Fatal(err)
	}
	if v := e2.AccuracyViolations(); v != nil {
		t.Fatalf("unexpected violations: %+v", v)
	}
}

// TestMethodLabel pins the method label convention shared with
// cmd/tplrepro ("l-lut" plain, "l-lut(i)" interpolated).
func TestMethodLabel(t *testing.T) {
	cases := []struct {
		par  core.Params
		want string
	}{
		{core.Params{Method: core.LLUT, SizeLog2: 12}, "l-lut"},
		{core.Params{Method: core.LLUT, Interp: true, SizeLog2: 12}, "l-lut(i)"},
		{core.Params{Method: core.CORDIC}, "cordic"},
	}
	for _, c := range cases {
		if got := methodLabel(c.par); got != c.want {
			t.Fatalf("methodLabel(%+v) = %q, want %q", c.par, got, c.want)
		}
	}
}
