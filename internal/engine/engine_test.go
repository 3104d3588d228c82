package engine

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"transpimlib/internal/core"
	"transpimlib/internal/pimsim"
	"transpimlib/internal/stats"
)

func llutSpec() (core.Function, core.Params) {
	return core.Sigmoid, core.Params{Method: core.LLUT, Interp: true, SizeLog2: 12}
}

func checkAccuracy(t *testing.T, fn core.Function, xs, ys []float32, tol float64) {
	t.Helper()
	ref := fn.Ref()
	for i, x := range xs {
		want := ref(float64(x))
		if diff := math.Abs(float64(ys[i]) - want); diff > tol {
			t.Fatalf("%v(%v) = %v, want %v (diff %g > tol %g)", fn, x, ys[i], want, diff, tol)
		}
	}
}

// TestTableCacheReuse is the satellite regression: two consecutive
// EvaluateBatch calls with the same (function, method, size) must
// build tables exactly once and charge zero setup time the second
// time.
func TestTableCacheReuse(t *testing.T) {
	e, err := New(Config{DPUs: 2, Shards: 1, MaxBatch: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	fn, par := llutSpec()
	xs := stats.RandomInputs(-7.9, 7.9, 100, 1)

	out1, st1, err := e.EvaluateBatch(fn, par, xs)
	if err != nil {
		t.Fatal(err)
	}
	if st1.CacheHit {
		t.Fatal("first request reported a cache hit")
	}
	if st1.SetupSeconds <= 0 {
		t.Fatal("first request charged no setup time")
	}
	checkAccuracy(t, fn, xs, out1, 1e-3)

	out2, st2, err := e.EvaluateBatch(fn, par, xs)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.CacheHit {
		t.Fatal("second identical request missed the table cache")
	}
	if st2.SetupSeconds != 0 {
		t.Fatalf("second request charged setup time: %g s", st2.SetupSeconds)
	}
	checkAccuracy(t, fn, xs, out2, 1e-3)

	s := e.Stats()
	if s.CacheMisses != 1 {
		t.Fatalf("tables built %d times, want exactly 1", s.CacheMisses)
	}
	if s.CacheHits < 1 {
		t.Fatalf("cache hits = %d, want ≥ 1", s.CacheHits)
	}
	if e.CachedSpecs() != 1 {
		t.Fatalf("cached specs = %d, want 1", e.CachedSpecs())
	}

	// A default-knob spec must normalize onto the same cache entry.
	if _, st3, err := e.EvaluateBatch(fn, core.Params{Method: core.LLUT, Interp: true, SizeLog2: 12}, xs[:4]); err != nil {
		t.Fatal(err)
	} else if !st3.CacheHit {
		t.Fatal("normalized-equal spec missed the cache")
	}
}

// TestWarmCheaperThanCold is the acceptance check: a cache-warm
// EvaluateBatch must be measurably cheaper than the equivalent cold
// one-shot internal/core path — no table rebuild, no redundant
// host→PIM table transfer.
func TestWarmCheaperThanCold(t *testing.T) {
	e, err := New(Config{DPUs: 4, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	fn, par := llutSpec()
	xs := stats.RandomInputs(-7.9, 7.9, 512, 2)

	if _, _, err := e.EvaluateBatch(fn, par, xs); err != nil {
		t.Fatal(err) // cold call: pays generation + broadcast
	}
	_, warm, err := e.EvaluateBatch(fn, par, xs)
	if err != nil {
		t.Fatal(err)
	}

	// The cold one-shot path: fresh core, tables generated and
	// transferred per call, as internal/core sweeps do.
	dpu := pimsim.NewDPU(0, pimsim.Default(), pimsim.DefaultTasklets)
	op, err := core.Build(fn, par, dpu)
	if err != nil {
		t.Fatal(err)
	}
	coldSetup := op.SetupSeconds()

	if warm.SetupSeconds != 0 {
		t.Fatalf("warm request charged setup: %g s", warm.SetupSeconds)
	}
	if coldSetup <= 0 {
		t.Fatal("cold path charged no setup")
	}
	// The cold path pays setup plus the same evaluation; warm pays
	// evaluation only, so it must be cheaper by the full setup cost.
	coldTotal := coldSetup + warm.TransferInSeconds + warm.ComputeSeconds + warm.TransferOutSeconds
	if warm.ModeledSeconds() >= coldTotal {
		t.Fatalf("warm request (%g s) not cheaper than cold setup + evaluation (%g s)",
			warm.ModeledSeconds(), coldTotal)
	}
	if !warm.CacheHit {
		t.Fatal("second request was not warm")
	}
	if warm.ComputeSeconds <= 0 || warm.TransferInSeconds <= 0 || warm.TransferOutSeconds <= 0 {
		t.Fatalf("warm request missing stage costs: %+v", warm)
	}
}

// TestConcurrentMixedRequests drives a mixed sigmoid/GELU/exp workload
// across 2 shards from more goroutines than the submit queue holds, so
// submitters can block on a full queue — the -race regression for the
// serving pipeline and its backpressure.
func TestConcurrentMixedRequests(t *testing.T) {
	e, err := New(Config{DPUs: 4, Shards: 2, MaxBatch: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	specs := []struct {
		fn  core.Function
		par core.Params
		lo  float64
		hi  float64
		tol float64
	}{
		{core.Sigmoid, core.Params{Method: core.LLUT, Interp: true, SizeLog2: 12}, -7.9, 7.9, 1e-3},
		{core.GELU, core.Params{Method: core.DLLUT, Interp: true, SizeLog2: 12}, -7.9, 7.9, 1e-2},
		{core.Exp, core.Params{Method: core.LLUTFixed, Interp: true, SizeLog2: 12}, -2.5, 2.5, 1e-2},
	}
	const goroutines = queueDepth + 8
	const rounds = 6
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				sp := specs[(g+r)%len(specs)]
				xs := stats.RandomInputs(sp.lo, sp.hi, 50+7*g, uint64(g*100+r))
				ys, st, err := e.EvaluateBatch(sp.fn, sp.par, xs)
				if err != nil {
					errs <- err
					return
				}
				if len(ys) != len(xs) {
					t.Errorf("got %d outputs for %d inputs", len(ys), len(xs))
					return
				}
				ref := sp.fn.Ref()
				for i, x := range xs {
					if diff := math.Abs(float64(ys[i]) - ref(float64(x))); diff > sp.tol {
						t.Errorf("g%d r%d: %v(%v) diff %g > %g", g, r, sp.fn, x, diff, sp.tol)
						return
					}
				}
				if st.Latency <= 0 {
					t.Errorf("g%d r%d: no latency recorded", g, r)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	s := e.Stats()
	if s.Requests != goroutines*rounds {
		t.Fatalf("requests = %d, want %d", s.Requests, goroutines*rounds)
	}
	// Each spec pays its setup once per engine, whichever shards build
	// it and however the requests interleave.
	if s.CacheMisses != uint64(len(specs)) {
		t.Fatalf("cache misses = %d, want %d", s.CacheMisses, len(specs))
	}
	if e.CachedSpecs() != len(specs) {
		t.Fatalf("cached specs = %d, want %d", e.CachedSpecs(), len(specs))
	}
}

// TestCoalescing holds the batcher window open while several small
// same-spec requests arrive; they must ride in fewer batches than
// requests.
func TestCoalescing(t *testing.T) {
	e, err := New(Config{DPUs: 2, Shards: 1, MaxBatch: 4096, BatchWindow: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	fn, par := llutSpec()

	const n = 8
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			xs := stats.RandomInputs(-7.9, 7.9, 16, uint64(g))
			if _, _, err := e.EvaluateBatch(fn, par, xs); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()

	s := e.Stats()
	if s.Batches >= s.Requests {
		t.Fatalf("no coalescing: %d batches for %d requests", s.Batches, s.Requests)
	}
	if s.CoalescedBatches == 0 {
		t.Fatal("no batch carried more than one request")
	}
}

// TestLargeRequestSplits checks a request bigger than MaxBatch is
// split across batches and still completes correctly.
func TestLargeRequestSplits(t *testing.T) {
	e, err := New(Config{DPUs: 2, Shards: 1, MaxBatch: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	fn, par := llutSpec()
	xs := stats.RandomInputs(-7.9, 7.9, 300, 7)
	ys, st, err := e.EvaluateBatch(fn, par, xs)
	if err != nil {
		t.Fatal(err)
	}
	if want := (300 + 63) / 64; st.Batches != want {
		t.Fatalf("request rode in %d batches, want %d", st.Batches, want)
	}
	checkAccuracy(t, fn, xs, ys, 1e-3)
}

// TestUnsupportedSpec checks the support matrix is enforced before
// anything is enqueued.
func TestUnsupportedSpec(t *testing.T) {
	e, err := New(Config{DPUs: 2, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// CORDIC has no route to GELU (Table 2).
	if _, _, err := e.EvaluateBatch(core.GELU, core.Params{Method: core.CORDIC}, []float32{1}); err == nil {
		t.Fatal("expected an unsupported-pair error")
	}
	if _, _, err := e.EvaluateBatch(core.Sin, core.Params{Method: core.LLUT}, nil); err != nil {
		t.Fatalf("empty input should be a no-op, got %v", err)
	}
}

// TestClose checks shutdown drains cleanly and rejects later calls.
func TestClose(t *testing.T) {
	e, err := New(Config{DPUs: 2, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	fn, par := llutSpec()
	if _, _, err := e.EvaluateBatch(fn, par, []float32{0.5}); err != nil {
		t.Fatal(err)
	}
	e.Close()
	e.Close() // idempotent
	if _, _, err := e.EvaluateBatch(fn, par, []float32{0.5}); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("EvaluateBatch after Close = %v, want ErrEngineClosed", err)
	}
}

// --- pure helpers ---

func TestPlanBatches(t *testing.T) {
	mk := func(n int) *request {
		return &request{inputs: make([]float32, n), done: make(chan struct{})}
	}
	spec := Spec{Fn: core.Sin, Par: core.Params{Method: core.LLUT}.Normalized()}
	r1, r2, r3 := mk(10), mk(50), mk(100)
	batches := planBatches(nil, spec, []*request{r1, r2, r3}, 64)
	if len(batches) != 3 {
		t.Fatalf("got %d batches, want 3", len(batches))
	}
	// 10+50 fill batch 1 to 60; r3 splits 4 / 64 / 32.
	if batches[0].n != 64 || batches[1].n != 64 || batches[2].n != 32 {
		t.Fatalf("batch sizes %d/%d/%d, want 64/64/32", batches[0].n, batches[1].n, batches[2].n)
	}
	if len(batches[0].segs) != 3 {
		t.Fatalf("batch 0 has %d segs, want 3 (r1, r2, head of r3)", len(batches[0].segs))
	}
	if r3.remaining != 3 {
		t.Fatalf("r3 outstanding segments = %d, want 3", r3.remaining)
	}
	total := 0
	for _, b := range batches {
		for _, sg := range b.segs {
			total += sg.n
		}
	}
	if total != 160 {
		t.Fatalf("planned %d elements, want 160", total)
	}
}

func TestShardPlan(t *testing.T) {
	cases := []struct{ n, k, per, bytes int }{
		{100, 4, 25, 400},
		{101, 4, 26, 416}, // padded to equal chunks → parallel transfer
		{1, 8, 1, 32},     // n == 1: every bank still receives one padded element
		{8, 8, 1, 32},
		{3, 8, 1, 32}, // n < cores: padding fills the idle banks
		{9, 8, 2, 64}, // n % cores != 0: one extra element per chunk
		{63, 8, 8, 256},
	}
	for _, c := range cases {
		per, bytes := shardPlan(c.n, c.k)
		if per != c.per || bytes != c.bytes {
			t.Errorf("shardPlan(%d,%d) = (%d,%d), want (%d,%d)", c.n, c.k, per, bytes, c.per, c.bytes)
		}
	}
}
