package engine

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"transpimlib/internal/core"
	"transpimlib/internal/fusion"
	"transpimlib/internal/pimsim"
	"transpimlib/internal/stats"
)

// TestEnginePlanCounters pins the serving-path telemetry: the first
// batch of a spec compiles its plan (miss), every later batch of the
// spec hits whatever its size, and a hit still reports the table cache
// as warm.
func TestEnginePlanCounters(t *testing.T) {
	e, err := New(Config{DPUs: 2, Shards: 1, MaxBatch: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	fn, par := llutSpec()
	xs := stats.RandomInputs(-7.9, 7.9, 256, 5)

	if _, _, err := e.EvaluateBatch(fn, par, xs); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.PlanMisses != 1 || st.PlanHits != 0 {
		t.Fatalf("after first batch: hits=%d misses=%d, want 0/1", st.PlanHits, st.PlanMisses)
	}

	for i := 0; i < 3; i++ {
		_, rst, err := e.EvaluateBatch(fn, par, xs)
		if err != nil {
			t.Fatal(err)
		}
		if !rst.CacheHit || rst.SetupSeconds != 0 {
			t.Fatalf("plan-hit request not reported warm: %+v", rst)
		}
	}
	st = e.Stats()
	if st.PlanMisses != 1 || st.PlanHits != 3 {
		t.Fatalf("after warm batches: hits=%d misses=%d, want 3/1", st.PlanHits, st.PlanMisses)
	}
	// Plans are keyed by spec, not batch size: other sizes hit too.
	for _, n := range []int{100, 1, 255} {
		if _, _, err := e.EvaluateBatch(fn, par, xs[:n]); err != nil {
			t.Fatal(err)
		}
	}
	if st = e.Stats(); st.PlanMisses != 1 || st.PlanHits != 6 {
		t.Fatalf("after other sizes: hits=%d misses=%d, want 6/1", st.PlanHits, st.PlanMisses)
	}
}

// TestPlanCacheConcurrentTenants hammers the plan cache from many
// tenants with mixed specs and sizes — the -race exercise — on a
// clean engine and on
// one whose faults walk the recovery ladder. Every output is checked
// bit-identical against a quiet reference engine.
func TestPlanCacheConcurrentTenants(t *testing.T) {
	ref, err := New(Config{DPUs: 4, Shards: 2, MaxBatch: 512, Reference: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	specs := []struct {
		fn  core.Function
		par core.Params
		lo  float64
		hi  float64
	}{
		{core.Sigmoid, core.Params{Method: core.LLUT, Interp: true, SizeLog2: 12}, -7.9, 7.9},
		{core.Tanh, core.Params{Method: core.DLLUT, Interp: true, SizeLog2: 12}, -7.9, 7.9},
		{core.Exp, core.Params{Method: core.MLUT, Interp: true, SizeLog2: 10}, -10, 10},
	}
	type job struct {
		si   int
		xs   []float32
		want []float32
	}
	var jobs []job
	for si, sp := range specs {
		for _, n := range []int{100, 512, 700} {
			xs := stats.RandomInputs(sp.lo, sp.hi, n, uint64(31*si+n))
			want, _, err := ref.EvaluateBatch(sp.fn, sp.par, xs)
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, job{si: si, xs: xs, want: want})
		}
	}

	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"clean", Config{DPUs: 4, Shards: 2, MaxBatch: 512}},
		{"faulted", Config{
			DPUs: 4, Shards: 2, MaxBatch: 512,
			Faults:      mustPlan(t, "seed=5,dpufail=0.1,dpuslow=0.1x4,transfer=0.05"),
			Reliability: ReliabilityConfig{HedgeRatio: 2},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()

			var wg sync.WaitGroup
			errCh := make(chan error, 64)
			for w := 0; w < 8; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					tenant := fmt.Sprintf("tenant-%d", w)
					for round := 0; round < 6; round++ {
						j := jobs[(w+round)%len(jobs)]
						sp := specs[j.si]
						out, _, err := e.EvaluateBatchTenant(tenant, sp.fn, sp.par, j.xs)
						if err != nil {
							errCh <- err
							return
						}
						for i := range out {
							if math.Float32bits(out[i]) != math.Float32bits(j.want[i]) {
								errCh <- fmt.Errorf("%s round %d: output %d = %v, want %v",
									tenant, round, i, out[i], j.want[i])
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Error(err)
			}
			st := e.Stats()
			if st.PlanHits == 0 {
				t.Error("concurrent run never hit the plan cache")
			}
			if tc.cfg.Faults != nil && st.FaultsInjected == 0 {
				t.Error("fault plan injected no faults — the scenario tested nothing")
			}
		})
	}
}

// TestSetupChargedOncePerEngine: a sequential round-robin stream of
// three specs on a default two-shard engine pays each spec's setup
// exactly once — one generation plus one broadcast to every core of
// the engine — whichever shards serve it, so every run of the stream
// charges the same total.
func TestSetupChargedOncePerEngine(t *testing.T) {
	e, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	specs := []struct {
		fn  core.Function
		par core.Params
	}{
		{core.Sigmoid, core.Params{Method: core.LLUT, Interp: true, SizeLog2: 12}},
		{core.GELU, core.Params{Method: core.DLLUT, Interp: true, SizeLog2: 12}},
		{core.Exp, core.Params{Method: core.LLUTFixed, Interp: true, SizeLog2: 12}},
	}
	var want float64
	bw := e.System().Config().HostToPIMBandwidth
	for _, sp := range specs {
		op, err := core.Build(sp.fn, sp.par, pimsim.NewSystem(pimsim.Config{}).DPU(0))
		if err != nil {
			t.Fatal(err)
		}
		want += op.BuildSeconds() + float64(op.TableBytes())*float64(e.cfg.DPUs)/bw
	}

	var got float64
	for i := 0; i < 12; i++ {
		sp := specs[i%len(specs)]
		_, st, err := e.EvaluateBatch(sp.fn, sp.par, stats.RandomInputs(-2, 2, 64, uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if st.CacheHit != (i >= len(specs)) {
			t.Fatalf("request %d: CacheHit = %v", i, st.CacheHit)
		}
		got += st.SetupSeconds
	}
	if got != want {
		t.Fatalf("stream charged %.9g s of setup, want %.9g s", got, want)
	}
	t.Logf("stream setup: %.9g s", got)
	if st := e.Stats(); st.CacheMisses != uint64(len(specs)) || st.SetupSeconds != want {
		t.Fatalf("engine counted %d misses and %.9g s of setup, want %d and %.9g s",
			st.CacheMisses, st.SetupSeconds, len(specs), want)
	}
}

// TestFailedBuildCachesNothing: a spec whose tables outgrow the 64-KB
// WRAM fails on every request and is never counted as cached.
func TestFailedBuildCachesNothing(t *testing.T) {
	e, err := New(Config{DPUs: 2, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	bad := core.Params{Method: core.LLUT, Interp: true, SizeLog2: 18, Placement: pimsim.InWRAM}
	for i := 0; i < 3; i++ {
		if _, _, err := e.EvaluateBatch(core.Sigmoid, bad, make([]float32, 16)); err == nil {
			t.Fatal("oversized WRAM table must fail")
		}
	}
	if n := e.CachedSpecs(); n != 0 {
		t.Fatalf("CachedSpecs = %d after failed builds, want 0", n)
	}
	if st := e.Stats(); st.SetupSeconds != 0 {
		t.Fatalf("failed builds charged %g s of setup", st.SetupSeconds)
	}
}

// TestFailedBuildFreesTables: on a 1-DPU engine, a spec that fails on
// its second table leaves the WRAM its first table took free, so a
// spec that needs the whole 64-KB WRAM still builds after it.
func TestFailedBuildFreesTables(t *testing.T) {
	for _, bad := range []Spec{
		// The cosine table after a 64-KB sine table.
		{Fn: core.Tan, Par: core.Params{Method: core.MLUT, SizeLog2: 14, Placement: pimsim.InWRAM}},
		// The head table after the tail's constants.
		{Fn: core.Sin, Par: core.Params{Method: core.CORDICLUT, HeadBits: 12, Placement: pimsim.InWRAM}},
	} {
		t.Run(bad.Par.Label(), func(t *testing.T) {
			e, err := New(Config{DPUs: 1, Shards: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			if _, _, err := e.EvaluateBatch(bad.Fn, bad.Par, make([]float32, 16)); err == nil {
				t.Fatal("built, want WRAM exhaustion")
			}
			full := core.Params{Method: core.MLUT, SizeLog2: 14, Placement: pimsim.InWRAM}
			if _, _, err := e.EvaluateBatch(core.Sin, full, make([]float32, 16)); err != nil {
				t.Fatalf("a 64-KB WRAM table after the failed build: %v", err)
			}
		})
	}
}

// TestProgramPlansBounded: each compiled program mints a new ID, so a
// shard keeps only the newest progPlanLimit program plans, and an
// evicted program rebuilds its plan and serves bit-identically.
func TestProgramPlansBounded(t *testing.T) {
	e, err := New(Config{DPUs: 2, Shards: 1, MaxBatch: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	xs := [][]float32{stats.RandomInputs(-4, 4, 64, 7)}
	var first *fusion.Compiled
	var want []float32
	for i := 0; i <= progPlanLimit; i++ {
		prog, err := e.CompileProgram(progSoftmax(), progParams())
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := e.EvaluateProgram(prog, xs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first, want = prog, out
		}
	}
	if n := len(e.shards[0].progs); n > progPlanLimit {
		t.Fatalf("shard holds %d program plans after %d programs, want ≤ %d", n, progPlanLimit+1, progPlanLimit)
	}
	misses := e.Stats().PlanMisses
	got, st, err := e.EvaluateProgram(first, xs, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustBits(t, "evicted program", got, want)
	if e.Stats().PlanMisses != misses+1 || st.SetupSeconds != 0 {
		t.Fatalf("evicted program: plan misses %d → %d, setup %g s; want one rebuild and no setup",
			misses, e.Stats().PlanMisses, st.SetupSeconds)
	}
}
