package engine

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"transpimlib/internal/core"
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
