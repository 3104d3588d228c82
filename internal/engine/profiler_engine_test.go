package engine

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"transpimlib/internal/core"
	"transpimlib/internal/profiler"
	"transpimlib/internal/stats"
)

// profKey mirrors the ledger's row identity for reconciliation.
type profKey struct{ tenant, fn, method string }

// TestProfilerReconcilesWithLedgerAndSimulator: with the profiler and
// ledger both on, every quantity must agree ±0 — the profile's wall
// cycles sum to the simulator's attributed cycles and the engine's
// kernel cycles, and per (tenant, function, method) they match the
// ledger's kernel-cycle rows exactly, under a concurrent multi-tenant
// mix with coalescing and splitting in play. The fault cases push
// coalesced batches through the recovery ladder's extra launches
// (hedges, retries, remaps); each first checks its mechanism fired.
func TestProfilerReconcilesWithLedgerAndSimulator(t *testing.T) {
	faulted := func(plan string, rel ReliabilityConfig) Config {
		// Requests stay small (maxN 40) so a coalesced batch fits one
		// core and a remap never has to degrade.
		return Config{
			DPUs: 2, Shards: 1, MaxBatch: 256, BatchWindow: 5 * time.Millisecond,
			Faults: mustPlan(t, plan), Reliability: rel,
		}
	}
	for _, tc := range []struct {
		name  string
		cfg   Config
		maxN  int
		fired func(Stats) uint64
	}{
		{"clean", Config{DPUs: 4, Shards: 2, MaxBatch: 128}, 300, nil},
		{"hedge", faulted("seed=5,slowat=1:1;2:1;3:1,slowfactor=8", ReliabilityConfig{HedgeRatio: 2}), 40,
			func(s Stats) uint64 { return s.Hedges }},
		{"retry", faulted("seed=7,dpufail=0.3", ReliabilityConfig{}), 40,
			func(s Stats) uint64 { return s.LaunchRetries }},
		{"remap", faulted("seed=1,failat=1:1;2:1;3:1", ReliabilityConfig{}), 40,
			func(s Stats) uint64 { return s.Remaps }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Ledger = true
			cfg.Profiler = profiler.Config{Enabled: true}
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()

			fnA, parA := llutSpec()
			parB := core.Params{Method: core.CORDIC, Iterations: 20}
			tenants := []string{"acme", "globex", ""}
			var wg sync.WaitGroup
			for w := 0; w < 6; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					for i := 0; i < 8; i++ {
						n := 1 + rng.Intn(tc.maxN)
						xs := stats.RandomInputs(-3, 3, n, uint64(w*100+i))
						var err error
						if w%2 == 0 {
							_, _, err = e.EvaluateBatchTenant(tenants[w%3], fnA, parA, xs)
						} else {
							_, _, err = e.EvaluateBatchTenant(tenants[w%3], core.Sin, parB, xs)
						}
						if err != nil {
							t.Error(err)
						}
					}
				}(w)
			}
			wg.Wait()

			st := e.Stats()
			if tc.fired != nil && tc.fired(st) == 0 {
				t.Fatalf("%s never fired: %+v", tc.name, st)
			}
			p, ok := e.ProfileSnapshot()
			if !ok || len(p.Frames) == 0 {
				t.Fatal("profiler produced no frames")
			}
			if got := e.System().AttributedKernelCycles(); p.TotalWall != got {
				t.Errorf("profile wall %d != simulator attributed cycles %d", p.TotalWall, got)
			}
			if p.TotalWall != st.KernelCycles {
				t.Errorf("profile wall %d != engine kernel cycles %d", p.TotalWall, st.KernelCycles)
			}

			// Row-for-row against the ledger.
			ledger := map[profKey]uint64{}
			for _, r := range e.Ledger().Rows {
				ledger[profKey{r.Tenant, r.Function, r.Method}] += r.KernelCycles
			}
			prof := map[profKey]uint64{}
			for _, f := range p.Frames {
				prof[profKey{f.Tenant, f.Function, f.Method}] += f.WallCycles
			}
			for k, want := range ledger {
				if got := prof[k]; got != want {
					t.Errorf("row %+v: profile wall %d != ledger cycles %d", k, got, want)
				}
			}
			for k := range prof {
				if _, ok := ledger[k]; !ok {
					t.Errorf("profile row %+v has no ledger counterpart", k)
				}
			}

			// The heatmap's decomposition is exact per core: issue + DMA
			// excess + idle = wall, and every configured core has a row.
			h := e.Profiler().HeatmapSnapshot()
			if len(h.DPUs) != cfg.DPUs {
				t.Fatalf("want %d heatmap rows, got %d", cfg.DPUs, len(h.DPUs))
			}
			for _, d := range h.DPUs {
				if d.IssueCycles+d.DMACycles+d.IdleCycles != d.WallCycles {
					t.Errorf("dpu %d decomposition broken: %d+%d+%d != %d",
						d.DPU, d.IssueCycles, d.DMACycles, d.IdleCycles, d.WallCycles)
				}
			}
		})
	}
}

// TestProfilerProgramPhases: fused-program launches are labeled per
// phase under the program's ledger identity, and the program's profile
// cycles reconcile with its ledger row.
func TestProfilerProgramPhases(t *testing.T) {
	e, err := New(Config{
		DPUs: 4, Shards: 1, MaxBatch: 4096,
		Ledger:   true,
		Profiler: profiler.Config{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	prog, err := e.CompileProgram(progSoftmax(), progParams())
	if err != nil {
		t.Fatal(err)
	}
	xs := stats.RandomInputs(-7.5, 7.5, 512, 11)
	if _, _, err := e.EvaluateProgramTenant("ml-team", prog, [][]float32{xs}, nil); err != nil {
		t.Fatal(err)
	}

	p, _ := e.ProfileSnapshot()
	stages := map[string]uint64{}
	var progWall uint64
	for _, f := range p.Frames {
		if f.Function != "program" {
			t.Errorf("unexpected non-program frame: %+v", f)
			continue
		}
		if f.Method != "fused:softmax" || f.Tenant != "ml-team" {
			t.Errorf("program frame mislabeled: %+v", f)
		}
		stages[f.Stage] += f.WallCycles
		progWall += f.WallCycles
	}
	if len(stages) < 2 {
		t.Fatalf("softmax should profile as multiple phases, got stages %v", stages)
	}
	for st := range stages {
		if len(st) < 5 || st[:5] != "phase" {
			t.Errorf("program stage %q is not a phase label", st)
		}
	}
	var ledgerCycles uint64
	for _, r := range e.Ledger().Rows {
		if r.Function == "program" && r.Method == "fused:softmax" {
			ledgerCycles += r.KernelCycles
		}
	}
	if progWall != ledgerCycles {
		t.Errorf("program profile wall %d != ledger cycles %d", progWall, ledgerCycles)
	}
	if got := e.System().AttributedKernelCycles(); p.TotalWall != got {
		t.Errorf("profile wall %d != attributed cycles %d", p.TotalWall, got)
	}
}

// TestProfilerIdenticalRunsZeroDiff: two engines, same config, same
// workload — modeled cycles are deterministic, so the rolled-up
// profiles must diff to nothing (the CI gate's premise).
func TestProfilerIdenticalRunsZeroDiff(t *testing.T) {
	run := func() profiler.Profile {
		e, err := New(Config{
			DPUs: 4, Shards: 2, MaxBatch: 256,
			Profiler: profiler.Config{Enabled: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		fn, par := llutSpec()
		for i := 0; i < 4; i++ {
			xs := stats.RandomInputs(-3, 3, 200+i, uint64(i))
			if _, _, err := e.EvaluateBatchTenant("t", fn, par, xs); err != nil {
				t.Fatal(err)
			}
		}
		prog, err := e.CompileProgram(progSoftmax(), progParams())
		if err != nil {
			t.Fatal(err)
		}
		xs := stats.RandomInputs(-7.5, 7.5, 256, 3)
		if _, _, err := e.EvaluateProgramTenant("t", prog, [][]float32{xs}, nil); err != nil {
			t.Fatal(err)
		}
		p, _ := e.ProfileSnapshot()
		return p
	}
	a, b := run(), run()
	if deltas := profiler.Diff(profiler.Rollup(a), profiler.Rollup(b)); len(deltas) != 0 {
		t.Fatalf("identical runs diff to %d deltas: %+v", len(deltas), deltas[0])
	}
}

// TestProfilerDisabledExposesNothing: the zero-value config leaves the
// collector nil and the debug endpoints unmounted.
func TestProfilerDisabledExposesNothing(t *testing.T) {
	e, err := New(Config{DPUs: 2, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.Profiler() != nil {
		t.Fatal("collector exists with profiling disabled")
	}
	if _, ok := e.ProfileSnapshot(); ok {
		t.Fatal("snapshot ok with profiling disabled")
	}
	if e.Observe().ProfileHandler != nil || e.Observe().HeatmapHandler != nil {
		t.Fatal("debug handlers mounted with profiling disabled")
	}
}

// TestProfilerCoalescedTenantsSplitExactly pins the segment partition
// against a hand-built coalesced batch: three requests from two
// tenants land in one batch (BatchWindow), and the per-tenant wall
// shares must match the ledger's splits exactly.
func TestProfilerCoalescedTenantsSplitExactly(t *testing.T) {
	e, err := New(Config{
		DPUs: 2, Shards: 1, MaxBatch: 4096, BatchWindow: 20 * time.Millisecond,
		Ledger:   true,
		Profiler: profiler.Config{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	fn, par := llutSpec()
	var wg sync.WaitGroup
	for _, tn := range []struct {
		tenant string
		n      int
	}{{"a", 7}, {"b", 13}, {"a", 29}} {
		wg.Add(1)
		go func(tenant string, n int) {
			defer wg.Done()
			xs := stats.RandomInputs(-3, 3, n, uint64(n))
			if _, _, err := e.EvaluateBatchTenant(tenant, fn, par, xs); err != nil {
				t.Error(err)
			}
		}(tn.tenant, tn.n)
	}
	wg.Wait()

	p, _ := e.ProfileSnapshot()
	profByTenant := map[string]uint64{}
	for _, f := range p.Frames {
		profByTenant[f.Tenant] += f.WallCycles
	}
	ledByTenant := map[string]uint64{}
	for _, r := range e.Ledger().Rows {
		ledByTenant[r.Tenant] += r.KernelCycles
	}
	for tn, want := range ledByTenant {
		if got := profByTenant[tn]; got != want {
			t.Errorf("tenant %q: profile wall %d != ledger cycles %d", tn, got, want)
		}
	}
}
