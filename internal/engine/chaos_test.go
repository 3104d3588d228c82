package engine

import (
	"reflect"
	"sync"
	"testing"

	"transpimlib/internal/core"
	"transpimlib/internal/faultsim"
	"transpimlib/internal/pimsim"
	"transpimlib/internal/stats"
)

// mustPlan parses a fault plan or fails the test.
func mustPlan(t *testing.T, s string) *faultsim.Plan {
	t.Helper()
	p, err := faultsim.ParsePlan(s)
	if err != nil {
		t.Fatal(err)
	}
	return &p
}

// runSequential evaluates each input slice as its own request, in
// order, returning outputs and per-request stats.
func runSequential(t *testing.T, e *Engine, fn core.Function, par core.Params, inputs [][]float32) ([][]float32, []RequestStats) {
	t.Helper()
	outs := make([][]float32, len(inputs))
	sts := make([]RequestStats, len(inputs))
	for i, xs := range inputs {
		ys, st, err := e.EvaluateBatch(fn, par, xs)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		outs[i], sts[i] = ys, st
	}
	return outs, sts
}

// sameKernelCycles requires a fast-path run and a Reference run of the
// same requests under the same fault plan to charge every request the
// same kernel cycles: the two lane kinds count identically, so the
// ladder takes the same rungs on both.
func sameKernelCycles(t *testing.T, fast, ref []RequestStats) {
	t.Helper()
	for i := range fast {
		if fast[i].KernelCycles != ref[i].KernelCycles {
			t.Fatalf("request %d kernel cycles: fast %d != reference %d", i, fast[i].KernelCycles, ref[i].KernelCycles)
		}
	}
}

func chaosInputs(n, elems int) [][]float32 {
	out := make([][]float32, n)
	for i := range out {
		out[i] = stats.RandomInputs(-7.5, 7.5, elems, uint64(i+1))
	}
	return out
}

// TestFaultsDisabledBitIdentical is the differential acceptance gate:
// an engine whose plan is enabled but can never fire (the window sits
// beyond any batch the workload dispatches) must produce outputs,
// modeled cycles and modeled stage seconds bit-identical to the
// fault-free engine. This pins the gating invariant — the reliability
// machinery adds nothing when no fault fires.
func TestFaultsDisabledBitIdentical(t *testing.T) {
	fn, par := llutSpec()
	inputs := chaosInputs(12, 300)

	clean, err := New(Config{DPUs: 4, Shards: 1, MaxBatch: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	armed, err := New(Config{
		DPUs: 4, Shards: 1, MaxBatch: 512,
		Faults: mustPlan(t, "seed=42,dpufail=1@1000000-2000000,transfer=1@1000000-2000000"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer armed.Close()

	outC, stC := runSequential(t, clean, fn, par, inputs)
	outA, stA := runSequential(t, armed, fn, par, inputs)
	for i := range inputs {
		if !reflect.DeepEqual(outC[i], outA[i]) {
			t.Fatalf("request %d outputs diverge with a never-firing plan", i)
		}
		// Latency is host wall time; every other field is modeled or
		// counted and must match exactly.
		c, a := stC[i], stA[i]
		c.Latency, a.Latency = 0, 0
		if c != a {
			t.Fatalf("request %d stats diverge:\nclean %+v\narmed %+v", i, c, a)
		}
		if stA[i].Degraded || stA[i].Retries != 0 || stA[i].Remaps != 0 {
			t.Fatalf("request %d reports recovery activity with no faults: %+v", i, stA[i])
		}
	}
	if ev := armed.FaultEvents(); len(ev) != 0 {
		t.Fatalf("never-firing plan recorded %d events", len(ev))
	}
}

// chaosConfig is the acceptance scenario: ≥5%% hard-failure rate plus
// transfer and bit-flip faults on a single shard (the configuration
// whose event log is replay-deterministic).
func chaosConfig(seed string) Config {
	return Config{
		DPUs: 4, Shards: 1, MaxBatch: 512,
		Faults: &faultsim.Plan{
			Seed:        42,
			DPUFail:     faultsim.Schedule{Rate: 0.05},
			DPUSlow:     faultsim.Schedule{Rate: 0.05},
			BitFlip:     faultsim.Schedule{Rate: 0.02},
			TransferIn:  faultsim.Schedule{Rate: 0.05},
			TransferOut: faultsim.Schedule{Rate: 0.05},
		},
	}
}

// TestChaosAllRequestsCorrect: under seeded random DPU failures,
// stragglers, bit-flips and transfer errors, every request completes
// and every output is bit-identical to the fault-free engine — either
// the device produced it after recovery, or the bit-exact host mirror
// did and the request carries the Degraded marker. Fast-path and
// Reference engines charge the same kernel cycles.
func TestChaosAllRequestsCorrect(t *testing.T) {
	fn, par := llutSpec()
	inputs := chaosInputs(40, 333)

	clean, err := New(Config{DPUs: 4, Shards: 1, MaxBatch: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	outC, _ := runSequential(t, clean, fn, par, inputs)

	var runs [2][]RequestStats
	for ri, reference := range []bool{false, true} {
		cfg := chaosConfig("42")
		cfg.Reference = reference
		chaos, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer chaos.Close()

		outX, stX := runSequential(t, chaos, fn, par, inputs)
		for i := range inputs {
			if !reflect.DeepEqual(outC[i], outX[i]) {
				t.Fatalf("reference=%v: request %d outputs wrong under chaos (degraded=%v)", reference, i, stX[i].Degraded)
			}
		}
		runs[ri] = stX
		st := chaos.Stats()
		if st.FaultsInjected == 0 {
			t.Fatal("chaos plan injected no faults — the scenario tested nothing")
		}
		if len(chaos.FaultEvents()) == 0 {
			t.Fatal("no fault events recorded")
		}
		t.Logf("chaos (reference=%v): %d faults, %d launch retries, %d transfer retries, %d remaps, %d degraded, %d repairs",
			reference, st.FaultsInjected, st.LaunchRetries, st.TransferRetries, st.Remaps, st.DegradedBatches, st.TableRepairs)
	}
	sameKernelCycles(t, runs[0], runs[1])
}

// TestChaosEventLogReproducible: re-running the identical workload
// under the identical seed reproduces the identical canonical event
// log — the replayability acceptance criterion.
func TestChaosEventLogReproducible(t *testing.T) {
	fn, par := llutSpec()
	inputs := chaosInputs(30, 257)
	run := func() []faultsim.Event {
		e, err := New(chaosConfig("42"))
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		runSequential(t, e, fn, par, inputs)
		return e.FaultEvents()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no events fired")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("event logs diverge across identical runs:\n%d events vs %d", len(a), len(b))
	}
}

// TestChaosConcurrentClients: correctness (not log determinism, which
// needs a single shard) holds with concurrent submitters over two
// shards; runs under -race in CI.
func TestChaosConcurrentClients(t *testing.T) {
	fn, par := llutSpec()
	inputs := chaosInputs(16, 200)

	clean, err := New(Config{DPUs: 4, Shards: 2, MaxBatch: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	outC, _ := runSequential(t, clean, fn, par, inputs)

	cfg := chaosConfig("42")
	cfg.Shards = 2
	cfg.MaxBatch = 256
	chaos, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer chaos.Close()

	var wg sync.WaitGroup
	errs := make([]error, len(inputs))
	outs := make([][]float32, len(inputs))
	for i := range inputs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], _, errs[i] = chaos.EvaluateBatch(fn, par, inputs[i])
		}(i)
	}
	wg.Wait()
	for i := range inputs {
		if errs[i] != nil {
			t.Fatalf("request %d failed: %v", i, errs[i])
		}
		if !reflect.DeepEqual(outC[i], outs[i]) {
			t.Fatalf("request %d outputs wrong under concurrent chaos", i)
		}
	}
}

// TestForcedDegrade: with a 100%% hard-failure rate no launch can ever
// succeed; every request must still complete with correct outputs via
// the host mirror, carrying the Degraded marker.
func TestForcedDegrade(t *testing.T) {
	fn, par := llutSpec()
	inputs := chaosInputs(6, 150)

	clean, err := New(Config{DPUs: 2, Shards: 1, MaxBatch: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	outC, _ := runSequential(t, clean, fn, par, inputs)

	var runs [2][]RequestStats
	for ri, reference := range []bool{false, true} {
		e, err := New(Config{
			DPUs: 2, Shards: 1, MaxBatch: 256, Reference: reference,
			Faults: mustPlan(t, "seed=7,dpufail=1"),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		outX, stX := runSequential(t, e, fn, par, inputs)
		for i := range inputs {
			if !stX[i].Degraded {
				t.Fatalf("reference=%v: request %d not marked degraded under total DPU failure", reference, i)
			}
			if !reflect.DeepEqual(outC[i], outX[i]) {
				t.Fatalf("reference=%v: request %d degraded outputs differ from the device reference", reference, i)
			}
		}
		if st := e.Stats(); st.DegradedBatches == 0 {
			t.Fatalf("reference=%v: no degraded batches counted", reference)
		}
		runs[ri] = stX
	}
	sameKernelCycles(t, runs[0], runs[1])
}

// TestBitFlipScrubRepair: with flips on every batch, the scrubber must
// detect and repair the corruption before any kernel reads the tables
// — outputs stay bit-identical to the clean engine. Tables must live
// in MRAM: the fault class models DRAM-bank bit-flips, so
// WRAM-resident tables are out of scope (and out of reach).
func TestBitFlipScrubRepair(t *testing.T) {
	fn, par := llutSpec()
	par.Placement = pimsim.InMRAM
	inputs := chaosInputs(8, 200)

	clean, err := New(Config{DPUs: 2, Shards: 1, MaxBatch: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	outC, _ := runSequential(t, clean, fn, par, inputs)

	e, err := New(Config{
		DPUs: 2, Shards: 1, MaxBatch: 256,
		Faults: mustPlan(t, "seed=3,bitflip=1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	outX, _ := runSequential(t, e, fn, par, inputs)
	for i := range inputs {
		if !reflect.DeepEqual(outC[i], outX[i]) {
			t.Fatalf("request %d outputs wrong after bit-flip scrubbing", i)
		}
	}
	st := e.Stats()
	if st.TableCorruptions == 0 || st.TableRepairs == 0 {
		t.Fatalf("scrubber found %d corruptions / %d repairs, want > 0",
			st.TableCorruptions, st.TableRepairs)
	}
}

// TestQuarantineRemap: three consecutive triggered failures of one
// lane quarantine it; subsequent batches are remapped onto the healthy
// core with correct (non-degraded) results.
func TestQuarantineRemap(t *testing.T) {
	fn, par := llutSpec()
	inputs := chaosInputs(10, 60) // small enough for one core's slot

	clean, err := New(Config{DPUs: 2, Shards: 1, MaxBatch: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	outC, _ := runSequential(t, clean, fn, par, inputs)

	var runs [2][]RequestStats
	for ri, reference := range []bool{false, true} {
		e, err := New(Config{
			DPUs: 2, Shards: 1, MaxBatch: 256, Reference: reference,
			Faults: mustPlan(t, "seed=1,failat=1:1;2:1;3:1"),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		outX, stX := runSequential(t, e, fn, par, inputs)
		for i := range inputs {
			if !reflect.DeepEqual(outC[i], outX[i]) {
				t.Fatalf("reference=%v: request %d outputs wrong after quarantine remap", reference, i)
			}
		}
		st := e.Stats()
		if st.Remaps == 0 {
			t.Fatalf("reference=%v: no remaps despite a quarantined core", reference)
		}
		if st.DegradedBatches != 0 {
			t.Fatalf("reference=%v: %d batches degraded; remapping should have absorbed the failures", reference, st.DegradedBatches)
		}
		quarantined := 0
		for _, lh := range e.Health() {
			if lh.Quarantined || lh.Probation {
				quarantined++
			}
		}
		if quarantined == 0 {
			t.Fatalf("reference=%v: health scoreboard shows no quarantined/probation core", reference)
		}
		runs[ri] = stX
	}
	sameKernelCycles(t, runs[0], runs[1])
}

// TestHedgedLaunch: a triggered straggler beyond the hedge ratio gets
// its chunk relaunched; outputs stay correct and the hedge is counted.
func TestHedgedLaunch(t *testing.T) {
	fn, par := llutSpec()
	inputs := chaosInputs(3, 200)

	clean, err := New(Config{DPUs: 2, Shards: 1, MaxBatch: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	outC, _ := runSequential(t, clean, fn, par, inputs)

	var runs [2][]RequestStats
	for ri, reference := range []bool{false, true} {
		e, err := New(Config{
			DPUs: 2, Shards: 1, MaxBatch: 256, Reference: reference,
			Faults:      mustPlan(t, "seed=5,slowat=1:1;2:1;3:1,slowfactor=8"),
			Reliability: ReliabilityConfig{HedgeRatio: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		outX, stX := runSequential(t, e, fn, par, inputs)
		for i := range inputs {
			if !reflect.DeepEqual(outC[i], outX[i]) {
				t.Fatalf("reference=%v: request %d outputs wrong with hedging", reference, i)
			}
		}
		if st := e.Stats(); st.Hedges == 0 {
			t.Fatalf("reference=%v: no hedged launches despite forced stragglers", reference)
		}
		hedged := false
		for _, st := range stX {
			hedged = hedged || st.Hedges > 0
		}
		if !hedged {
			t.Fatalf("reference=%v: no request reported a hedge", reference)
		}
		runs[ri] = stX
	}
	sameKernelCycles(t, runs[0], runs[1])
}

// TestLaunchTimeout: a straggler beyond the modeled launch timeout is
// failed and retried (fresh draws usually run clean); outputs stay
// correct and the timeout is counted.
func TestLaunchTimeout(t *testing.T) {
	fn, par := llutSpec()
	inputs := chaosInputs(3, 200)

	// Measure a clean batch's modeled compute time to place the cutoff
	// between 1x and 8x of it.
	clean, err := New(Config{DPUs: 2, Shards: 1, MaxBatch: 256})
	if err != nil {
		t.Fatal(err)
	}
	outC, stC := runSequential(t, clean, fn, par, inputs)
	clean.Close()
	cutoff := 2 * stC[0].ComputeSeconds

	e, err := New(Config{
		DPUs: 2, Shards: 1, MaxBatch: 256,
		Faults:      mustPlan(t, "seed=5,slowat=1:1,slowfactor=8"),
		Reliability: ReliabilityConfig{LaunchTimeout: cutoff},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	outX, _ := runSequential(t, e, fn, par, inputs)
	for i := range inputs {
		if !reflect.DeepEqual(outC[i], outX[i]) {
			t.Fatalf("request %d outputs wrong with launch timeouts", i)
		}
	}
	if st := e.Stats(); st.LaunchTimeouts == 0 {
		t.Fatal("no launch timeouts despite a forced straggler")
	}
}
