package cluster

import (
	"math"
	"testing"

	"transpimlib/internal/core"
	"transpimlib/internal/engine"
	"transpimlib/internal/faultsim"
	"transpimlib/internal/stats"
)

// TestSingleReplicaBitIdentical is the acceptance gate: with N=1, no
// quotas, and no faults, routing through the cluster produces outputs,
// modeled cycles, and engine-wide modeled stats bit-identical to
// calling the engine directly.
func TestSingleReplicaBitIdentical(t *testing.T) {
	// One shard: multi-shard engines race batches across shard
	// goroutines, so shard residency (CacheHit, SetupSeconds) is not
	// comparable across engines — the same constraint the engine's own
	// differential tests work under. Outputs and cycles are
	// shard-independent either way.
	ecfg := engine.Config{DPUs: 4, Shards: 1, MaxBatch: 512}
	bare, err := engine.New(ecfg)
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	cl, err := New(Config{Engines: []engine.Config{ecfg}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	specs := []struct {
		fn core.Function
		p  core.Params
	}{
		{core.Sigmoid, core.Params{Method: core.LLUT, Interp: true, SizeLog2: 10}},
		{core.Exp, core.Params{Method: core.MLUT, SizeLog2: 12}},
		{core.Tanh, core.Params{Method: core.CORDIC, Iterations: 16}},
		{core.GELU, core.Params{Method: core.LLUT, SizeLog2: 8}},
	}
	for si, sp := range specs {
		for r := 0; r < 4; r++ {
			xs := stats.RandomInputs(-6, 6, 257, uint64(si*10+r+1))
			y1, st1, err1 := bare.EvaluateBatchTenant("tn", sp.fn, sp.p, xs)
			y2, st2, err2 := cl.EvaluateBatchTenant("tn", sp.fn, sp.p, xs)
			if err1 != nil || err2 != nil {
				t.Fatalf("spec %d req %d: bare=%v cluster=%v", si, r, err1, err2)
			}
			for i := range y1 {
				if math.Float32bits(y1[i]) != math.Float32bits(y2[i]) {
					t.Fatalf("spec %d req %d elem %d: bare %x cluster %x",
						si, r, i, math.Float32bits(y1[i]), math.Float32bits(y2[i]))
				}
			}
			// Latency is host wall time; every other field is modeled
			// or counted and must match exactly.
			st1.Latency, st2.Latency = 0, 0
			if st1 != st2 {
				t.Fatalf("spec %d req %d stats diverge:\nbare    %+v\ncluster %+v", si, r, st1, st2)
			}
		}
	}

	// The engine-wide accumulated stats must agree field-for-field —
	// both engines saw the identical request sequence, and every field
	// is modeled or counted.
	s1, s2 := bare.Stats(), cl.ReplicaStats()[0]
	if s1 != s2 {
		t.Fatalf("engine stats diverge:\nbare:    %+v\ncluster: %+v", s1, s2)
	}

	// And the routing layer must have touched every request without
	// shedding or spilling any.
	cs := cl.Stats()
	if cs.Requests != 16 || cs.Routed[0] != 16 || cs.Shed != 0 || cs.Spills != 0 || cs.Failovers != 0 {
		t.Fatalf("cluster counters: %+v", cs)
	}
}

// TestClusterFaultedReplicaBitExact is the N=4 acceptance gate: with
// one replica under a total-DPU-failure fault plan, every request that
// the cluster serves — including those the faulted replica degrades to
// its host mirror and those re-routed after quarantine — returns
// outputs bit-identical to a clean reference engine.
func TestClusterFaultedReplicaBitExact(t *testing.T) {
	clean, err := engine.New(engine.Config{DPUs: 2, Shards: 1, MaxBatch: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()

	plan, err := faultsim.ParsePlan("seed=7,dpufail=1")
	if err != nil {
		t.Fatal(err)
	}
	ecfg := engine.Config{DPUs: 2, Shards: 1, MaxBatch: 512}
	fcfg := ecfg
	fcfg.Faults = &plan
	cl, err := New(Config{
		Engines:     []engine.Config{ecfg, fcfg, ecfg, ecfg},
		Replication: 2,
		Seed:        11,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	p := core.Params{Method: core.LLUT, Interp: true, SizeLog2: 10}
	tenants := []string{"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"}
	served := 0
	for round := 0; round < 6; round++ {
		for ti, tn := range tenants {
			xs := stats.RandomInputs(-7.5, 7.5, 200, uint64(round*100+ti+1))
			want, _, err := clean.EvaluateBatchTenant(tn, core.Sigmoid, p, xs)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := cl.EvaluateBatchTenant(tn, core.Sigmoid, p, xs)
			if err != nil {
				t.Fatalf("round %d tenant %s: %v", round, tn, err)
			}
			served++
			for i := range want {
				if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
					t.Fatalf("round %d tenant %s elem %d: clean %x cluster %x",
						round, tn, i, math.Float32bits(want[i]), math.Float32bits(got[i]))
				}
			}
		}
	}
	if served != 48 {
		t.Fatalf("served %d, want 48", served)
	}

	// The faulted replica must have been exercised (its degrades are
	// the whole point of the scenario) and then quarantined.
	cs := cl.Stats()
	if cs.Degraded == 0 {
		t.Fatal("the faulted replica never served degraded traffic — routing missed it; adjust the seed")
	}
	h := cl.Health()[1]
	if h.Errors == 0 {
		t.Fatalf("faulted replica took no health penalty: %+v", h)
	}
	if cs.QuarantinedReplicas == 0 && !h.Quarantined && !h.Probation {
		t.Fatalf("sustained degradation never quarantined replica 1: stats=%+v health=%+v", cs, h)
	}
}
