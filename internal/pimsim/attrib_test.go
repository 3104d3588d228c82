package pimsim

import (
	"errors"
	"testing"
)

// TestCycleAttribution: each launch charges the slowest lane's
// closed-form cycles — exactly what a caller derives from the counter
// deltas — and returns the same count as its wall.
func TestCycleAttribution(t *testing.T) {
	sys := NewSystem(Config{DPUs: 2})
	crew := sys.NewCrew(2)
	defer crew.Close()
	if _, err := crew.Launch(0, 0, []int{0, 1}, nil, burnKernel); err != nil {
		t.Fatal(err)
	}
	before := sys.AttributedKernelCycles()
	issue0 := []uint64{sys.DPU(0).IssueCycles(), sys.DPU(1).IssueCycles()}
	dma0 := []uint64{sys.DPU(0).DMACycles(), sys.DPU(1).DMACycles()}
	wall, err := crew.Launch(1, 0, []int{0, 1}, nil, func(ctx *Ctx, id int) error {
		// Unequal lanes: the attribution must follow the slower one.
		for i := 0; i < 50*(id+1); i++ {
			ctx.FMul(2, 3)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	for i := 0; i < 2; i++ {
		d := sys.DPU(i)
		c := ClosedFormCycles(d.IssueCycles()-issue0[i], d.DMACycles()-dma0[i], d.Tasklets())
		if c > want {
			want = c
		}
	}
	if want == 0 {
		t.Fatal("kernel charged no cycles")
	}
	if got := sys.AttributedKernelCycles() - before; got != want || wall != want {
		t.Fatalf("attributed %d cycles, wall %d, want %d", got, wall, want)
	}

	// A second launch accumulates.
	if _, err := crew.Launch(2, 0, []int{0}, nil, burnKernel); err != nil {
		t.Fatal(err)
	}
	if after := sys.AttributedKernelCycles() - before; after <= want {
		t.Fatalf("second launch did not accumulate: %d", after)
	}
}

// TestCycleAttributionWithFaultAgent: attribution composes with an
// installed fault agent — slowed lanes charge their scaled delta.
func TestCycleAttributionWithFaultAgent(t *testing.T) {
	sys := NewSystem(Config{DPUs: 2})
	sys.SetFaultAgent(scriptedAgent{slowLanes: map[int]float64{1: 3}})
	crew := sys.NewCrew(2)
	defer crew.Close()
	if _, err := crew.Launch(0, 0, []int{0, 1}, nil, burnKernel); err != nil {
		t.Fatal(err)
	}
	var want uint64
	for i := 0; i < 2; i++ {
		d := sys.DPU(i)
		c := ClosedFormCycles(d.IssueCycles(), d.DMACycles(), d.Tasklets())
		if c > want {
			want = c
		}
	}
	if got := sys.AttributedKernelCycles(); got != want {
		t.Fatalf("attributed %d cycles under injection, want %d (post-verdict)", got, want)
	}
}

// sub returns the per-class difference a − b.
func sub(a, b Counters) Counters {
	for i := range a.Ops {
		a.Ops[i] -= b.Ops[i]
		a.Cycles[i] -= b.Cycles[i]
	}
	return a
}

// TestLaunchRecords pins the one measurement a launch takes: under
// every cost profile and at full and at stalled pipeline occupancy,
// each lane's record equals the deltas of the core's public accessors
// over the launch — after a failed lane's skip and a slowed lane's
// scaling — and the launch's wall is the slowest record, charged once
// to AttributedKernelCycles.
func TestLaunchRecords(t *testing.T) {
	ids := []int{5, 2, 0, 3} // lane k runs on core ids[k]
	const failLane, slowLane = 1, 2
	for profile, m := range testProfiles() {
		for _, tasklets := range []int{DefaultTasklets, 4} {
			rec := NewSigRecorder(m)
			rec.FDiv(rec.FAdd(1, 2), 3)
			rec.MramLoadF32(0)
			sig := rec.TakeSig()
			kernel := func(ctx *Ctx, id int) error {
				for i := 0; i <= id; i++ {
					ctx.FMul(ctx.FAdd(1, 2), 3)
					ctx.IMul(3, 4)
					ctx.QDiv(1, 2)
					ctx.F32ToFix64(1.5, 8)
					ctx.WramLoadI64(0)
				}
				ctx.Charge(5 + id)
				ctx.ChargeSig(&sig, uint64(3+id))
				ctx.MramRead(0, 0, 64*(id+1))
				if id == 3 {
					ctx.ChargeDMA(1 << 16) // a DMA-bound lane
				}
				return nil
			}

			sys := NewSystem(Config{DPUs: 6, Tasklets: tasklets, Cost: m})
			crew := sys.NewCrew(len(ids))
			defer crew.Close()
			// A clean launch first, so the records below are deltas over
			// non-zero accounting.
			if _, err := crew.Launch(0, 0, ids, nil, kernel); err != nil {
				t.Fatal(err)
			}
			sys.SetFaultAgent(scriptedAgent{
				failLanes: map[int]bool{failLane: true},
				slowLanes: map[int]float64{slowLane: 3},
			})
			type snap struct {
				issue, dma uint64
				cnt        Counters
			}
			take := func(id int) snap {
				d := sys.DPU(id)
				return snap{d.IssueCycles(), d.DMACycles(), d.Counters()}
			}
			before := make([]snap, len(ids))
			for k, id := range ids {
				before[k] = take(id)
			}
			attrib0 := sys.AttributedKernelCycles()
			lanes := make([]CoreProfile, len(ids))
			wall, err := crew.Launch(1, 0, ids, lanes, kernel)
			var le *LaunchError
			if !errors.As(err, &le) || len(le.Lanes) != 1 || le.Lanes[0] != failLane {
				t.Fatalf("%s/%d: launch error %v, want lane %d failed", profile, tasklets, err, failLane)
			}

			var slowest uint64
			for k, id := range ids {
				after := take(id)
				want := CoreProfile{
					DPU:         id,
					Tasklets:    tasklets,
					IssueCycles: after.issue - before[k].issue,
					DMACycles:   after.dma - before[k].dma,
					Counters:    sub(after.cnt, before[k].cnt),
				}
				want.Cycles = ClosedFormCycles(want.IssueCycles, want.DMACycles, tasklets)
				if got := lanes[k]; got != want {
					t.Errorf("%s/%d lane %d: record\n got  %+v\n want %+v", profile, tasklets, k, got, want)
				}
				if k == failLane && (want.IssueCycles != 0 || want.DMACycles != 0 || want.Counters != (Counters{})) {
					t.Errorf("%s/%d: failed lane charged %+v", profile, tasklets, want)
				}
				if k != failLane && want.Cycles == 0 {
					t.Errorf("%s/%d lane %d: no cycles", profile, tasklets, k)
				}
				slowest = max(slowest, want.Cycles)
			}
			if wall != slowest {
				t.Errorf("%s/%d: wall %d, want the slowest lane's %d", profile, tasklets, wall, slowest)
			}
			if got := sys.AttributedKernelCycles() - attrib0; got != wall {
				t.Errorf("%s/%d: attributed %d, want the wall %d", profile, tasklets, got, wall)
			}
		}
	}
}

// TestLaunchAllocs: a warm crew launch that fills records allocates
// nothing, with a fault agent installed or without one. The per-lane
// contexts, marks and verdicts live on the System, the run state lives
// on the crew, and the workers are already running.
func TestLaunchAllocs(t *testing.T) {
	ids := []int{0, 1, 2, 3}
	lanes := make([]CoreProfile, len(ids))
	sys := NewSystem(Config{DPUs: len(ids)})
	crew := sys.NewCrew(len(ids))
	defer crew.Close()
	launch := func() {
		if _, err := crew.Launch(0, 0, ids, lanes, burnKernel); err != nil {
			t.Fatal(err)
		}
	}
	launch()
	bare := testing.AllocsPerRun(200, launch)
	sys.SetFaultAgent(scriptedAgent{})
	launch()
	agent := testing.AllocsPerRun(200, launch)
	t.Logf("allocs per 4-lane launch: %.0f bare, %.0f with a fault agent", bare, agent)
	if agent > bare {
		t.Fatalf("fault agent adds %.0f allocs per launch (bare %.0f)", agent-bare, bare)
	}
	if bare != 0 || agent != 0 {
		t.Fatalf("a 4-lane launch allocates %.0f bare and %.0f with a fault agent, want 0", bare, agent)
	}
}
