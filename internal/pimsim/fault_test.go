package pimsim

import (
	"errors"
	"testing"
)

// scriptedAgent is a deterministic test FaultAgent: fail/slow specific
// lanes.
type scriptedAgent struct {
	failLanes map[int]bool
	slowLanes map[int]float64
}

func (a scriptedAgent) Launch(seq, attempt uint64, lane int) LaunchVerdict {
	if a.failLanes[lane] {
		return LaunchVerdict{Fail: true}
	}
	if f, ok := a.slowLanes[lane]; ok {
		return LaunchVerdict{SlowFactor: f}
	}
	return LaunchVerdict{}
}

func burnKernel(ctx *Ctx, _ int) error {
	for i := 0; i < 100; i++ {
		ctx.FAdd(1, 2)
	}
	return nil
}

// TestLaunchShardSeqFail: in a crew launch, failed lanes skip their
// kernel (no cycles charged), surviving lanes run, and the error
// identifies the lanes.
func TestLaunchShardSeqFail(t *testing.T) {
	sys := NewSystem(Config{DPUs: 4})
	crew := sys.NewCrew(4)
	defer crew.Close()
	sys.SetFaultAgent(scriptedAgent{failLanes: map[int]bool{1: true, 3: true}})
	_, err := crew.Launch(7, 0, []int{0, 1, 2, 3}, nil, burnKernel)
	if err == nil {
		t.Fatal("launch with failed lanes returned nil")
	}
	var le *LaunchError
	if !errors.As(err, &le) {
		t.Fatalf("error %T, want *LaunchError", err)
	}
	if !errors.Is(err, ErrDPUFailed) {
		t.Error("LaunchError does not match ErrDPUFailed")
	}
	if le.Seq != 7 || le.Attempt != 0 {
		t.Errorf("LaunchError identity (%d,%d), want (7,0)", le.Seq, le.Attempt)
	}
	if len(le.Lanes) != 2 || le.Lanes[0] != 1 || le.Lanes[1] != 3 {
		t.Errorf("failed lanes %v, want [1 3]", le.Lanes)
	}
	for i := 0; i < 4; i++ {
		cycles := sys.DPU(i).Cycles()
		failed := i == 1 || i == 3
		if failed && cycles != 0 {
			t.Errorf("failed dpu %d charged %d cycles", i, cycles)
		}
		if !failed && cycles == 0 {
			t.Errorf("surviving dpu %d charged no cycles", i)
		}
	}
}

// TestLaunchShardSeqSlow: a slowed lane's issue-cycle delta is scaled
// by the factor relative to a clean lane, launch after launch, while
// its per-class counters stay those of the work it ran; ResetCycles
// clears the added cycles too.
func TestLaunchShardSeqSlow(t *testing.T) {
	sys := NewSystem(Config{DPUs: 2})
	crew := sys.NewCrew(2)
	defer crew.Close()
	sys.SetFaultAgent(scriptedAgent{slowLanes: map[int]float64{1: 3}})
	for launch := uint64(0); launch < 2; launch++ {
		if _, err := crew.Launch(launch, 0, []int{0, 1}, nil, burnKernel); err != nil {
			t.Fatal(err)
		}
		clean, slow := sys.DPU(0).IssueCycles(), sys.DPU(1).IssueCycles()
		if slow != clean*3 {
			t.Errorf("launch %d: slowed lane issue cycles %d, want %d (3x %d)", launch, slow, clean*3, clean)
		}
	}
	if got, want := sys.DPU(1).Counters(), sys.DPU(0).Counters(); got != want {
		t.Errorf("slowed lane counters %+v, want the clean lane's %+v", got, want)
	}
	sys.DPU(1).ResetCycles()
	if got := sys.DPU(1).IssueCycles(); got != 0 {
		t.Errorf("IssueCycles after ResetCycles = %d, want 0", got)
	}
}

// TestLaunchNilAgentUnchanged: with no agent, a launch's identity
// changes nothing it charges.
func TestLaunchNilAgentUnchanged(t *testing.T) {
	a := NewSystem(Config{DPUs: 2})
	b := NewSystem(Config{DPUs: 2})
	ca, cb := a.NewCrew(2), b.NewCrew(2)
	defer ca.Close()
	defer cb.Close()
	wa, err := ca.Launch(0, 0, []int{0, 1}, nil, burnKernel)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := cb.Launch(99, 5, []int{0, 1}, nil, burnKernel)
	if err != nil {
		t.Fatal(err)
	}
	if wa != wb {
		t.Errorf("walls diverge: %d vs %d", wa, wb)
	}
	for i := 0; i < 2; i++ {
		if a.DPU(i).Cycles() != b.DPU(i).Cycles() {
			t.Errorf("dpu %d cycles diverge: %d vs %d", i, a.DPU(i).Cycles(), b.DPU(i).Cycles())
		}
	}
}

// TestKernelErrorOutranksInjected: a genuine kernel error is returned
// even when other lanes had injected failures.
func TestKernelErrorOutranksInjected(t *testing.T) {
	sys := NewSystem(Config{DPUs: 2})
	sys.SetFaultAgent(scriptedAgent{failLanes: map[int]bool{0: true}})
	crew := sys.NewCrew(2)
	defer crew.Close()
	boom := errors.New("boom")
	_, err := crew.Launch(0, 0, []int{0, 1}, nil, func(ctx *Ctx, id int) error {
		return boom
	})
	if !errors.Is(err, boom) {
		t.Errorf("error %v, want the kernel error", err)
	}
}
