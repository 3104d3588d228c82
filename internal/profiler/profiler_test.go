package profiler

import (
	"strconv"
	"strings"
	"sync"
	"testing"

	"transpimlib/internal/pimsim"
)

// records builds a launch's per-lane records the way the simulator
// hands them over: Cycles is the closed form of each lane's issue and
// DMA cycles.
func records(cores ...pimsim.CoreProfile) []pimsim.CoreProfile {
	for i := range cores {
		cp := &cores[i]
		cp.Cycles = pimsim.ClosedFormCycles(cp.IssueCycles, cp.DMACycles, cp.Tasklets)
	}
	return cores
}

// synthProfile builds a two-core launch with known counters.
func synthProfile() []pimsim.CoreProfile {
	var c0, c1 pimsim.Counters
	c0.Ops[pimsim.OpFAdd] = 100
	c0.Cycles[pimsim.OpFAdd] = 500
	c0.Ops[pimsim.OpWRAM] = 40
	c0.Cycles[pimsim.OpWRAM] = 160
	c1.Ops[pimsim.OpFMul] = 30
	c1.Cycles[pimsim.OpFMul] = 210
	return records(
		pimsim.CoreProfile{DPU: 0, Tasklets: 16, IssueCycles: 660, DMACycles: 900, Counters: c0},
		pimsim.CoreProfile{DPU: 1, Tasklets: 16, IssueCycles: 210, DMACycles: 100, Counters: c1},
	)
}

func launchWall(prof []pimsim.CoreProfile) uint64 {
	var mx uint64
	for _, c := range prof {
		if w := pimsim.ClosedFormCycles(c.IssueCycles, c.DMACycles, c.Tasklets); w > mx {
			mx = w
		}
	}
	return mx
}

// split fills lc's launch wall and per-segment wall shares the way the
// engine's launch does: the slowest lane's closed-form cycles, divided
// by exact integer prefix partitioning over the segments' elements.
func split(lc *LaunchContext, prof []pimsim.CoreProfile) *LaunchContext {
	lc.Wall = launchWall(prof)
	var cum, prev uint64
	for i := range lc.Segs {
		cum += uint64(lc.Segs[i].N)
		c := lc.Wall * cum / uint64(lc.N)
		lc.Segs[i].Wall = c - prev
		prev = c
	}
	return lc
}

func launchTotal(prof []pimsim.CoreProfile) pimsim.Counters {
	var t pimsim.Counters
	for i := range prof {
		t.Add(&prof[i].Counters)
	}
	return t
}

func sumProfile(p Profile) (ops, cycles, wall uint64) {
	for _, f := range p.Frames {
		ops += f.Ops
		cycles += f.Cycles
		wall += f.WallCycles
	}
	return
}

// The core exactness contract: every split is integer prefix
// partitioning, so ops, per-class cycles and wall cycles each sum
// back to the launch totals with zero remainder.
func TestObserveAttributionExact(t *testing.T) {
	c := New(2)
	prof := synthProfile()
	lc := &LaunchContext{
		Function: "sin", Method: "l-lut(i)", Stage: "kernel",
		Segs: []Seg{{Tenant: "a", N: 7}, {Tenant: "b", N: 13}, {Tenant: "a", N: 3}},
		N:    23,
	}
	c.Observe(split(lc, prof), prof)

	p := c.Snapshot()
	wall := launchWall(prof)
	tot := launchTotal(prof)
	ops, cycles, gotWall := sumProfile(p)
	if gotWall != wall {
		t.Fatalf("wall sum = %d, want %d", gotWall, wall)
	}
	if cycles != tot.TotalCycles() {
		t.Fatalf("class-cycle sum = %d, want %d", cycles, tot.TotalCycles())
	}
	if ops != tot.TotalOps() {
		t.Fatalf("ops sum = %d, want %d", ops, tot.TotalOps())
	}
	if p.TotalWall != wall || p.TotalCycles != tot.TotalCycles() || p.TotalOps != tot.TotalOps() {
		t.Fatalf("profile totals %d/%d/%d diverge from frame sums", p.TotalWall, p.TotalCycles, p.TotalOps)
	}

	// Per-tenant wall is exactly the sum of the context's shares.
	wantA := lc.Segs[0].Wall + lc.Segs[2].Wall
	wantB := lc.Segs[1].Wall
	var gotA, gotB uint64
	for _, f := range p.Frames {
		switch f.Tenant {
		case "a":
			gotA += f.WallCycles
		case "b":
			gotB += f.WallCycles
		}
	}
	if gotA != wantA || gotB != wantB {
		t.Fatalf("tenant shares a=%d b=%d, want a=%d b=%d", gotA, gotB, wantA, wantB)
	}

	// Every frame carries the full label stack.
	for _, f := range p.Frames {
		if f.Function != "sin" || f.Method != "l-lut(i)" || f.Stage != "kernel" {
			t.Fatalf("frame labels lost: %+v", f)
		}
	}
}

// A launch that charged no per-class cycles still has its wall
// attributed (to ctrl), so totals keep reconciling.
func TestObserveNoClassCyclesFallsToCtrl(t *testing.T) {
	c := New(1)
	prof := records(pimsim.CoreProfile{DPU: 0, Tasklets: 16, IssueCycles: 100, DMACycles: 0})
	lc := &LaunchContext{Function: "f", Method: "m", Stage: "kernel",
		Segs: []Seg{{Tenant: "t", N: 4}}, N: 4}
	c.Observe(split(lc, prof), prof)
	p := c.Snapshot()
	wall := launchWall(prof)
	if len(p.Frames) != 1 || p.Frames[0].Class != pimsim.OpCtrl.String() || p.Frames[0].WallCycles != wall {
		t.Fatalf("want single ctrl frame with wall %d, got %+v", wall, p.Frames)
	}
}

func TestHeatmapDecompositionSumsToWall(t *testing.T) {
	c := New(2)
	prof := synthProfile()
	lc := &LaunchContext{Function: "f", Method: "m", Stage: "kernel",
		Segs: []Seg{{Tenant: "", N: 8}}, N: 8}
	c.Observe(split(lc, prof), prof)
	c.Observe(split(lc, prof), prof)
	wall := 2 * launchWall(prof)
	h := c.HeatmapSnapshot()
	if len(h.DPUs) != 2 {
		t.Fatalf("want 2 dpu rows, got %d", len(h.DPUs))
	}
	for _, d := range h.DPUs {
		if d.WallCycles != wall {
			t.Fatalf("dpu %d wall = %d, want %d", d.DPU, d.WallCycles, wall)
		}
		if d.IssueCycles+d.DMACycles+d.IdleCycles != d.WallCycles {
			t.Fatalf("dpu %d: issue %d + dma %d + idle %d != wall %d",
				d.DPU, d.IssueCycles, d.DMACycles, d.IdleCycles, d.WallCycles)
		}
		if d.Launches != 2 {
			t.Fatalf("dpu %d launches = %d, want 2", d.DPU, d.Launches)
		}
	}
}

// SubHeatmap rates the interval between two snapshots: per-core
// deltas whose issue + DMA-excess + idle still equal the interval wall.
func TestSubHeatmapIsIntervalDelta(t *testing.T) {
	c := New(1)
	lc := &LaunchContext{Function: "f", Method: "m", Stage: "kernel",
		Segs: []Seg{{Tenant: "", N: 1}}, N: 1}
	launch := func(issue uint64) {
		prof := records(pimsim.CoreProfile{DPU: 0, Tasklets: 16, IssueCycles: issue})
		c.Observe(split(lc, prof), prof)
	}
	launch(10)
	before := c.HeatmapSnapshot()
	launch(20)
	launch(30)
	after := c.HeatmapSnapshot()
	d := SubHeatmap(after, before)
	if d.Launches != 2 || d.DPUs[0].Launches != 2 {
		t.Fatalf("interval launches = %d / %d, want 2", d.Launches, d.DPUs[0].Launches)
	}
	h := d.DPUs[0]
	if h.WallCycles != after.DPUs[0].WallCycles-before.DPUs[0].WallCycles {
		t.Fatalf("interval wall = %d", h.WallCycles)
	}
	if h.IssueCycles+h.DMACycles+h.IdleCycles != h.WallCycles {
		t.Fatalf("interval decomposition %+v does not sum to wall", h)
	}
	if s := h.IssueShare + h.DMAShare + h.IdleShare; h.WallCycles > 0 && (s < 0.999 || s > 1.001) {
		t.Fatalf("interval shares sum to %v", s)
	}
	if z := SubHeatmap(after, after); z.Launches != 0 || z.DPUs[0].WallCycles != 0 {
		t.Fatalf("self-difference not empty: %+v", z)
	}
}

func TestMergeSumsAndDiffOfIdenticalIsEmpty(t *testing.T) {
	c := New(2)
	lc := &LaunchContext{Function: "sin", Method: "l-lut", Stage: "kernel",
		Segs: []Seg{{Tenant: "a", N: 5}}, N: 5}
	c.Observe(split(lc, synthProfile()), synthProfile())
	p := c.Snapshot()

	m := Merge(p, p)
	if m.TotalWall != 2*p.TotalWall || m.TotalOps != 2*p.TotalOps {
		t.Fatalf("merge totals %d/%d, want doubled %d/%d", m.TotalWall, m.TotalOps, 2*p.TotalWall, 2*p.TotalOps)
	}
	if len(m.Frames) != len(p.Frames) {
		t.Fatalf("merge frame count %d, want %d", len(m.Frames), len(p.Frames))
	}

	if d := Diff(p, p); len(d) != 0 {
		t.Fatalf("diff of identical profiles = %d deltas, want 0", len(d))
	}

	// A doubled profile diffs with +100% growth everywhere.
	for _, d := range Diff(p, m) {
		if d.Growth < 0.999 || d.Growth > 1.001 {
			t.Fatalf("doubled profile growth = %v, want 1.0", d.Growth)
		}
	}
}

func TestSubIsIntervalDelta(t *testing.T) {
	c := New(2)
	lc := &LaunchContext{Function: "sin", Method: "l-lut", Stage: "kernel",
		Segs: []Seg{{Tenant: "a", N: 5}}, N: 5}
	c.Observe(split(lc, synthProfile()), synthProfile())
	before := c.Snapshot()
	c.Observe(split(lc, synthProfile()), synthProfile())
	delta := Sub(c.Snapshot(), before)
	if delta.TotalWall != before.TotalWall {
		t.Fatalf("interval wall = %d, want %d", delta.TotalWall, before.TotalWall)
	}
	if delta.Launches != 1 {
		t.Fatalf("interval launches = %d, want 1", delta.Launches)
	}
}

func TestRollupCollapsesTenantAndStage(t *testing.T) {
	c := New(2)
	for _, tn := range []string{"a", "b"} {
		lc := &LaunchContext{Function: "sin", Method: "l-lut", Stage: "kernel",
			Segs: []Seg{{Tenant: tn, N: 5}}, N: 5}
		c.Observe(split(lc, synthProfile()), synthProfile())
		lc.Stage = "remap"
		c.Observe(split(lc, synthProfile()), synthProfile())
	}
	p := c.Snapshot()
	r := Rollup(p)
	if r.TotalWall != p.TotalWall {
		t.Fatalf("rollup wall %d != profile wall %d", r.TotalWall, p.TotalWall)
	}
	for _, f := range r.Frames {
		if f.Tenant != "" || f.Stage != "" {
			t.Fatalf("rollup kept tenant/stage: %+v", f)
		}
	}
	if len(r.Frames) >= len(p.Frames) {
		t.Fatalf("rollup did not collapse: %d vs %d frames", len(r.Frames), len(p.Frames))
	}
}

func TestMaxFramesOverflow(t *testing.T) {
	c := New(1)
	prof := records(pimsim.CoreProfile{DPU: 0, Tasklets: 16, IssueCycles: 100})
	// Each function yields one (ctrl) frame: maxFrames real frames, then
	// two more stacks that must collapse into the overflow frame.
	const stacks = maxFrames + 2
	for i := 0; i < stacks; i++ {
		lc := &LaunchContext{Function: "f" + strconv.Itoa(i), Method: "m", Stage: "kernel",
			Segs: []Seg{{Tenant: "", N: 1}}, N: 1}
		c.Observe(split(lc, prof), prof)
	}
	p := c.Snapshot()
	if len(p.Frames) != maxFrames+1 {
		t.Fatalf("want %d frames + overflow, got %d", maxFrames, len(p.Frames))
	}
	wall := launchWall(prof)
	if p.TotalWall != stacks*wall {
		t.Fatalf("overflow lost cycles: total %d, want %d", p.TotalWall, stacks*wall)
	}
	var hasOverflow bool
	for _, f := range p.Frames {
		if f.Function == "~other" {
			hasOverflow = true
			if f.WallCycles != 2*wall {
				t.Fatalf("overflow wall = %d, want %d", f.WallCycles, 2*wall)
			}
		}
	}
	if !hasOverflow {
		t.Fatal("no overflow frame emitted")
	}
}

func TestWriteFoldedFormat(t *testing.T) {
	c := New(2)
	lc := &LaunchContext{Function: "sin", Method: "l-lut(i)", Stage: "kernel",
		Segs: []Seg{{Tenant: "", N: 5}}, N: 5}
	c.Observe(split(lc, synthProfile()), synthProfile())
	var sb strings.Builder
	if err := c.Snapshot().WriteFolded(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(sb.String()), "\n") {
		parts := strings.Split(line, " ")
		if len(parts) != 2 {
			t.Fatalf("folded line %q: want `stack value`", line)
		}
		if got := strings.Count(parts[0], ";"); got != 4 {
			t.Fatalf("folded stack %q: want 5 levels, got %d", parts[0], got+1)
		}
		if !strings.HasPrefix(parts[0], "-;sin;l-lut(i);kernel;") {
			t.Fatalf("unexpected stack %q", parts[0])
		}
	}
}

// Concurrent Observe from several goroutines (the multi-shard case)
// keeps exact totals — run under -race.
func TestObserveConcurrent(t *testing.T) {
	c := New(2)
	prof := synthProfile()
	wall := launchWall(prof)
	const goroutines, per = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lc := &LaunchContext{Function: "sin", Method: "l-lut", Stage: "kernel",
				Segs: []Seg{{Tenant: "t", N: 3}, {Tenant: "u", N: 5}}, N: 8}
			for i := 0; i < per; i++ {
				c.Observe(split(lc, prof), prof)
			}
		}(g)
	}
	wg.Wait()
	p := c.Snapshot()
	if want := uint64(goroutines*per) * wall; p.TotalWall != want {
		t.Fatalf("concurrent wall total = %d, want %d", p.TotalWall, want)
	}
	if c.launches.Load() != goroutines*per {
		t.Fatalf("launches = %d, want %d", c.launches.Load(), goroutines*per)
	}
}

func TestNilCollectorIsSafe(t *testing.T) {
	var c *Collector
	c.Observe(&LaunchContext{}, nil)
	if p := c.Snapshot(); len(p.Frames) != 0 {
		t.Fatal("nil collector produced frames")
	}
	if h := c.HeatmapSnapshot(); len(h.DPUs) != 0 {
		t.Fatal("nil collector produced heatmap rows")
	}
}
