package pimsim

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"transpimlib/internal/fixed"
)

func TestMemAllocAlignment(t *testing.T) {
	m := NewMem("test", 1024, 8)
	a, err := m.Alloc(3)
	if err != nil || a != 0 {
		t.Fatalf("first alloc = %d, %v", a, err)
	}
	b, err := m.Alloc(8)
	if err != nil || b != 8 {
		t.Fatalf("second alloc = %d, %v; want 8 (aligned)", b, err)
	}
}

func TestMemAllocExhaustion(t *testing.T) {
	m := NewMem("test", 64, 8)
	if _, err := m.Alloc(65); err == nil {
		t.Fatal("allocating past capacity should fail")
	}
	if _, err := m.Alloc(64); err != nil {
		t.Fatalf("allocating exactly capacity should succeed: %v", err)
	}
	if _, err := m.Alloc(1); err == nil {
		t.Fatal("memory should be exhausted")
	}
	if m.Free() != 0 {
		t.Fatalf("Free = %d, want 0", m.Free())
	}
}

func TestMemReset(t *testing.T) {
	m := NewMem("test", 64, 4)
	m.MustAlloc(32)
	m.PutUint32(0, 0xdeadbeef)
	m.Reset()
	if m.Used() != 0 {
		t.Fatalf("Used after Reset = %d", m.Used())
	}
	if m.Uint32(0) != 0 {
		t.Fatal("Reset should zero contents")
	}
}

func TestMemRoundTrips(t *testing.T) {
	m := NewMem("test", 4096, 4)
	m.PutFloat32(0, 3.25)
	if got := m.Float32(0); got != 3.25 {
		t.Errorf("Float32 round trip: %v", got)
	}
	m.PutInt32(8, -42)
	if got := m.Int32(8); got != -42 {
		t.Errorf("Int32 round trip: %v", got)
	}
	m.PutInt64(16, -1<<40)
	if got := m.Int64(16); got != -1<<40 {
		t.Errorf("Int64 round trip: %v", got)
	}
	vs := []float32{1, 2, 3, -4.5}
	m.WriteF32s(64, vs)
	out := make([]float32, 4)
	m.ReadF32s(64, out)
	for i := range vs {
		if out[i] != vs[i] {
			t.Errorf("bulk float32 round trip at %d: %v != %v", i, out[i], vs[i])
		}
	}
	is := []int32{7, -8, 9}
	m.WriteInt32s(128, is)
	iout := make([]int32, 3)
	m.ReadInt32s(128, iout)
	for i := range is {
		if iout[i] != is[i] {
			t.Errorf("bulk int32 round trip at %d", i)
		}
	}
}

func TestMemOutOfBoundsPanics(t *testing.T) {
	m := NewMem("test", 16, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("access beyond capacity should panic")
		}
	}()
	m.PutUint32(20, 1)
}

func TestMemLazyGrowth(t *testing.T) {
	m := NewMem("test", DefaultMRAMSize, 8)
	if len(m.data) != 0 {
		t.Fatal("backing store should start empty")
	}
	m.PutUint32(0, 1)
	if len(m.data) >= DefaultMRAMSize {
		t.Fatal("backing store should grow lazily, not reserve full capacity")
	}
}

func TestDPUCyclesFullPipeline(t *testing.T) {
	d := NewDPU(0, Default(), 16)
	ctx := d.NewCtx()
	ctx.IAdd(1, 2)
	ctx.IAdd(3, 4)
	if got := d.Cycles(); got != 2 {
		t.Fatalf("2 native adds at 16 tasklets = %d cycles, want 2", got)
	}
}

func TestDPUCyclesUnderfilledPipeline(t *testing.T) {
	d := NewDPU(0, Default(), 1)
	ctx := d.NewCtx()
	ctx.IAdd(1, 2)
	if got := d.Cycles(); got != PipelineDepth {
		t.Fatalf("1 add at 1 tasklet = %d cycles, want %d", got, PipelineDepth)
	}
}

func TestDPUFloatCosts(t *testing.T) {
	cm := Default()
	d := NewDPU(0, cm, 16)
	ctx := d.NewCtx()
	if got := ctx.FMul(2, 3); got != 6 {
		t.Fatalf("FMul result %v", got)
	}
	if got := d.Cycles(); got != uint64(cm.FMul) {
		t.Fatalf("FMul cycles = %d, want %d", got, cm.FMul)
	}
	d.ResetCycles()
	ctx.FDiv(1, 3)
	if got := d.Cycles(); got != uint64(cm.FDiv) {
		t.Fatalf("FDiv cycles = %d, want %d", got, cm.FDiv)
	}
}

func TestCostOrdering(t *testing.T) {
	// The cost relationships that drive the paper's conclusions.
	cm := Default()
	if !(cm.IALU < cm.IMul) {
		t.Error("integer multiply must be costlier than add")
	}
	if !(cm.FAdd < cm.FMul) {
		t.Error("float multiply must be costlier than float add")
	}
	if !(cm.FMul < cm.FDiv) {
		t.Error("float divide must be costlier than float multiply")
	}
	if !(cm.I64Mul < cm.FMul) {
		t.Error("fixed-point multiply must be cheaper than float multiply")
	}
	if !(cm.Ldexp < cm.FMul/2) {
		t.Error("ldexp must be far cheaper than float multiply")
	}
}

func TestMRAMOverlappedWithCompute(t *testing.T) {
	// With plenty of issue work, DMA latency must hide (observation 4:
	// MRAM-resident LUTs perform like WRAM-resident ones).
	d := NewDPU(0, Default(), 16)
	ctx := d.NewCtx()
	d.MRAM.MustAlloc(64)
	d.MRAM.PutFloat32(0, 1.5)
	for i := 0; i < 100; i++ {
		ctx.FMul(1.0001, 1.0001) // 9300 issue cycles
		ctx.MramLoadF32(0)       // 200 issue + 6800 dma cycles
	}
	cm := Default()
	wantIssue := uint64(100 * (cm.FMul + cm.MRAMIssue))
	if d.Cycles() != wantIssue {
		t.Fatalf("cycles = %d, want issue-bound %d (dma=%d)", d.Cycles(), wantIssue, d.DMACycles())
	}
}

func TestMRAMBoundWhenNoCompute(t *testing.T) {
	d := NewDPU(0, Default(), 16)
	ctx := d.NewCtx()
	d.MRAM.MustAlloc(64)
	for i := 0; i < 10; i++ {
		ctx.MramLoadF32(0)
	}
	if d.Cycles() != d.DMACycles() {
		t.Fatalf("pure-DMA kernel should be DMA-bound: cycles=%d dma=%d", d.Cycles(), d.DMACycles())
	}
}

func TestCtxFixedOps(t *testing.T) {
	d := NewDPU(0, Default(), 16)
	ctx := d.NewCtx()
	a := fixed.FromFloat64(1.5)
	b := fixed.FromFloat64(2.0)
	if got := ctx.QMul(a, b).Float64(); got != 3.0 {
		t.Fatalf("QMul = %v", got)
	}
	if got := ctx.QAdd(a, b).Float64(); got != 3.5 {
		t.Fatalf("QAdd = %v", got)
	}
	cm := Default()
	want := uint64(cm.I64Mul + cm.IALU)
	if d.Cycles() != want {
		t.Fatalf("fixed op cycles = %d, want %d", d.Cycles(), want)
	}
}

func TestCtxConversions(t *testing.T) {
	d := NewDPU(0, Default(), 16)
	ctx := d.NewCtx()
	if got := ctx.FToIRound(2.5); got != 2 {
		t.Errorf("round-to-even(2.5) = %d, want 2", got)
	}
	if got := ctx.FToIRound(3.5); got != 4 {
		t.Errorf("round-to-even(3.5) = %d, want 4", got)
	}
	if got := ctx.FToIRound(-2.5); got != -2 {
		t.Errorf("round-to-even(-2.5) = %d, want -2", got)
	}
	if got := ctx.FToIFloor(-1.25); got != -2 {
		t.Errorf("floor(-1.25) = %d, want -2", got)
	}
	if got := ctx.FToIFloor(1.75); got != 1 {
		t.Errorf("floor(1.75) = %d, want 1", got)
	}
	if got := ctx.FToITrunc(-1.75); got != -1 {
		t.Errorf("trunc(-1.75) = %d, want -1", got)
	}
	if got := ctx.IToF(-7); got != -7.0 {
		t.Errorf("IToF(-7) = %v", got)
	}
}

func TestPropFToIFloorMatchesMathFloor(t *testing.T) {
	d := NewDPU(0, Default(), 16)
	ctx := d.NewCtx()
	f := func(x float32) bool {
		if x != x || x > 1e9 || x < -1e9 {
			return true
		}
		return ctx.FToIFloor(x) == int32(math.Floor(float64(x)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestCtxLdexp(t *testing.T) {
	d := NewDPU(0, Default(), 16)
	ctx := d.NewCtx()
	if got := ctx.Ldexp(1.5, 4); got != 24 {
		t.Fatalf("Ldexp(1.5,4) = %v", got)
	}
	if fr, e := ctx.Frexp(24); fr != 0.75 || e != 5 {
		t.Fatalf("Frexp(24) = %v, %d", fr, e)
	}
}

func TestCtxWRAMAccess(t *testing.T) {
	d := NewDPU(0, Default(), 16)
	ctx := d.NewCtx()
	addr := d.WRAM.MustAlloc(8)
	ctx.WramStoreF32(addr, 9.5)
	if got := ctx.WramLoadF32(addr); got != 9.5 {
		t.Fatalf("WRAM round trip = %v", got)
	}
	ctx.WramStoreI32(addr+4, -3)
	if got := ctx.WramLoadI32(addr + 4); got != -3 {
		t.Fatalf("WRAM int round trip = %v", got)
	}
}

func TestCtxBulkDMA(t *testing.T) {
	d := NewDPU(0, Default(), 16)
	ctx := d.NewCtx()
	maddr := d.MRAM.MustAlloc(16)
	waddr := d.WRAM.MustAlloc(16)
	d.MRAM.WriteF32s(maddr, []float32{1, 2, 3, 4})
	ctx.MramRead(maddr, waddr, 16)
	if got := d.WRAM.Float32(waddr + 8); got != 3 {
		t.Fatalf("bulk read landed wrong: %v", got)
	}
	d.WRAM.PutFloat32(waddr, 42)
	ctx.MramWrite(waddr, maddr, 16)
	if got := d.MRAM.Float32(maddr); got != 42 {
		t.Fatalf("bulk write landed wrong: %v", got)
	}
}

func TestCountersTrackClasses(t *testing.T) {
	d := NewDPU(0, Default(), 16)
	ctx := d.NewCtx()
	ctx.FMul(1, 2)
	ctx.FMul(1, 2)
	ctx.FAdd(1, 2)
	ctx.IAdd(1, 2)
	c := d.Counters()
	if c.Ops[OpFMul] != 2 || c.Ops[OpFAdd] != 1 || c.Ops[OpIALU] != 1 {
		t.Fatalf("counter ops wrong: %+v", c.Ops)
	}
	if c.TotalOps() != 4 {
		t.Fatalf("TotalOps = %d", c.TotalOps())
	}
	if c.TotalCycles() != d.IssueCycles() {
		t.Fatalf("TotalCycles %d != issue %d", c.TotalCycles(), d.IssueCycles())
	}
}

func TestCountersAdd(t *testing.T) {
	var a, b Counters
	a.Ops[OpFMul] = 2
	a.Cycles[OpFMul] = 186
	b.Ops[OpFMul] = 3
	b.Cycles[OpFMul] = 279
	a.Add(&b)
	if a.Ops[OpFMul] != 5 || a.Cycles[OpFMul] != 465 {
		t.Fatalf("Add merged wrong: %+v", a)
	}
}

func TestOpClassString(t *testing.T) {
	if OpFMul.String() != "fmul" || OpMRAM.String() != "mram" {
		t.Error("OpClass names wrong")
	}
	if OpClass(99).String() != "op?" {
		t.Error("out-of-range OpClass should be op?")
	}
}

func TestSystemDefaults(t *testing.T) {
	s := NewSystem(Config{})
	cfg := s.Config()
	if cfg.DPUs != 1 || cfg.Tasklets != DefaultTasklets || cfg.ClockHz != DefaultClockHz {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if s.NumDPUs() != 1 {
		t.Fatal("NumDPUs != 1")
	}
}

func TestSystemLaunchAllDPUs(t *testing.T) {
	s := NewSystem(Config{DPUs: 8})
	err := s.Launch(func(ctx *Ctx, id int) error {
		for i := 0; i <= id; i++ {
			ctx.IAdd(1, 1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if got := s.DPU(i).Cycles(); got != uint64(i+1) {
			t.Errorf("dpu %d cycles = %d, want %d", i, got, i+1)
		}
	}
	if s.KernelCycles() != 8 {
		t.Fatalf("KernelCycles = %d, want 8 (slowest core)", s.KernelCycles())
	}
}

func TestSystemLaunchError(t *testing.T) {
	s := NewSystem(Config{DPUs: 4})
	sentinel := errors.New("boom")
	err := s.Launch(func(ctx *Ctx, id int) error {
		if id == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("Launch error = %v, want wrapped sentinel", err)
	}
}

func TestBroadcastToMRAM(t *testing.T) {
	s := NewSystem(Config{DPUs: 4})
	addr := s.BroadcastToMRAM([]byte{1, 2, 3, 4})
	for i := 0; i < 4; i++ {
		var buf [4]byte
		s.DPU(i).MRAM.Read(addr, buf[:])
		if buf != [4]byte{1, 2, 3, 4} {
			t.Errorf("dpu %d broadcast content wrong: %v", i, buf)
		}
	}
	if s.HostToPIMSeconds() <= 0 {
		t.Error("broadcast should charge transfer time")
	}
}

func TestScatterGatherRoundTrip(t *testing.T) {
	s := NewSystem(Config{DPUs: 3})
	bufs := [][]byte{{1, 1}, {2, 2}, {3, 3}}
	addrs := s.ScatterToMRAM(bufs)
	out := s.GatherFromMRAMAt(addrs, []int{2, 2, 2})
	for i := range bufs {
		if out[i][0] != bufs[i][0] || out[i][1] != bufs[i][1] {
			t.Errorf("dpu %d gather = %v", i, out[i])
		}
	}
	if s.PIMToHostSeconds() <= 0 || s.HostToPIMSeconds() <= 0 {
		t.Error("transfers should charge time both ways")
	}
}

func TestScatterSerialSlowerThanParallel(t *testing.T) {
	mk := func(sizes []int) float64 {
		s := NewSystem(Config{DPUs: len(sizes)})
		bufs := make([][]byte, len(sizes))
		for i, n := range sizes {
			bufs[i] = make([]byte, n)
		}
		s.ScatterToMRAM(bufs)
		return s.HostToPIMSeconds()
	}
	parallel := mk([]int{1024, 1024, 1024, 1024})
	serial := mk([]int{1024, 1024, 1024, 1023}) // unequal → serial
	if serial <= parallel {
		t.Fatalf("unequal-size transfer (%.3g s) should be slower than parallel (%.3g s)", serial, parallel)
	}
}

func TestGatherFromMRAM(t *testing.T) {
	s := NewSystem(Config{DPUs: 2})
	addr := s.BroadcastToMRAM([]byte{9, 8, 7, 6})
	out := s.GatherFromMRAM(addr, 4)
	if len(out) != 2 || out[1][0] != 9 {
		t.Fatalf("gather wrong: %v", out)
	}
}

func TestResetCycles(t *testing.T) {
	s := NewSystem(Config{DPUs: 2})
	_ = s.Launch(func(ctx *Ctx, id int) error { ctx.FMul(1, 1); return nil })
	s.BroadcastToMRAM(make([]byte, 8))
	s.ResetCycles()
	if s.KernelCycles() != 0 || s.TransferSeconds() != 0 {
		t.Fatal("ResetCycles should zero all accounting")
	}
}

func TestKernelSeconds(t *testing.T) {
	s := NewSystem(Config{DPUs: 1, ClockHz: 1e6})
	_ = s.Launch(func(ctx *Ctx, id int) error {
		for i := 0; i < 1000; i++ {
			ctx.IAdd(1, 1)
		}
		return nil
	})
	if got := s.KernelSeconds(); math.Abs(got-1e-3) > 1e-12 {
		t.Fatalf("KernelSeconds = %v, want 1e-3", got)
	}
}
