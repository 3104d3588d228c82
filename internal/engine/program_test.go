package engine

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"transpimlib/internal/core"
	"transpimlib/internal/fusion"
	"transpimlib/internal/profiler"
	"transpimlib/internal/stats"
)

// The three fused end-to-end scenarios, rebuilt locally (the workloads
// package sits above the engine, so the differential suite carries its
// own copies of the graphs it certifies).

func progSoftmax() *fusion.Program {
	p := fusion.NewProgram("softmax")
	x := p.Input()
	m := p.ReduceMax(x)
	e := p.Func(core.Exp, p.Sub(x, p.Broadcast(m)))
	s := p.ReduceSum(e)
	p.Return(p.Mul(e, p.Div(p.Const(1), p.Broadcast(s))))
	return p
}

func progFFNGELU() *fusion.Program {
	p := fusion.NewProgram("ffn-gelu")
	h := p.Input()
	bias := p.Input()
	gamma := p.Input()
	p.Return(p.Mul(p.Func(core.GELU, p.Add(h, bias)), gamma))
	return p
}

func progLogisticStep() *fusion.Program {
	p := fusion.NewProgram("logistic-step")
	z := p.Input()
	y := p.Input()
	lr := p.ScalarInput()
	invN := p.ScalarInput()
	g := p.Sub(p.Func(core.Sigmoid, z), y)
	mu := p.Mul(p.Broadcast(p.ReduceSum(g)), invN)
	p.Return(p.Sub(z, p.Mul(p.Sub(g, mu), lr)))
	return p
}

type progCase struct {
	name    string
	build   func() *fusion.Program
	inputs  func(n int) [][]float32
	scalars func(n int) []float32
}

func progCases() []progCase {
	return []progCase{
		{
			name:   "softmax",
			build:  progSoftmax,
			inputs: func(n int) [][]float32 { return [][]float32{stats.RandomInputs(-7.5, 7.5, n, 11)} },
		},
		{
			name:  "ffn-gelu",
			build: progFFNGELU,
			inputs: func(n int) [][]float32 {
				return [][]float32{
					stats.RandomInputs(-4, 4, n, 21),
					stats.RandomInputs(-1, 1, n, 22),
					stats.RandomInputs(0.5, 1.5, n, 23),
				}
			},
		},
		{
			name:  "logistic-step",
			build: progLogisticStep,
			inputs: func(n int) [][]float32 {
				labels := stats.RandomInputs(0, 1, n, 32)
				for i, v := range labels {
					if v < 0.5 {
						labels[i] = 0
					} else {
						labels[i] = 1
					}
				}
				return [][]float32{stats.RandomInputs(-6, 6, n, 31), labels}
			},
			scalars: func(n int) []float32 { return []float32{0.1, float32(1) / float32(n)} },
		},
	}
}

func progParams() core.Params {
	return core.Params{Method: core.LLUT, Interp: true, SizeLog2: 12}
}

func mustBits(t *testing.T, label string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: [%d] = %x (%v), want %x (%v)", label, i,
				math.Float32bits(got[i]), got[i], math.Float32bits(want[i]), want[i])
		}
	}
}

// TestProgramDifferential is the fused-vs-per-op acceptance gate: every
// fused scenario must be bit-identical across (a) the fused on-device
// program, (b) the per-op baseline on the same engine, and (c) the
// fused program on a Reference (interpreted-kernel) engine — while the
// fused path moves strictly fewer host↔PIM bytes than the baseline.
func TestProgramDifferential(t *testing.T) {
	e, err := New(Config{DPUs: 4, Shards: 2, MaxBatch: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ref, err := New(Config{DPUs: 4, Shards: 2, MaxBatch: 4096, Reference: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	const n = 1000
	for _, cs := range progCases() {
		prog, err := e.CompileProgram(cs.build(), progParams())
		if err != nil {
			t.Fatalf("%s: compile: %v", cs.name, err)
		}
		inputs := cs.inputs(n)
		var scalars []float32
		if cs.scalars != nil {
			scalars = cs.scalars(n)
		}

		fused, fst, err := e.EvaluateProgramTenant("diff", prog, inputs, scalars)
		if err != nil {
			t.Fatalf("%s: fused: %v", cs.name, err)
		}
		perOp, pst, err := e.EvaluateProgramPerOp("diff", prog, inputs, scalars)
		if err != nil {
			t.Fatalf("%s: per-op: %v", cs.name, err)
		}
		interp, _, err := ref.EvaluateProgramTenant("diff", prog, inputs, scalars)
		if err != nil {
			t.Fatalf("%s: reference: %v", cs.name, err)
		}

		mustBits(t, cs.name+" fused vs per-op", fused, perOp)
		mustBits(t, cs.name+" fused vs interpreted", fused, interp)

		if fst.FusedBytes >= fst.PerOpBytes {
			t.Fatalf("%s: fused moved %d bytes, per-op %d — fusion saved nothing",
				cs.name, fst.FusedBytes, fst.PerOpBytes)
		}
		if fst.SavedBytes != fst.PerOpBytes-fst.FusedBytes {
			t.Fatalf("%s: SavedBytes %d ≠ %d−%d", cs.name, fst.SavedBytes, fst.PerOpBytes, fst.FusedBytes)
		}
		if fst.SavedTransferCycles == 0 {
			t.Fatalf("%s: saved transfer cycles = 0", cs.name)
		}
		if pst.MovedBytes != fst.PerOpBytes {
			t.Fatalf("%s: baseline MovedBytes %d ≠ model PerOpBytes %d",
				cs.name, pst.MovedBytes, fst.PerOpBytes)
		}
		// Sanity: the fused run produced finite numbers.
		for i, v := range fused {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Fatalf("%s: fused[%d] = %v", cs.name, i, v)
			}
		}
	}
}

// TestProgramSingleFuncCycles pins the fused path to the per-op charge
// convention: a program that is exactly one transcendental node must
// cost the same modeled kernel cycles as EvaluateBatch of that function
// — same DMA staging charges, same streaming signature, same per-
// element kernel cost — and return bit-identical outputs.
func TestProgramSingleFuncCycles(t *testing.T) {
	e, err := New(Config{DPUs: 4, Shards: 1, MaxBatch: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	p := fusion.NewProgram("just-sigmoid")
	p.Return(p.Func(core.Sigmoid, p.Input()))
	prog, err := e.CompileProgram(p, progParams())
	if err != nil {
		t.Fatal(err)
	}

	xs := stats.RandomInputs(-7.5, 7.5, 777, 5)
	fused, fst, err := e.EvaluateProgramTenant("", prog, [][]float32{xs}, nil)
	if err != nil {
		t.Fatal(err)
	}
	plain, bst, err := e.EvaluateBatch(core.Sigmoid, progParams(), xs)
	if err != nil {
		t.Fatal(err)
	}

	mustBits(t, "single-func program vs EvaluateBatch", fused, plain)
	if fst.KernelCycles != bst.KernelCycles {
		t.Fatalf("fused program cycles %d ≠ batch cycles %d — the shared sub-step charge conventions diverged",
			fst.KernelCycles, bst.KernelCycles)
	}
}

// TestProgramBytesReconcile checks the compiler's analytic byte model
// against the engine's metered transfer counters: the Stats.BytesIn/
// BytesOut deltas of one fused evaluation must equal the model's
// directional split exactly, and the per-op baseline's metered total
// must equal PerOpBytes.
func TestProgramBytesReconcile(t *testing.T) {
	for _, cs := range progCases() {
		e, err := New(Config{DPUs: 4, Shards: 1, MaxBatch: 4096})
		if err != nil {
			t.Fatal(err)
		}
		const n = 513 // odd on purpose: exercises rank padding
		prog, err := e.CompileProgram(cs.build(), progParams())
		if err != nil {
			e.Close()
			t.Fatalf("%s: %v", cs.name, err)
		}
		inputs := cs.inputs(n)
		var scalars []float32
		if cs.scalars != nil {
			scalars = cs.scalars(n)
		}
		k := 4 // DPUs/Shards

		before := e.Stats()
		_, fst, err := e.EvaluateProgramTenant("", prog, inputs, scalars)
		if err != nil {
			e.Close()
			t.Fatalf("%s: %v", cs.name, err)
		}
		mid := e.Stats()
		gotIn := int(mid.BytesIn - before.BytesIn)
		gotOut := int(mid.BytesOut - before.BytesOut)
		if gotIn+gotOut != fst.FusedBytes {
			t.Fatalf("%s: metered fused bytes %d+%d ≠ model %d",
				cs.name, gotIn, gotOut, fst.FusedBytes)
		}
		redBytes, bcastBytes := prog.SyncBytes(k)
		wantIn := prog.InBytes(n, k) + bcastBytes
		wantOut := prog.OutBytes(n, k) + redBytes
		if gotIn != wantIn || gotOut != wantOut {
			t.Fatalf("%s: metered (in=%d, out=%d), model (in=%d, out=%d)",
				cs.name, gotIn, gotOut, wantIn, wantOut)
		}

		_, pst, err := e.EvaluateProgramPerOp("", prog, inputs, scalars)
		if err != nil {
			e.Close()
			t.Fatalf("%s: per-op: %v", cs.name, err)
		}
		after := e.Stats()
		perTotal := int(after.BytesIn-mid.BytesIn) + int(after.BytesOut-mid.BytesOut)
		if perTotal != pst.MovedBytes {
			t.Fatalf("%s: metered per-op bytes %d ≠ model %d", cs.name, perTotal, pst.MovedBytes)
		}
		e.Close()
	}
}

// TestProgramLedgerAttribution: fused evaluations must land in the
// ledger under the "fused:<program-name>" method label — their own
// rows, not the overflow bucket.
func TestProgramLedgerAttribution(t *testing.T) {
	e, err := New(Config{DPUs: 4, Shards: 1, MaxBatch: 4096, Ledger: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	prog, err := e.CompileProgram(progSoftmax(), progParams())
	if err != nil {
		t.Fatal(err)
	}
	xs := [][]float32{stats.RandomInputs(-5, 5, 256, 9)}
	if _, _, err := e.EvaluateProgramTenant("tenant-a", prog, xs, nil); err != nil {
		t.Fatal(err)
	}

	snap := e.Ledger()
	found := false
	for _, row := range snap.Rows {
		if row.Method == "fused:softmax" {
			found = true
			if row.Tenant != "tenant-a" {
				t.Fatalf("fused row tenant %q, want tenant-a", row.Tenant)
			}
			if row.Function != "program" {
				t.Fatalf("fused row function %q, want program", row.Function)
			}
			if row.KernelCycles == 0 {
				t.Fatal("fused ledger row charged zero cycles")
			}
		}
		if strings.Contains(row.Method, "overflow") {
			t.Fatalf("fused evaluation collapsed into overflow bucket: %+v", row.LedgerKey)
		}
	}
	if !found {
		t.Fatalf("no fused:softmax ledger row; rows: %+v", snap.Rows)
	}
}

// TestProgramObservedAllocs: the ledger and the profiler add no
// allocations to a warm fused-program request. The program's method
// label is built once at Compile, and each launch's per-lane records
// come from the simulator into the shard's persistent slice.
func TestProgramObservedAllocs(t *testing.T) {
	xs := [][]float32{stats.RandomInputs(-5, 5, 256, 9)}
	perRequest := func(observed bool) float64 {
		e, err := New(Config{DPUs: 4, Shards: 1, MaxBatch: 1024,
			Ledger: observed, Profiler: profiler.Config{Enabled: observed}})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		prog, err := e.CompileProgram(progSoftmax(), progParams())
		if err != nil {
			t.Fatal(err)
		}
		eval := func() {
			if _, _, err := e.EvaluateProgram(prog, xs, nil); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 20; i++ {
			eval() // warm: tables, plans and frames in place
		}
		return testing.AllocsPerRun(200, eval)
	}
	off, on := perRequest(false), perRequest(true)
	t.Logf("allocs per softmax request: ledger and profiler off %.0f, on %.0f", off, on)
	if on > off {
		t.Fatalf("ledger and profiler add %.0f allocs per program request (off %.0f, on %.0f)", on-off, off, on)
	}
}

// TestProgramPlanCache: the second evaluation of the same program
// must reuse the cached execution plan — zero setup seconds and a plan
// hit, mirroring the batch-plan contract — and so must an evaluation at
// another batch size, which Bind resizes the plan for.
func TestProgramPlanCache(t *testing.T) {
	e, err := New(Config{DPUs: 4, Shards: 1, MaxBatch: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	prog, err := e.CompileProgram(progFFNGELU(), progParams())
	if err != nil {
		t.Fatal(err)
	}
	mkN := func(n int) [][]float32 {
		return [][]float32{
			stats.RandomInputs(-4, 4, n, 41),
			stats.RandomInputs(-1, 1, n, 42),
			stats.RandomInputs(0.5, 1.5, n, 43),
		}
	}
	mk := func() [][]float32 { return mkN(300) }
	out1, _, err := e.EvaluateProgramTenant("", prog, mk(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if m := e.Stats().PlanMisses; m != 1 {
		t.Fatalf("first evaluation counted %d plan misses, want 1", m)
	}
	hits0 := e.Stats().PlanHits
	out2, st2, err := e.EvaluateProgramTenant("", prog, mk(), nil)
	if err != nil {
		t.Fatal(err)
	}
	mustBits(t, "plan-cache rerun", out2, out1)
	if st2.SetupSeconds != 0 {
		t.Fatalf("warm program evaluation charged setup: %g s", st2.SetupSeconds)
	}
	if e.Stats().PlanHits <= hits0 {
		t.Fatal("second evaluation did not hit the program plan cache")
	}
	hits1 := e.Stats().PlanHits
	outBig, _, err := e.EvaluateProgramTenant("", prog, mkN(1000), nil)
	if err != nil {
		t.Fatal(err)
	}
	if e.Stats().PlanHits <= hits1 {
		t.Fatal("a larger batch did not hit the program plan cache")
	}
	if m := e.Stats().PlanMisses; m != 1 {
		t.Fatalf("warm evaluations built program plans: %d plan misses, want 1", m)
	}
	wantBig, _, err := e.EvaluateProgramPerOp("", prog, mkN(1000), nil)
	if err != nil {
		t.Fatal(err)
	}
	mustBits(t, "resized plan", outBig, wantBig)
}

// TestProgramDegrade proves the recovery ladder's last rung for fused
// programs: under a fault plan that exhausts retries, the program
// completes on the bit-exact host mirror, flagged Degraded, with
// outputs identical to a fault-free fused run.
func TestProgramDegrade(t *testing.T) {
	clean, err := New(Config{DPUs: 2, Shards: 1, MaxBatch: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	faulty, err := New(Config{
		DPUs: 2, Shards: 1, MaxBatch: 4096,
		Faults: mustPlan(t, "seed=9,dpufail=1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer faulty.Close()

	for _, cs := range progCases() {
		pc, err := clean.CompileProgram(cs.build(), progParams())
		if err != nil {
			t.Fatalf("%s: %v", cs.name, err)
		}
		pf, err := faulty.CompileProgram(cs.build(), progParams())
		if err != nil {
			t.Fatalf("%s: %v", cs.name, err)
		}
		const n = 400
		inputs := cs.inputs(n)
		var scalars []float32
		if cs.scalars != nil {
			scalars = cs.scalars(n)
		}
		want, _, err := clean.EvaluateProgramTenant("", pc, inputs, scalars)
		if err != nil {
			t.Fatalf("%s: clean: %v", cs.name, err)
		}
		got, st, err := faulty.EvaluateProgramTenant("", pf, inputs, scalars)
		if err != nil {
			t.Fatalf("%s: faulted: %v", cs.name, err)
		}
		mustBits(t, cs.name+" degraded vs clean", got, want)
		if !st.Degraded {
			t.Fatalf("%s: permanent dpufail plan did not degrade the program", cs.name)
		}
	}
	if faulty.Stats().DegradedBatches == 0 {
		t.Fatal("faulty engine recorded no degraded batches")
	}
}

// TestProgramValidation covers the builder/compiler error surface and
// the batch ceiling.
func TestProgramValidation(t *testing.T) {
	e, err := New(Config{DPUs: 2, Shards: 1, MaxBatch: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// No Return.
	p := fusion.NewProgram("no-return")
	p.Func(core.Exp, p.Input())
	if _, err := e.CompileProgram(p, progParams()); err == nil {
		t.Fatal("compiled a program without Return")
	}

	// Nothing on the device.
	q := fusion.NewProgram("host-only")
	q.Input()
	q.Return(q.Add(q.Const(1), q.Const(2)))
	if _, err := e.CompileProgram(q, progParams()); err == nil {
		t.Fatal("compiled a program with no device work")
	}

	// Batch ceiling.
	r := fusion.NewProgram("big")
	r.Return(r.Func(core.Exp, r.Input()))
	prog, err := e.CompileProgram(r, progParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.EvaluateProgramTenant("", prog, [][]float32{make([]float32, 65)}, nil); err == nil {
		t.Fatal("accepted a program batch above MaxBatch")
	}

	// Arity mismatch.
	if _, _, err := e.EvaluateProgramTenant("", prog, nil, nil); err == nil {
		t.Fatal("accepted a program evaluation with no inputs")
	}
}

// TestProgramEveryShape: every single-step program returns the same
// bits on a fast engine, on a Reference engine and through the per-op
// baseline, and charges each request the same kernel cycles fast and
// reference. The programs are each element-wise op with two vector
// operands, a vector and a runtime scalar, and a scalar and a vector,
// plus both reductions; the scalar is 0.5 or one of two distinct NaNs.
// The inputs pair every edge value with every other, so the same
// element of x and y holds two distinct NaNs, where only FirstNaN
// makes the fast kernels and the interpreted path agree.
func TestProgramEveryShape(t *testing.T) {
	grid := []float32{0, float32(math.Copysign(0, -1)), 1, -1,
		float32(math.Inf(1)), float32(math.Inf(-1)), math.MaxFloat32, -math.MaxFloat32,
		math.Float32frombits(0x00000001),
		math.Float32frombits(0x7fc00000), math.Float32frombits(0xffc00000), math.Float32frombits(0x7fc00001),
		math.Float32frombits(0x7f800001), math.Float32frombits(0xffa00000)}
	g := len(grid)
	n := g*g + 3 // every pair, and a lane split that pads
	x := make([]float32, n)
	y := make([]float32, n)
	for i := range x {
		k := i % (g * g)
		x[i], y[i] = grid[k%g], grid[k/g]
	}
	scalars := []float32{0.5, math.Float32frombits(0xffc00000), math.Float32frombits(0x7fc00001)}

	type step func(p *fusion.Program, x, y, s fusion.Value) fusion.Value
	var names []string
	var steps []step
	elems := []func(p *fusion.Program, a, b fusion.Value) fusion.Value{
		(*fusion.Program).Add, (*fusion.Program).Sub, (*fusion.Program).Mul,
		(*fusion.Program).Div, (*fusion.Program).Max,
	}
	for op, elem := range elems {
		elem := elem
		name := core.ElemOp(op).String()
		names = append(names, name+"/vector-vector", name+"/vector-scalar", name+"/scalar-vector")
		steps = append(steps,
			func(p *fusion.Program, x, y, s fusion.Value) fusion.Value { return elem(p, x, y) },
			func(p *fusion.Program, x, y, s fusion.Value) fusion.Value { return elem(p, x, s) },
			func(p *fusion.Program, x, y, s fusion.Value) fusion.Value { return elem(p, s, x) })
	}
	names = append(names, "reduce-sum", "reduce-max")
	steps = append(steps,
		func(p *fusion.Program, x, y, s fusion.Value) fusion.Value { return p.ReduceSum(x) },
		func(p *fusion.Program, x, y, s fusion.Value) fusion.Value { return p.ReduceMax(x) })

	cfg := Config{DPUs: 4, Shards: 1, MaxBatch: 4096}
	fast, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	cfg.Reference = true
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	firstDiff := func(a, b []float32) int {
		if len(a) != len(b) {
			return 0
		}
		for i := range a {
			if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
				return i
			}
		}
		return -1
	}
	for k, build := range steps {
		p := fusion.NewProgram(names[k])
		xv, yv, sv := p.Input(), p.Input(), p.ScalarInput()
		p.Return(build(p, xv, yv, sv))
		prog, err := fast.CompileProgram(p, progParams())
		if err != nil {
			t.Fatalf("%s: compile: %v", names[k], err)
		}
		for _, s := range scalars {
			label := fmt.Sprintf("%s, scalar %#x", names[k], math.Float32bits(s))
			in, sc := [][]float32{x, y}, []float32{s}
			fused, fst, err := fast.EvaluateProgram(prog, in, sc)
			if err != nil {
				t.Fatalf("%s: fast: %v", label, err)
			}
			interp, rst, err := ref.EvaluateProgram(prog, in, sc)
			if err != nil {
				t.Fatalf("%s: reference: %v", label, err)
			}
			perOp, _, err := fast.EvaluateProgramPerOp("", prog, in, sc)
			if err != nil {
				t.Fatalf("%s: per-op: %v", label, err)
			}
			if i := firstDiff(fused, interp); i >= 0 {
				t.Errorf("%s: fast [%d] = %#x, reference %#x", label, i, math.Float32bits(fused[i]), math.Float32bits(interp[i]))
			}
			if i := firstDiff(fused, perOp); i >= 0 {
				t.Errorf("%s: fast [%d] = %#x, per-op %#x", label, i, math.Float32bits(fused[i]), math.Float32bits(perOp[i]))
			}
			sameKernelCycles(t, []RequestStats{fst.RequestStats}, []RequestStats{rst.RequestStats})
		}
	}
}
