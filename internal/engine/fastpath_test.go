package engine

import (
	"math"
	"testing"

	"transpimlib/internal/core"
	"transpimlib/internal/fusion"
	"transpimlib/internal/stats"
)

// TestFastPathMatchesReference runs identical request streams through
// a fast-path engine and a Reference engine and demands bit-identical
// outputs and identical modeled cycle accounting — the engine-level
// face of the operator differential tests.
func TestFastPathMatchesReference(t *testing.T) {
	specs := []struct {
		fn  core.Function
		par core.Params
		lo  float64
		hi  float64
	}{
		{core.Sigmoid, core.Params{Method: core.LLUT, Interp: true, SizeLog2: 12}, -7.9, 7.9},
		{core.Sin, core.Params{Method: core.CORDIC}, 0, 2 * math.Pi},
		{core.Exp, core.Params{Method: core.MLUT, Interp: true, SizeLog2: 10}, -10, 10},
		{core.Tanh, core.Params{Method: core.Poly}, -7.9, 7.9},
	}
	cfg := Config{DPUs: 4, Shards: 1, MaxBatch: 256}
	fast, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	refCfg := cfg
	refCfg.Reference = true
	ref, err := New(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	for _, sp := range specs {
		xs := stats.RandomInputs(sp.lo, sp.hi, 300, 11)
		fOut, fSt, err := fast.EvaluateBatch(sp.fn, sp.par, xs)
		if err != nil {
			t.Fatalf("%v/%v fast: %v", sp.fn, sp.par.Method, err)
		}
		rOut, rSt, err := ref.EvaluateBatch(sp.fn, sp.par, xs)
		if err != nil {
			t.Fatalf("%v/%v reference: %v", sp.fn, sp.par.Method, err)
		}
		for i := range xs {
			if math.Float32bits(fOut[i]) != math.Float32bits(rOut[i]) {
				t.Fatalf("%v/%v output %d: fast %v != reference %v (x=%v)",
					sp.fn, sp.par.Method, i, fOut[i], rOut[i], xs[i])
			}
		}
		if fSt.KernelCycles != rSt.KernelCycles {
			t.Fatalf("%v/%v kernel cycles: fast %d != reference %d",
				sp.fn, sp.par.Method, fSt.KernelCycles, rSt.KernelCycles)
		}
	}

	fs, rs := fast.Stats(), ref.Stats()
	if fs.KernelCycles != rs.KernelCycles {
		t.Fatalf("engine-wide kernel cycles: fast %d != reference %d", fs.KernelCycles, rs.KernelCycles)
	}
}

// TestComputeCoreZeroAlloc pins the zero-allocation contract of the
// compute stage: once the engine is warm (tables resident, staging and
// scratch buffers constructed), evaluating a lane's share of a batch
// allocates nothing — through the fast path, and through the
// interpreted lane of a Reference engine.
func TestComputeCoreZeroAlloc(t *testing.T) {
	for _, reference := range []bool{false, true} {
		e, err := New(Config{DPUs: 1, Shards: 1, MaxBatch: 256, Reference: reference})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		fn, par := llutSpec()
		xs := stats.RandomInputs(-7.9, 7.9, 256, 3)
		if _, _, err := e.EvaluateBatch(fn, par, xs); err != nil {
			t.Fatal(err) // warm: tables built, pools primed
		}

		s := e.shards[0]
		ops, hit, _, err := e.specOps(s, makeSpec(fn, par))
		if err != nil {
			t.Fatal(err)
		}
		if !hit {
			t.Fatal("warmup did not build the shard's plan")
		}
		op := ops[0]
		if op.HasFastPath() != !reference {
			t.Fatalf("reference=%v: LLUT operator HasFastPath = %v", reference, op.HasFastPath())
		}

		// The shard is idle (the warmup request completed), so driving
		// its staging buffers directly is safe. A batch without segments
		// evaluates them.
		b := &batch{spec: makeSpec(fn, par), n: 256, perDPU: 256}
		copy(s.inBuf[:256], xs)
		ctx := s.dpus[0].NewCtx()

		if avg := testing.AllocsPerRun(200, func() {
			e.computeLane(ctx, s, b, op, 0, 0, 256, 256)
		}); avg != 0 {
			t.Fatalf("reference=%v: computeLane allocates %.1f objects per batch, want 0", reference, avg)
		}
	}
}

// TestReferenceEngineIsInterpreted pins that a Reference engine decides
// once, when a shard builds its plans: after a batch and a one-Func
// program 2·f(x), no operator in any shard's plans keeps its host
// kernel, while on a default engine every one does except WideRange
// trig's. Under a plan where every launch fails, the Reference engine's
// degraded batch and program, which run on the host, still match a
// clean default engine bit for bit.
func TestReferenceEngineIsInterpreted(t *testing.T) {
	fn, par := llutSpec()
	wide := core.Params{Method: core.LLUT, Interp: true, WideRange: true}
	xs := stats.RandomInputs(-7.9, 7.9, 300, 5)
	type served struct {
		batch, program []float32
		degraded       [2]bool
	}
	serve := func(e *Engine) served {
		t.Helper()
		ys, st, err := e.EvaluateBatch(fn, par, xs)
		if err != nil {
			t.Fatal(err)
		}
		p := fusion.NewProgram("twice")
		p.Return(p.Mul(p.Const(2), p.Func(fn, p.Input())))
		c, err := e.CompileProgram(p, par)
		if err != nil {
			t.Fatal(err)
		}
		ps, pst, err := e.EvaluateProgram(c, [][]float32{xs}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := e.EvaluateBatch(core.Sin, wide, xs); err != nil {
			t.Fatal(err)
		}
		return served{ys, ps, [2]bool{st.Degraded, pst.Degraded}}
	}
	checkPlans := func(label string, e *Engine, reference bool) {
		t.Helper()
		checked := 0
		for _, s := range e.shards {
			for spec, ops := range s.plans {
				want := !reference && !spec.Par.WideRange
				for k, op := range ops {
					if op.HasFastPath() != want {
						t.Errorf("%s: shard %d lane %d %v/%v: HasFastPath = %v, want %v",
							label, s.id, k, spec.Fn, methodLabel(spec.Par), op.HasFastPath(), want)
					}
					checked++
				}
			}
		}
		if checked == 0 {
			t.Fatalf("%s: no plans built", label)
		}
	}

	var runs []served
	for _, c := range []struct {
		label string
		cfg   Config
	}{
		{"default", Config{}},
		{"reference", Config{Reference: true}},
		{"reference, every launch failing", Config{Reference: true, Faults: mustPlan(t, "seed=1,dpufail=1")}},
	} {
		e, err := New(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		r := serve(e)
		checkPlans(c.label, e, c.cfg.Reference)
		if want := c.cfg.Faults != nil; r.degraded != [2]bool{want, want} {
			t.Fatalf("%s: degraded (batch, program) = %v", c.label, r.degraded)
		}
		runs = append(runs, r)
	}
	for _, r := range runs[1:] {
		mustBits(t, "batch vs clean default", r.batch, runs[0].batch)
		mustBits(t, "program 2·f(x) vs clean default", r.program, runs[0].program)
	}
}
