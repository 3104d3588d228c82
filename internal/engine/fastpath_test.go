package engine

import (
	"math"
	"testing"

	"transpimlib/internal/core"
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
// interpreted lane of a Reference engine, which also stages its chunk
// through its MRAM buffers.
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
		if !op.HasFastPath() {
			t.Fatal("LLUT operator has no batch fast path")
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
