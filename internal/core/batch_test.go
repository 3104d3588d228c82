package core

import (
	"fmt"
	"math"
	"testing"

	"transpimlib/internal/pimsim"
	"transpimlib/internal/stats"
)

// diffInputs samples the function's domain plus the boundary and sign
// specials the branch classifiers have to get right, and the inputs
// that drive the conversions into their clamp and saturation paths:
// NaN, ±Inf, ±MaxFloat32, ±3e9 (past the int32 range), subnormals and
// magnitudes at and past Q3.28's ±8.
func diffInputs(fn Function) []float32 {
	lo, hi := fn.Domain()
	xs := stats.RandomInputs(lo, hi, 240, 7)
	xs = append(xs,
		float32(lo), float32(hi),
		0, float32(math.Copysign(0, -1)),
		0.5, -0.5, 1, -1,
		float32(math.NaN()),
	)
	for _, x := range []float32{float32(math.Inf(1)), math.MaxFloat32, 3e9, 1e-45, 1e-40, 100, 8} {
		xs = append(xs, x, -x)
	}
	return xs
}

// TestEvalBatchDifferential is the fast path's correctness contract:
// for every supported (function, method, interp, placement) combination
// EvalBatch must be bit-identical in outputs AND exact in issue cycles,
// DMA cycles, and per-class operation counters versus the per-element
// interpreted path.
func TestEvalBatchDifferential(t *testing.T) {
	placements := []pimsim.Placement{pimsim.InWRAM, pimsim.InMRAM}
	for _, fn := range Functions() {
		xs := diffInputs(fn)
		for _, m := range Methods() {
			if !m.Supports(fn) {
				continue
			}
			for _, interp := range []bool{false, true} {
				if interp && !m.SupportsInterp() {
					continue
				}
				for _, place := range placements {
					p := Params{Method: m, Interp: interp, Placement: place}
					t.Run(fmt.Sprintf("%v/%s", fn, p.Label()), func(t *testing.T) {
						dpuF := newDPU()
						opF, err := Build(fn, p, dpuF)
						if err != nil {
							t.Fatalf("build: %v", err)
						}
						if !opF.HasFastPath() {
							t.Fatal("no fast path for a non-wide-range operator")
						}
						dpuR := newDPU()
						opR, err := Build(fn, p, dpuR)
						if err != nil {
							t.Fatalf("build ref: %v", err)
						}
						opR.DisableFastPath()

						dpuF.ResetCycles()
						dpuR.ResetCycles()
						ysF := make([]float32, len(xs))
						ysR := make([]float32, len(xs))
						opF.EvalBatch(dpuF.NewCtx(), xs, ysF)
						opR.EvalBatch(dpuR.NewCtx(), xs, ysR)

						for i := range xs {
							if math.Float32bits(ysF[i]) != math.Float32bits(ysR[i]) {
								t.Fatalf("x=%v: fast %v (%#x) != ref %v (%#x)",
									xs[i], ysF[i], math.Float32bits(ysF[i]),
									ysR[i], math.Float32bits(ysR[i]))
							}
						}
						if got, want := dpuF.IssueCycles(), dpuR.IssueCycles(); got != want {
							t.Errorf("issue cycles: fast %d != ref %d", got, want)
						}
						if got, want := dpuF.DMACycles(), dpuR.DMACycles(); got != want {
							t.Errorf("dma cycles: fast %d != ref %d", got, want)
						}
						if got, want := dpuF.Counters(), dpuR.Counters(); got != want {
							t.Errorf("counters diverge:\nfast %+v\nref  %+v", got, want)
						}
					})
				}
			}
		}
	}
}

// TestEvalBatchWideRangeFallback pins the escape hatch: wide-range trig
// keeps the interpreted path (its guard correction is data-dependent
// beyond the quadrant classes) and EvalBatch must still match Eval.
func TestEvalBatchWideRangeFallback(t *testing.T) {
	dpu := newDPU()
	op, err := Build(Sin, Params{Method: CORDIC, WideRange: true}, dpu)
	if err != nil {
		t.Fatal(err)
	}
	if op.HasFastPath() {
		t.Fatal("wide-range sin must not claim a fast path")
	}
	xs := []float32{-100, -1, 0, 1, 7, 1000}
	ys := make([]float32, len(xs))
	op.EvalBatch(dpu.NewCtx(), xs, ys)
	ref := newDPU()
	opR, err := Build(Sin, Params{Method: CORDIC, WideRange: true}, ref)
	if err != nil {
		t.Fatal(err)
	}
	ctx := ref.NewCtx()
	for i, x := range xs {
		if want := opR.Eval(ctx, x); math.Float32bits(ys[i]) != math.Float32bits(want) {
			t.Fatalf("x=%v: batch %v != eval %v", x, ys[i], want)
		}
	}
}
