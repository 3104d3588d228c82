package core

import (
	"math"
	"slices"
	"strings"
	"testing"

	"transpimlib/internal/pimsim"
	"transpimlib/internal/stats"
)

func newDPU() *pimsim.DPU { return pimsim.NewDPU(0, pimsim.Default(), pimsim.DefaultTasklets) }

func domainInputs(fn Function, n int) []float32 {
	lo, hi := fn.Domain()
	return stats.RandomInputs(lo, hi, n, 99)
}

func TestFunctionNamesRoundTrip(t *testing.T) {
	for _, f := range Functions() {
		got, err := ParseFunction(f.String())
		if err != nil || got != f {
			t.Errorf("ParseFunction(%q) = %v, %v", f.String(), got, err)
		}
	}
	if _, err := ParseFunction("nope"); err == nil {
		t.Error("unknown function must fail to parse")
	}
}

func TestMethodNamesRoundTrip(t *testing.T) {
	for _, m := range Methods() {
		got, err := ParseMethod(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMethod(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMethod("nope"); err == nil {
		t.Error("unknown method must fail to parse")
	}
}

func TestGELURef(t *testing.T) {
	// GELU(0)=0, GELU(x)→x for large x, GELU(x)→0 for very negative x.
	if geluRef(0) != 0 {
		t.Error("GELU(0) != 0")
	}
	if math.Abs(geluRef(6)-6) > 1e-6 {
		t.Errorf("GELU(6) = %v", geluRef(6))
	}
	if math.Abs(geluRef(-6)) > 1e-6 {
		t.Errorf("GELU(-6) = %v", geluRef(-6))
	}
	// Known value: GELU(1) = 0.5·(1+erf(1/√2)) ≈ 0.841345.
	if math.Abs(geluRef(1)-0.8413447) > 1e-6 {
		t.Errorf("GELU(1) = %v", geluRef(1))
	}
}

func TestSupportMatrixTable2(t *testing.T) {
	// Structural facts of our Table 2 reconstruction.
	if CORDIC.Supports(GELU) {
		t.Error("CORDIC has no route to GELU")
	}
	if !CORDIC.Supports(Sqrt) || !CORDIC.Supports(Log) {
		t.Error("CORDIC must support log and sqrt via vectoring")
	}
	if !CORDICLUT.Supports(Sin) || CORDICLUT.Supports(Exp) {
		t.Error("CORDIC+LUT covers the circular family only")
	}
	for _, f := range Functions() {
		if !MLUT.Supports(f) || !LLUT.Supports(f) || !LLUTFixed.Supports(f) || !Poly.Supports(f) {
			t.Errorf("M-LUT/L-LUT/fixed/poly must support %v", f)
		}
	}
	if DLUT.Supports(Sin) || !DLUT.Supports(Tanh) || !DLLUT.Supports(GELU) {
		t.Error("D-LUT family targets tanh and GELU")
	}
	s := SupportMatrix()
	if !strings.Contains(s, "gelu") || !strings.Contains(s, "d-lut") {
		t.Error("SupportMatrix output incomplete")
	}
	if lines := strings.Count(s, "\n"); lines != int(numMethods)+1 {
		t.Errorf("SupportMatrix has %d lines, want %d", lines, numMethods+1)
	}
	header := strings.Fields(strings.SplitN(s, "\n", 2)[0])
	want := []string{"method"}
	for _, f := range Functions() {
		want = append(want, f.String())
	}
	if !slices.Equal(header, want) {
		t.Errorf("SupportMatrix header fields = %q, want %q", header, want)
	}
}

func TestBuildRejectsUnsupported(t *testing.T) {
	if _, err := Build(GELU, Params{Method: CORDIC}, newDPU()); err == nil {
		t.Fatal("building CORDIC GELU must fail")
	}
	if _, err := Build(Exp, Params{Method: DLUT}, newDPU()); err == nil {
		t.Fatal("building D-LUT exp must fail")
	}
}

// TestBuildFailureRollsBack: a build that fails on a later table gives
// back the memory its earlier tables took, so WRAM.Used and MRAM.Used
// are unchanged after each failed build.
func TestBuildFailureRollsBack(t *testing.T) {
	for _, c := range []struct {
		name    string
		fn      Function
		p       Params
		prefill int // WRAM bytes taken before the build
	}{
		{"l-lut tan fails on its cosine table", Tan, Params{Method: LLUT, SizeLog2: 13}, 26926},
		{"m-lut tan fails on its cosine table", Tan, Params{Method: MLUT, SizeLog2: 13}, 16384},
		{"cordic+lut head table after its tail", Sin, Params{Method: CORDICLUT, HeadBits: 12}, 0},
	} {
		dpu := newDPU()
		dpu.WRAM.MustAlloc(c.prefill)
		wram, mram := dpu.WRAM.Used(), dpu.MRAM.Used()
		if _, err := Build(c.fn, c.p, dpu); err == nil {
			t.Fatalf("%s: build fit, want WRAM exhaustion", c.name)
		}
		if w, m := dpu.WRAM.Used(), dpu.MRAM.Used(); w != wram || m != mram {
			t.Errorf("%s: WRAM/MRAM used %d/%d after the failed build, want %d/%d", c.name, w, m, wram, mram)
		}
	}
}

// Every supported (function, method, interp) triple must build and
// reach a sane accuracy on its domain.
func TestAllPairsAccuracy(t *testing.T) {
	for _, fn := range Functions() {
		inputs := domainInputs(fn, 2000)
		ref := fn.Ref()
		for _, m := range Methods() {
			if !m.Supports(fn) {
				continue
			}
			for _, interp := range []bool{false, true} {
				if interp && !m.SupportsInterp() {
					continue
				}
				p := Params{Method: m, Interp: interp, SizeLog2: 12, Iterations: 32, Degree: 11}
				dpu := newDPU()
				op, err := Build(fn, p, dpu)
				if err != nil {
					t.Errorf("%v/%s: build failed: %v", fn, p.Label(), err)
					continue
				}
				ctx := dpu.NewCtx()
				var col stats.Collector
				for _, x := range inputs {
					col.Add(op.Eval(ctx, x), ref(float64(x)))
				}
				e := col.Result()
				// Tangent's absolute error explodes near the poles for
				// every method; judge it by mean error instead.
				metric, bound := e.RMSE, 2e-3
				if fn == Tan {
					metric, bound = e.MeanAbs, 0.5
				}
				if fn == GELU && m == Poly {
					bound = 1e-2 // baseline limitation, documented
				}
				if fn == GELU && (m == DLUT || m == DLLUT) && !interp {
					// Entry spacing grows with |x| while GELU's slope
					// approaches 1, so the truncating D-LUT coarsens at
					// large inputs; interpolation (exact on linear
					// segments) is the intended configuration (KT4).
					bound = 1e-2
				}
				if metric > bound {
					t.Errorf("%v/%s: error %v over bound %v", fn, p.Label(), e, bound)
				}
			}
		}
	}
}

func TestOperatorMetadata(t *testing.T) {
	dpu := newDPU()
	op, err := Build(Sin, Params{Method: LLUT, SizeLog2: 10}, dpu)
	if err != nil {
		t.Fatal(err)
	}
	if op.TableBytes() <= 0 {
		t.Error("L-LUT must report table memory")
	}
	if op.BuildSeconds() <= 0 {
		t.Error("BuildSeconds must be modeled")
	}
	again, err := Build(Sin, Params{Method: LLUT, SizeLog2: 10}, newDPU())
	if err != nil {
		t.Fatal(err)
	}
	if again.BuildSeconds() != op.BuildSeconds() {
		t.Errorf("two builds of one spec priced differently: %v vs %v", op.BuildSeconds(), again.BuildSeconds())
	}
	if op.TransferSeconds() <= 0 {
		t.Error("TransferSeconds must be modeled")
	}
	if op.SetupSeconds() != op.BuildSeconds()+op.TransferSeconds() {
		t.Error("SetupSeconds must be the sum")
	}
}

func TestWideRangeSine(t *testing.T) {
	dpu := newDPU()
	op, err := Build(Sin, Params{Method: LLUT, Interp: true, SizeLog2: 12, WideRange: true}, dpu)
	if err != nil {
		t.Fatal(err)
	}
	ctx := dpu.NewCtx()
	for _, x := range []float64{-50, -7, 9, 100, 1234} {
		got := float64(op.Eval(ctx, float32(x)))
		want := math.Sin(x)
		if math.Abs(got-want) > 1e-3 {
			t.Errorf("wide sin(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestWideRangeCostsMore(t *testing.T) {
	run := func(wide bool) uint64 {
		dpu := newDPU()
		op, err := Build(Sin, Params{Method: LLUT, SizeLog2: 10, WideRange: wide}, dpu)
		if err != nil {
			t.Fatal(err)
		}
		dpu.ResetCycles()
		op.Eval(dpu.NewCtx(), 1.5)
		return dpu.Cycles()
	}
	if narrow, wide := run(false), run(true); wide <= narrow {
		t.Fatalf("wide-range sine (%d) must cost more than narrow (%d)", wide, narrow)
	}
}

// --- Figure 5 shape assertions ---

func sweep(t *testing.T, fn Function, m Method, interp bool, sizes []int) []Point {
	t.Helper()
	pts := SweepConfig{Fn: fn, Method: m, Interp: interp, Placement: pimsim.InWRAM, Sizes: sizes}.
		Run(domainInputs(fn, 2048))
	if len(pts) == 0 {
		t.Fatalf("sweep %v/%v produced no points", fn, m)
	}
	return pts
}

func TestFig5LUTCyclesFlatInAccuracy(t *testing.T) {
	// Observation 1: each LUT method consumes the same cycles per
	// element regardless of RMSE (table size).
	pts := sweep(t, Sin, LLUT, true, []int{8, 10, 12, 14})
	base := pts[0].CyclesPerElem
	for _, p := range pts {
		if math.Abs(p.CyclesPerElem-base) > 1 {
			t.Fatalf("L-LUT cycles vary with size: %v vs %v", p.CyclesPerElem, base)
		}
	}
}

func TestFig5CORDICCyclesGrowWithAccuracy(t *testing.T) {
	pts := sweep(t, Sin, CORDIC, false, []int{12, 20, 28, 36})
	for i := 1; i < len(pts); i++ {
		if pts[i].CyclesPerElem <= pts[i-1].CyclesPerElem {
			t.Fatalf("CORDIC cycles must grow with iterations: %+v", pts)
		}
		if pts[i].Errors.RMSE >= pts[i-1].Errors.RMSE {
			t.Fatalf("CORDIC RMSE must shrink with iterations: %v then %v",
				pts[i-1].Errors.RMSE, pts[i].Errors.RMSE)
		}
	}
}

func TestFig5MethodOrdering(t *testing.T) {
	// At matched table size, the cycle ordering of observation 1:
	// M-LUT(i) > { L-LUT(i), M-LUT } > L-LUT, and fixed (i) ≈ ½ float (i).
	inputs := domainInputs(Sin, 1024)
	cycles := func(m Method, interp bool) float64 {
		pt, err := MeasureOperator(Sin, Params{Method: m, Interp: interp, SizeLog2: 10}, inputs)
		if err != nil {
			t.Fatal(err)
		}
		return pt.CyclesPerElem
	}
	mi, li := cycles(MLUT, true), cycles(LLUT, true)
	mn, ln := cycles(MLUT, false), cycles(LLUT, false)
	fi := cycles(LLUTFixed, true)
	if !(mi > li && li > ln) {
		t.Errorf("ordering M-LUTi(%v) > L-LUTi(%v) > L-LUT(%v) violated", mi, li, ln)
	}
	if !(mn > ln) {
		t.Errorf("M-LUT (%v) must exceed L-LUT (%v)", mn, ln)
	}
	if r := li / fi; r < 1.6 || r > 3.5 {
		t.Errorf("fixed interpolated L-LUT speedup %v, want ~2×", r)
	}
	if r := li / mi; r < 0.35 || r > 0.65 {
		t.Errorf("L-LUTi/M-LUTi = %v, want ~0.5", r)
	}
	if r := ln / mn; r > 0.35 {
		t.Errorf("L-LUT/M-LUT = %v, want ≲0.3 (~80%% cut)", r)
	}
}

func TestFig5CORDICLUTFasterThanCORDIC(t *testing.T) {
	inputs := domainInputs(Sin, 512)
	pure, err := MeasureOperator(Sin, Params{Method: CORDIC, Iterations: 30}, inputs)
	if err != nil {
		t.Fatal(err)
	}
	hybrid, err := MeasureOperator(Sin, Params{Method: CORDICLUT, Iterations: 22, HeadBits: 10}, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if hybrid.CyclesPerElem >= pure.CyclesPerElem {
		t.Fatalf("CORDIC+LUT (%v) must be faster than CORDIC (%v)",
			hybrid.CyclesPerElem, pure.CyclesPerElem)
	}
	if hybrid.Errors.RMSE > pure.Errors.RMSE*10 {
		t.Fatalf("hybrid accuracy (%v) must stay near pure CORDIC (%v)",
			hybrid.Errors.RMSE, pure.Errors.RMSE)
	}
}

func TestFig5MRAMvsWRAM(t *testing.T) {
	// Observation 4: placement does not change cycles at full pipeline,
	// but WRAM caps the reachable accuracy.
	inputs := domainInputs(Sin, 1024)
	w, err := MeasureOperator(Sin, Params{Method: LLUT, Interp: true, SizeLog2: 12, Placement: pimsim.InWRAM}, inputs)
	if err != nil {
		t.Fatal(err)
	}
	m, err := MeasureOperator(Sin, Params{Method: LLUT, Interp: true, SizeLog2: 12, Placement: pimsim.InMRAM}, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(w.CyclesPerElem-m.CyclesPerElem) / w.CyclesPerElem; rel > 0.05 {
		t.Fatalf("WRAM (%v) vs MRAM (%v) cycles differ %v%%", w.CyclesPerElem, m.CyclesPerElem, rel*100)
	}
	// A 2^17-entry table no longer fits WRAM but still fits MRAM.
	if _, err := Build(Sin, Params{Method: LLUT, SizeLog2: 17, Placement: pimsim.InWRAM}, newDPU()); err == nil {
		t.Fatal("oversized LUT must fail in WRAM")
	}
	if _, err := Build(Sin, Params{Method: LLUT, SizeLog2: 17, Placement: pimsim.InMRAM}, newDPU()); err != nil {
		t.Fatalf("oversized LUT must load in MRAM: %v", err)
	}
}

func TestFig5PolySlowerThanLUTAtAccuracy(t *testing.T) {
	// The Taylor-approximation argument of §4.2.1: reaching LUT-grade
	// accuracy by polynomial costs several× the cycles.
	inputs := domainInputs(Sin, 1024)
	lut, err := MeasureOperator(Sin, Params{Method: LLUT, Interp: true, SizeLog2: 12}, inputs)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := MeasureOperator(Sin, Params{Method: Poly, Degree: 9}, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if pl.CyclesPerElem < 3*lut.CyclesPerElem {
		t.Fatalf("poly (%v) should be ≥3× interpolated L-LUT (%v)", pl.CyclesPerElem, lut.CyclesPerElem)
	}
}

// --- Figure 6 shape assertions ---

func TestFig6SetupTimes(t *testing.T) {
	inputs := domainInputs(Sin, 256)
	// CORDIC setup is flat in accuracy; LUT setup grows with table size.
	c1, _ := MeasureOperator(Sin, Params{Method: CORDIC, Iterations: 12}, inputs)
	c2, _ := MeasureOperator(Sin, Params{Method: CORDIC, Iterations: 36}, inputs)
	l1, _ := MeasureOperator(Sin, Params{Method: LLUT, SizeLog2: 8}, inputs)
	l2, _ := MeasureOperator(Sin, Params{Method: LLUT, SizeLog2: 18, Placement: pimsim.InMRAM}, inputs)
	if c2.SetupSeconds > 20*c1.SetupSeconds+1e-4 {
		t.Errorf("CORDIC setup should stay flat: %v → %v", c1.SetupSeconds, c2.SetupSeconds)
	}
	if l2.SetupSeconds < 10*l1.SetupSeconds {
		t.Errorf("LUT setup should grow with size: %v → %v", l1.SetupSeconds, l2.SetupSeconds)
	}
	// At the largest size, LUT setup exceeds CORDIC setup (the
	// crossover of Key Takeaway 2).
	if l2.SetupSeconds <= c2.SetupSeconds {
		t.Errorf("large LUT setup (%v) must exceed CORDIC setup (%v)", l2.SetupSeconds, c2.SetupSeconds)
	}
}

func TestKeyTakeaway2Amortization(t *testing.T) {
	// CORDIC is preferable for kernels computing only a few
	// transcendental operations: with per-op cycle advantage Δc and
	// setup-time disadvantage Δs, the LUT needs Δs/(Δc/clock)
	// operations to break even — a small number (paper: ~40).
	inputs := domainInputs(Sin, 1024)
	cord, _ := MeasureOperator(Sin, Params{Method: CORDIC, Iterations: 30}, inputs)
	lut, _ := MeasureOperator(Sin, Params{Method: LLUT, Interp: true, SizeLog2: 14, Placement: pimsim.InMRAM}, inputs)
	dCycles := cord.CyclesPerElem - lut.CyclesPerElem
	if dCycles <= 0 {
		t.Fatal("CORDIC must cost more cycles per element than L-LUT")
	}
	dSetup := lut.SetupSeconds - cord.SetupSeconds
	if dSetup <= 0 {
		t.Fatal("L-LUT must cost more setup than CORDIC")
	}
	// Both clocks are modeled (PIM cycles; table generation priced on
	// the model host), so the crossover is one fixed number.
	breakEven := dSetup / (dCycles / pimsim.DefaultClockHz)
	if got := int(math.Round(breakEven)); got != 342 {
		t.Fatalf("L-LUT amortizes its setup after %v sine operations, want 342 (paper: ~40)", breakEven)
	}
}

// --- Figure 7 shape assertions ---

func TestFig7MemoryShapes(t *testing.T) {
	inputs := domainInputs(Sin, 128)
	// Non-interpolated LUT memory grows ~4× per 2-step of SizeLog2…
	l1, _ := MeasureOperator(Sin, Params{Method: LLUT, SizeLog2: 10}, inputs)
	l2, _ := MeasureOperator(Sin, Params{Method: LLUT, SizeLog2: 14, Placement: pimsim.InMRAM}, inputs)
	if l2.TableBytes < 8*l1.TableBytes {
		t.Errorf("LUT memory should grow exponentially: %d → %d", l1.TableBytes, l2.TableBytes)
	}
	// …while CORDIC memory grows linearly with iterations.
	c1, _ := MeasureOperator(Sin, Params{Method: CORDIC, Iterations: 12}, inputs)
	c2, _ := MeasureOperator(Sin, Params{Method: CORDIC, Iterations: 36}, inputs)
	if c2.TableBytes > 4*c1.TableBytes {
		t.Errorf("CORDIC memory should grow only linearly: %d → %d", c1.TableBytes, c2.TableBytes)
	}
	// Interpolation raises accuracy at equal memory (observation 3).
	ni, _ := MeasureOperator(Sin, Params{Method: LLUT, SizeLog2: 12}, domainInputs(Sin, 2048))
	ip, _ := MeasureOperator(Sin, Params{Method: LLUT, Interp: true, SizeLog2: 12}, domainInputs(Sin, 2048))
	if ip.Errors.RMSE >= ni.Errors.RMSE/10 {
		t.Errorf("interpolation should cut RMSE ≥10× at equal memory: %v vs %v",
			ip.Errors.RMSE, ni.Errors.RMSE)
	}
}

// --- §4.2.4 assertions ---

func TestTangent2to3xSine(t *testing.T) {
	inputs := domainInputs(Sin, 1024)
	for _, m := range []Method{CORDIC, LLUT, MLUT} {
		pSin := Params{Method: m, Interp: true, SizeLog2: 10, Iterations: 30}
		pTan := pSin
		sin, err := MeasureOperator(Sin, pSin, inputs)
		if err != nil {
			t.Fatal(err)
		}
		tan, err := MeasureOperator(Tan, pTan, inputs)
		if err != nil {
			t.Fatal(err)
		}
		r := tan.CyclesPerElem / sin.CyclesPerElem
		if r < 1.15 || r > 4.5 {
			t.Errorf("%v: tan/sin cycle ratio %v, want ~1.2-4 (sine+cosine+division)", m, r)
		}
	}
}

func TestKeyTakeaway4(t *testing.T) {
	// D-LUT/DL-LUT on tanh (no range extension, ~linear) are ~2× faster
	// than an interpolated L-LUT sine that pays its 2π reduction, at
	// similar accuracy.
	sinInputs := stats.RandomInputs(-20, 20, 2048, 3)
	tanhInputs := domainInputs(Tanh, 2048)
	sinOp, err := MeasureOperator(Sin, Params{Method: LLUT, Interp: true, SizeLog2: 12, WideRange: true}, sinInputs)
	if err != nil {
		t.Fatal(err)
	}
	dl, err := MeasureOperator(Tanh, Params{Method: DLLUT, Interp: true, SizeLog2: 12}, tanhInputs)
	if err != nil {
		t.Fatal(err)
	}
	r := sinOp.CyclesPerElem / dl.CyclesPerElem
	if r < 1.5 || r > 4 {
		t.Errorf("DL-LUT tanh speedup over wide-range L-LUTi sine = %v, want ~2×", r)
	}
}

func TestSweepDefaultSizesCoverMethods(t *testing.T) {
	for _, m := range Methods() {
		if len(DefaultSizes(m)) < 4 {
			t.Errorf("DefaultSizes(%v) too short", m)
		}
	}
}

func TestFig5CurvesComplete(t *testing.T) {
	curves := Fig5Curves(Sin)
	// sine: cordic, cordic+lut, + {m,l,fixed} × {interp?} × {wram,mram} = 2+12
	if len(curves) != 14 {
		t.Fatalf("Fig5Curves(sin) = %d curves, want 14", len(curves))
	}
	curves = Fig5Curves(Tanh)
	// tanh: cordic + {m,l,fixed,d,dl} × 2 × 2 = 1+20
	if len(curves) != 21 {
		t.Fatalf("Fig5Curves(tanh) = %d curves, want 21", len(curves))
	}
}

func TestPointString(t *testing.T) {
	pt, err := MeasureOperator(Sin, Params{Method: LLUT}, domainInputs(Sin, 64))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pt.String(), "l-lut") {
		t.Error("Point.String must include the method label")
	}
}

func TestParamsLabel(t *testing.T) {
	cases := []struct {
		p    Params
		want string
	}{
		{Params{Method: LLUT, Interp: true, SizeLog2: 10}, "l-lut(i) n=10 wram"},
		{Params{Method: CORDIC, Iterations: 24}, "cordic it=24 wram"},
		{Params{Method: Poly, Degree: 7, Placement: pimsim.InMRAM}, "poly deg=7 mram"},
		{Params{Method: CORDICLUT, HeadBits: 8, Iterations: 16}, "cordic+lut head=8 it=16 wram"},
	}
	for _, c := range cases {
		if got := c.p.Label(); got != c.want {
			t.Errorf("Label = %q, want %q", got, c.want)
		}
	}
}

// --- extension functions (atan, sigmoid) ---

func TestAtanCORDICVectoring(t *testing.T) {
	dpu := newDPU()
	op, err := Build(Atan, Params{Method: CORDIC, Iterations: 32}, dpu)
	if err != nil {
		t.Fatal(err)
	}
	ctx := dpu.NewCtx()
	for _, x := range []float64{-7.5, -2, -0.5, 0, 0.3, 1, 4, 7.9} {
		got := float64(op.Eval(ctx, float32(x)))
		if math.Abs(got-math.Atan(x)) > 1e-6 {
			t.Errorf("cordic atan(%v) = %v, want %v", x, got, math.Atan(x))
		}
	}
}

func TestAtanPolyReciprocalReduction(t *testing.T) {
	dpu := newDPU()
	op, err := Build(Atan, Params{Method: Poly, Degree: 13}, dpu)
	if err != nil {
		t.Fatal(err)
	}
	ctx := dpu.NewCtx()
	var worst float64
	for x := -7.9; x <= 7.9; x += 0.01 {
		got := float64(op.Eval(ctx, float32(x)))
		if e := math.Abs(got - math.Atan(x)); e > worst {
			worst = e
		}
	}
	if worst > 1e-6 {
		t.Fatalf("poly atan max error %v", worst)
	}
}

func TestSigmoidDLUTSuitability(t *testing.T) {
	// KT4 extended: sigmoid, like tanh, is approximately linear and
	// needs no range extension, so interpolated DL-LUT should be both
	// fast and accurate.
	inputs := domainInputs(Sigmoid, 2048)
	dl, err := MeasureOperator(Sigmoid, Params{Method: DLLUT, Interp: true, SizeLog2: 12}, inputs)
	if err != nil {
		t.Fatal(err)
	}
	li, err := MeasureOperator(Sigmoid, Params{Method: LLUT, Interp: true, SizeLog2: 12}, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if dl.CyclesPerElem >= li.CyclesPerElem {
		t.Errorf("DL-LUT sigmoid (%v cyc) should beat L-LUT (%v cyc)",
			dl.CyclesPerElem, li.CyclesPerElem)
	}
	if dl.Errors.RMSE > 10*li.Errors.RMSE {
		t.Errorf("DL-LUT sigmoid accuracy %v too far from L-LUT %v",
			dl.Errors.RMSE, li.Errors.RMSE)
	}
}

func TestFixedSymmetryFixups(t *testing.T) {
	// The fixed-point folds: tanh/atan odd, GELU(−x)=GELU(x)−x,
	// σ(−x)=1−σ(x).
	for _, fn := range []Function{Tanh, GELU, Atan, Sigmoid} {
		dpu := newDPU()
		op, err := Build(fn, Params{Method: LLUTFixed, Interp: true, SizeLog2: 12}, dpu)
		if err != nil {
			t.Fatalf("%v: %v", fn, err)
		}
		ctx := dpu.NewCtx()
		ref := fn.Ref()
		for _, x := range []float64{-7.5, -3.3, -1, -0.1} {
			got := float64(op.Eval(ctx, float32(x)))
			if math.Abs(got-ref(x)) > 2e-5 {
				t.Errorf("fixed %v(%v) = %v, want %v", fn, x, got, ref(x))
			}
		}
	}
}

func TestAtanSigmoidInSupportMatrix(t *testing.T) {
	if !DLUT.Supports(Sigmoid) || !DLLUT.Supports(Atan) {
		t.Error("D-LUT family must cover the extension functions")
	}
	if CORDICLUT.Supports(Atan) {
		t.Error("CORDIC+LUT remains circular-rotation only")
	}
	if !CORDIC.Supports(Atan) || !CORDIC.Supports(Sigmoid) {
		t.Error("CORDIC must cover atan (vectoring) and sigmoid (via exp)")
	}
}

// TestGoldenCycleCounts locks the deterministic per-element cycle
// counts of the headline sine configurations. These are the numbers
// EXPERIMENTS.md documents; a cost-model change that moves them should
// be deliberate (update both this test and the docs).
func TestGoldenCycleCounts(t *testing.T) {
	golden := []struct {
		p    Params
		want float64
	}{
		{Params{Method: LLUT, SizeLog2: 10}, 23},
		{Params{Method: LLUTFixed, SizeLog2: 10}, 61},
		{Params{Method: LLUTFixed, Interp: true, SizeLog2: 10}, 100},
		{Params{Method: MLUT, SizeLog2: 10}, 186},
		{Params{Method: LLUT, Interp: true, SizeLog2: 10}, 247},
		{Params{Method: MLUT, Interp: true, SizeLog2: 10}, 494},
	}
	inputs := stats.UniformInputs(0.1, 6.1, 64)
	for _, g := range golden {
		pt, err := MeasureOperator(Sin, g.p, inputs)
		if err != nil {
			t.Fatal(err)
		}
		if pt.CyclesPerElem != g.want {
			t.Errorf("%s: %v cycles/elem, golden %v", g.p.Label(), pt.CyclesPerElem, g.want)
		}
	}
}

func TestLogSqrtDomainGuards(t *testing.T) {
	for _, m := range []Method{CORDIC, LLUT, MLUT, LLUTFixed, Poly} {
		dpu := newDPU()
		logOp, err := Build(Log, Params{Method: m, SizeLog2: 10, Placement: pimsim.InMRAM}, dpu)
		if err != nil {
			t.Fatal(err)
		}
		sqrtOp, err := Build(Sqrt, Params{Method: m, SizeLog2: 10, Placement: pimsim.InMRAM}, dpu)
		if err != nil {
			t.Fatal(err)
		}
		ctx := dpu.NewCtx()
		if got := logOp.Eval(ctx, -1); got == got { // NaN check
			t.Errorf("%v: log(-1) = %v, want NaN", m, got)
		}
		if got := logOp.Eval(ctx, 0); !math.IsInf(float64(got), -1) {
			t.Errorf("%v: log(0) = %v, want -Inf", m, got)
		}
		if got := sqrtOp.Eval(ctx, -4); got == got {
			t.Errorf("%v: sqrt(-4) = %v, want NaN", m, got)
		}
		if got := sqrtOp.Eval(ctx, 0); got != 0 {
			t.Errorf("%v: sqrt(0) = %v, want 0", m, got)
		}
	}
}
