package core

import (
	"fmt"
	"math"

	"transpimlib/internal/cordic"
	"transpimlib/internal/fixed"
	"transpimlib/internal/fpbits"
	"transpimlib/internal/lut"
	"transpimlib/internal/pimsim"
	"transpimlib/internal/poly"
	"transpimlib/internal/rangered"
)

// Operator is one function compiled for one method configuration and
// loaded onto one PIM core: the host-side setup has run (tables built
// and transferred) and Eval executes the device-side computation with
// full cycle accounting.
type Operator struct {
	Fn  Function
	Par Params

	eval func(*pimsim.Ctx, float32) float32

	// mirror and sigs drive the batch-evaluation fast path (batch.go):
	// the host slice kernel that replays eval bit for bit without
	// charging, plus one pre-recorded cost signature per control-flow
	// class. mirror is nil when only the interpreted path is available.
	mirror *opMirror
	sigs   [maxCostClasses]pimsim.CostSig

	tableBytes      int
	hostCycles      float64 // table generation on the model host (hostcost.go)
	transferSeconds float64
}

// Eval computes fn(x) on the PIM core through ctx. The supported input
// domain is Fn.Domain(): trigonometric inputs are assumed reduced to
// [0, 2π] (the microbenchmark convention, §4.1.1); exp/log/sqrt accept
// their full float range via the built-in §2.2.3 extensions.
func (o *Operator) Eval(ctx *pimsim.Ctx, x float32) float32 { return o.eval(ctx, x) }

// TableBytes returns the PIM memory consumed by tables and constants
// (Fig. 7).
func (o *Operator) TableBytes() int { return o.tableBytes }

// BuildSeconds returns the modeled host time spent generating tables
// (the host-CPU part of Fig. 6): the build's table entries, CORDIC
// constants and fit samples priced on the model host (hostcost.go).
// It is a pure function of the function and params.
func (o *Operator) BuildSeconds() float64 { return o.hostCycles / XeonClockHz }

// TransferSeconds returns the modeled Host→PIM transfer time for the
// tables (the transfer part of Fig. 6's setup time).
func (o *Operator) TransferSeconds() float64 { return o.transferSeconds }

// SetupSeconds returns the total setup time: host-side generation plus
// Host→PIM transfer (§4.1.1).
func (o *Operator) SetupSeconds() float64 { return o.BuildSeconds() + o.transferSeconds }

// Build compiles fn with params onto the PIM core: it generates any
// tables on the host (pricing the generation on the model host),
// loads them into the selected memory, and wires the device-side
// evaluator. A failed build leaves the core's memories as it found
// them.
func Build(fn Function, p Params, dpu *pimsim.DPU) (*Operator, error) {
	p = p.withDefaults()
	if !p.Method.Supports(fn) {
		return nil, fmt.Errorf("core: %v does not support %v (see Table 2)", p.Method, fn)
	}
	o := &Operator{Fn: fn, Par: p}
	wram, mram := dpu.WRAM.Used(), dpu.MRAM.Used()
	var err error
	switch p.Method {
	case CORDIC:
		err = o.buildCORDIC(dpu)
	case CORDICLUT:
		err = o.buildCORDICLUT(dpu)
	case MLUT, LLUT:
		err = o.buildFloatLUT(dpu)
	case LLUTFixed:
		err = o.buildFixedLUT(dpu)
	case DLUT, DLLUT:
		err = o.buildDLUT(dpu)
	case Poly:
		err = o.buildPoly(dpu)
	default:
		err = fmt.Errorf("core: unknown method %v", p.Method)
	}
	if err != nil {
		// A multi-table build can fail on a later table; the memories
		// are bump allocators, so give back what the earlier ones took.
		dpu.WRAM.Rollback(wram)
		dpu.MRAM.Rollback(mram)
		return nil, err
	}
	if p.WideRange {
		switch fn {
		case Sin, Cos, Tan:
			inner := o.eval
			o.eval = func(ctx *pimsim.Ctx, x float32) float32 {
				return inner(ctx, rangered.To2Pi(ctx, x))
			}
			// To2Pi has a data-dependent guard-correction branch on top of
			// the quadrant classes; keep the interpreted path.
			o.mirror = nil
		}
	}
	// Domain guards: logarithm and square root of non-positive inputs
	// return NaN (one compare and branch on the device), matching the
	// host math library the accuracy metrics compare against. The
	// kernel composes the same guard as one more cost class.
	switch fn {
	case Log:
		inner := o.eval
		o.eval = func(ctx *pimsim.Ctx, x float32) float32 {
			ctx.Branch()
			if ctx.FCmp(x, 0) <= 0 {
				if x == 0 {
					return float32(math.Inf(-1))
				}
				return float32(math.NaN())
			}
			return inner(ctx, x)
		}
		// FCmp(x, 0) <= 0 holds for NaN too, so NaN takes the guard.
		o.mirror = o.mirror.guard(func(x float32) bool { return x > 0 }, func(x float32) float32 {
			if x == 0 {
				return float32(math.Inf(-1))
			}
			return float32(math.NaN())
		})
	case Sqrt:
		inner := o.eval
		o.eval = func(ctx *pimsim.Ctx, x float32) float32 {
			ctx.Branch()
			if ctx.FCmp(x, 0) < 0 {
				return float32(math.NaN())
			}
			if x == 0 {
				return 0
			}
			return inner(ctx, x)
		}
		// Negative inputs (NaN result) and zero share one guard class;
		// NaN fails both compares and falls through to the inner kernel.
		o.mirror = o.mirror.guard(func(x float32) bool { return !(x < 0) && x != 0 }, func(x float32) float32 {
			if x < 0 {
				return float32(math.NaN())
			}
			return 0
		})
	}
	o.recordSigs(dpu.Model())
	// Table transfer to a single PIM core's DRAM bank proceeds at the
	// serial (single-bank) bandwidth.
	o.transferSeconds = float64(o.tableBytes) / pimsim.DefaultSerialBandwidth
	return o, nil
}

// ---------- compositions shared by the methods ----------

// compose sets eval and mirror from a core evaluator over the
// function's core range (Function.CoreRange): core runs on the device,
// coreMany is its host slice twin. Exp, log and sqrt wrap the core in
// their §2.2.3 range reductions; any other function is the core.
func (o *Operator) compose(core func(*pimsim.Ctx, float32) float32, coreMany func(xs, ys []float32)) {
	switch o.Fn {
	case Exp:
		o.expFamily(core, coreMany)
	case Log:
		o.eval = func(ctx *pimsim.Ctx, x float32) float32 {
			m, e := rangered.SplitLog(ctx, x)
			return rangered.JoinLog(ctx, core(ctx, m), e)
		}
		o.mirror = mirror1(logSplitKernel(coreMany), 0.7)
	case Sqrt:
		o.eval = func(ctx *pimsim.Ctx, x float32) float32 {
			m, h := rangered.SplitSqrt(ctx, x)
			return rangered.JoinSqrt(ctx, core(ctx, m), h)
		}
		o.mirror = sqrtParityMirror(coreMany)
	default:
		lo, hi := o.Fn.CoreRange()
		o.eval = core
		o.mirror = mirror1(plainKernel(coreMany), float32((lo+hi)/2))
	}
}

// expFamily sets eval and mirror for exp around a core over its
// reduced argument (SplitExp, core, JoinExp) and, for the methods
// without tables of their own, for sinh, cosh, tanh and sigmoid over
// that exp. Their kernels are pre- and post-passes around the exp
// kernel, with pre-transformed inputs in the XA lane.
func (o *Operator) expFamily(core func(*pimsim.Ctx, float32) float32, coreMany func(rs, ys []float32)) {
	exp := func(ctx *pimsim.Ctx, x float32) float32 {
		r, k := rangered.SplitExp(ctx, x)
		return rangered.JoinExp(ctx, core(ctx, r), k)
	}
	expKernel := expSplitKernel(coreMany)
	kernel := expKernel
	switch o.Fn {
	case Exp:
		o.eval = exp
	case Sinh:
		o.eval = func(ctx *pimsim.Ctx, x float32) float32 {
			ex := exp(ctx, x)
			return ctx.FMul(0.5, ctx.FSub(ex, ctx.FDiv(1, ex)))
		}
		kernel = func(xs, ys []float32, sc *lut.Scratch, counts *[maxCostClasses]uint64) {
			expKernel(xs, ys, sc, counts)
			for i, ex := range ys {
				ys[i] = 0.5 * (ex - 1/ex)
			}
		}
	case Cosh:
		o.eval = func(ctx *pimsim.Ctx, x float32) float32 {
			ex := exp(ctx, x)
			return ctx.FMul(0.5, ctx.FAdd(ex, ctx.FDiv(1, ex)))
		}
		kernel = func(xs, ys []float32, sc *lut.Scratch, counts *[maxCostClasses]uint64) {
			expKernel(xs, ys, sc, counts)
			for i, ex := range ys {
				ys[i] = 0.5 * (ex + 1/ex)
			}
		}
	case Tanh:
		// tanh x = 1 − 2/(e^{2x}+1), valid over the whole line.
		o.eval = func(ctx *pimsim.Ctx, x float32) float32 {
			e2 := exp(ctx, ctx.FAdd(x, x))
			return ctx.FSub(1, ctx.FDiv(2, ctx.FAdd(e2, 1)))
		}
		kernel = func(xs, ys []float32, sc *lut.Scratch, counts *[maxCostClasses]uint64) {
			sc.Grow(len(xs))
			dx := sc.XA[:len(xs)]
			for i, x := range xs {
				dx[i] = x + x
			}
			expKernel(dx, ys, sc, counts)
			for i, e2 := range ys {
				ys[i] = 1 - 2/(e2+1)
			}
		}
	case Sigmoid:
		// S(x) = 1/(1+e^{−x}).
		o.eval = func(ctx *pimsim.Ctx, x float32) float32 {
			e := exp(ctx, ctx.FNeg(x))
			return ctx.FDiv(1, ctx.FAdd(1, e))
		}
		kernel = func(xs, ys []float32, sc *lut.Scratch, counts *[maxCostClasses]uint64) {
			sc.Grow(len(xs))
			nx := sc.XA[:len(xs)]
			for i, x := range xs {
				nx[i] = -x
			}
			expKernel(nx, ys, sc, counts)
			for i, e := range ys {
				ys[i] = 1 / (1 + e)
			}
		}
	}
	o.mirror = mirror1(kernel, 0.5)
}

// ---------- CORDIC ----------

var halfPi64 = cordic.FromFloat(math.Pi / 2)

// tanQuadrantHost is the quadrant fix-up of the CORDIC Tan kernels:
// both trig fix-ups then the quotient, matching the device path.
func tanQuadrantHost(s, c float32, q rangered.Quadrant) float32 {
	return rangered.ApplySinQuadrantHost(s, c, q) / rangered.ApplyCosQuadrantHost(s, c, q)
}

// foldQuadrant64 reduces a Q23.40 angle in [0, 2π) to [0, π/2] plus
// its quadrant using 64-bit compare/subtract steps.
func foldQuadrant64(ctx *pimsim.Ctx, theta int64) (int64, rangered.Quadrant) {
	var q rangered.Quadrant
	for q = 0; q < 3; q++ {
		ctx.Branch()
		if ctx.I64Cmp(theta, halfPi64) < 0 {
			break
		}
		theta = ctx.I64Sub(theta, halfPi64)
	}
	return theta, q
}

// fixDev lifts a Q23.40 device routine to float32 through the
// F32ToFix64/Fix64ToF32 conversions around it; fixMany is its host
// slice twin.
func fixDev(f func(*pimsim.Ctx, int64) int64) func(*pimsim.Ctx, float32) float32 {
	return func(ctx *pimsim.Ctx, x float32) float32 {
		return ctx.Fix64ToF32(f(ctx, ctx.F32ToFix64(x, cordic.FracBits)), cordic.FracBits)
	}
}

func fixMany(f func(int64) int64) func(xs, ys []float32) {
	return func(xs, ys []float32) {
		ys = ys[:len(xs)]
		for i, x := range xs {
			ys[i] = fix64ToF32(f(fix64FromF32(x)))
		}
	}
}

// circular wires sin, cos or tan over a circular-mode rotation: fold
// the Q23.40 angle to [0, π/2] plus its quadrant, rotate, convert back
// and apply the quadrant fix-ups; tan divides the two (§4.2.4). sinCos
// is the device rotation and many its host slice twin.
func (o *Operator) circular(sinCos func(*pimsim.Ctx, int64) (int64, int64), many func(thetas, sins, coss []int64)) error {
	sincos := func(ctx *pimsim.Ctx, x float32) (float32, float32) {
		theta, q := foldQuadrant64(ctx, ctx.F32ToFix64(x, cordic.FracBits))
		s64, c64 := sinCos(ctx, theta)
		s := ctx.Fix64ToF32(s64, cordic.FracBits)
		c := ctx.Fix64ToF32(c64, cordic.FracBits)
		return rangered.ApplySinQuadrant(ctx, s, c, q), rangered.ApplyCosQuadrant(ctx, s, c, q)
	}
	switch o.Fn {
	case Sin:
		o.eval = func(ctx *pimsim.Ctx, x float32) float32 { s, _ := sincos(ctx, x); return s }
		o.mirror = quadMirror(sincosKernel(many, rangered.ApplySinQuadrantHost))
	case Cos:
		o.eval = func(ctx *pimsim.Ctx, x float32) float32 { _, c := sincos(ctx, x); return c }
		o.mirror = quadMirror(sincosKernel(many, rangered.ApplyCosQuadrantHost))
	case Tan:
		o.eval = func(ctx *pimsim.Ctx, x float32) float32 {
			s, c := sincos(ctx, x)
			return ctx.FDiv(s, c)
		}
		o.mirror = quadMirror(sincosKernel(many, tanQuadrantHost))
	default:
		return fmt.Errorf("core: %v cannot compute %v", o.Par.Method, o.Fn)
	}
	return nil
}

// loadCORDIC generates the mode's iteration constants and loads them
// onto the core.
func (o *Operator) loadCORDIC(dpu *pimsim.DPU, mode cordic.Mode) (*cordic.Tables, *cordic.Device, error) {
	tb := cordic.NewTables(mode, o.Par.Iterations)
	dev, err := tb.Load(dpu, o.Par.Placement)
	if err != nil {
		return nil, nil, err
	}
	o.tableBytes = tb.TableBytes()
	o.hostCycles = cordicCycles(tb.Iterations())
	return tb, dev, nil
}

func (o *Operator) buildCORDIC(dpu *pimsim.DPU) error {
	mode := cordic.Hyperbolic
	switch o.Fn {
	case Sin, Cos, Tan, Atan:
		mode = cordic.Circular
	}
	tb, dev, err := o.loadCORDIC(dpu, mode)
	if err != nil {
		return err
	}
	switch o.Fn {
	case Sin, Cos, Tan:
		return o.circular(dev.SinCos, tb.SinCosHostMany)
	case Atan:
		// Circular vectoring of (1, x): the whole arctangent image fits
		// inside the mode's convergence range, so no extension is needed.
		o.eval = fixDev(dev.Atan)
		o.mirror = mirror1(plainKernel(fixMany(tb.AtanHost)), 0.7)
	case Log:
		o.compose(fixDev(dev.Ln), fixMany(tb.LnHost))
	case Sqrt:
		o.compose(fixDev(dev.Sqrt), fixMany(tb.SqrtHost))
	case Exp, Sinh, Cosh, Tanh, Sigmoid:
		o.expFamily(fixDev(dev.Exp), fixMany(tb.ExpHost))
	default:
		return fmt.Errorf("core: cordic cannot compute %v", o.Fn)
	}
	return nil
}

func (o *Operator) buildCORDICLUT(dpu *pimsim.DPU) error {
	la, err := cordic.NewLUTAssist(dpu, o.Par.Placement, o.Par.HeadBits, o.Par.Iterations)
	if err != nil {
		return err
	}
	o.tableBytes = la.TableBytes()
	head, tail := la.Constants()
	o.hostCycles = tableCycles(head, 2*XeonTrig) + cordicCycles(tail)
	return o.circular(la.SinCos, la.SinCosHostMany)
}

// ---------- float LUTs (M-LUT, L-LUT) ----------

// addTable adds one loaded table's bytes and its generation cost on
// the model host.
func (o *Operator) addTable(bytes, entries int) {
	o.tableBytes += bytes
	o.hostCycles += tableCycles(entries, o.Fn.refCycles())
}

// floatLUTFor builds one table of ref over [lo, hi] for the configured
// method, loads it, and returns its device evaluator and host slice
// twin.
func (o *Operator) floatLUTFor(dpu *pimsim.DPU, ref func(float64) float64, lo, hi float64) (func(*pimsim.Ctx, float32) float32, func(xs, ys []float32), error) {
	if o.Par.Method == MLUT {
		t, err := lut.BuildMLUT(ref, lo, hi, 1<<o.Par.SizeLog2, o.Par.Interp)
		if err != nil {
			return nil, nil, err
		}
		dev, err := t.Load(dpu, o.Par.Placement)
		if err != nil {
			return nil, nil, err
		}
		o.addTable(t.Bytes(), len(t.Entries))
		return dev.Eval, dev.MirrorMany, nil
	}
	t, err := lut.BuildLLUT(ref, lo, hi, densityExp(lo, hi, o.Par.SizeLog2), o.Par.Interp)
	if err != nil {
		return nil, nil, err
	}
	dev, err := t.Load(dpu, o.Par.Placement)
	if err != nil {
		return nil, nil, err
	}
	o.addTable(t.Bytes(), len(t.Entries))
	return dev.Eval, dev.MirrorMany, nil
}

// densityExp picks the power-of-two density exponent so that about
// 2^sizeLog2 entries cover [lo, hi].
func densityExp(lo, hi float64, sizeLog2 int) int {
	return sizeLog2 - int(math.Ceil(math.Log2(hi-lo)))
}

func (o *Operator) buildFloatLUT(dpu *pimsim.DPU) error {
	lo, hi := o.Fn.CoreRange()
	if o.Fn != Tan {
		core, coreMany, err := o.floatLUTFor(dpu, o.Fn.Ref(), lo, hi)
		if err != nil {
			return err
		}
		o.compose(core, coreMany)
		return nil
	}
	sinEval, sinMany, err := o.floatLUTFor(dpu, math.Sin, lo, hi)
	if err != nil {
		return err
	}
	cosEval, cosMany, err := o.floatLUTFor(dpu, math.Cos, lo, hi)
	if err != nil {
		return err
	}
	o.eval = func(ctx *pimsim.Ctx, x float32) float32 {
		return ctx.FDiv(sinEval(ctx, x), cosEval(ctx, x))
	}
	o.mirror = mirror1(divKernel(sinMany, cosMany), float32((lo+hi)/2))
	return nil
}

// ---------- fixed-point L-LUT ----------

func (o *Operator) fixedLUTFor(dpu *pimsim.DPU, ref func(float64) float64, lo, hi float64) (*lut.DevFixedLLUT, error) {
	n := clampInt(densityExp(lo, hi, o.Par.SizeLog2), 0, 26)
	t, err := lut.BuildFixedLLUT(ref, lo, hi, n, o.Par.Interp)
	if err != nil {
		return nil, err
	}
	dev, err := t.Load(dpu, o.Par.Placement)
	if err != nil {
		return nil, err
	}
	o.addTable(t.Bytes(), len(t.Entries))
	return dev, nil
}

func (o *Operator) buildFixedLUT(dpu *pimsim.DPU) error {
	lo, hi := o.Fn.CoreRange()
	switch o.Fn {
	case Tanh, GELU, Atan, Sigmoid:
		// The ±7.9 domain spans 15.8 > 8, more than a Q3.28 difference
		// can express, so the fixed table covers [0, hi] only and the
		// negative side folds through symmetry: f(−x) = −f(x) for the
		// odd functions (tanh, atan), GELU(−x) = GELU(x) − x, and
		// σ(−x) = 1 − σ(x) — one integer fix-up each.
		dev, err := o.fixedLUTFor(dpu, o.Fn.Ref(), 0, hi)
		if err != nil {
			return err
		}
		fn := o.Fn
		o.eval = func(ctx *pimsim.Ctx, x float32) float32 {
			xq := ctx.QFromF(x)
			neg := ctx.ICmp(int32(xq), 0) < 0
			ctx.Branch()
			ax := xq
			if neg {
				ax = ctx.QSub(0, xq)
			}
			v := dev.Eval(ctx, ax)
			if neg {
				switch fn {
				case GELU:
					v = ctx.QSub(v, ax)
				case Sigmoid:
					v = ctx.QSub(fixed.One, v)
				default: // odd: Tanh, Atan
					v = ctx.QSub(0, v)
				}
			}
			return ctx.QToF(v)
		}
		// Kernel: fold the sign into the QA lane tagging negatives, one
		// fixed-point table pass, then the per-function fix-up scattered
		// by tag.
		o.mirror = &opMirror{n: 2, reps: [maxCostClasses]float32{1, -1}, kernel: func(xs, ys []float32, sc *lut.Scratch, counts *[maxCostClasses]uint64) {
			n := len(xs)
			sc.Grow(n)
			sc.GrowQ(n)
			qa, qb := sc.QA[:n], sc.QB[:n]
			cls := sc.Cls[:n]
			var negs uint64
			for i, x := range xs {
				xq := fixed.FromFloat32(x)
				if int32(xq) < 0 {
					cls[i] = 1
					negs++
					xq = fixed.Q3_28(0).Sub(xq)
				} else {
					cls[i] = 0
				}
				qa[i] = xq
			}
			dev.MirrorMany(qa, qb)
			switch fn {
			case GELU:
				for i := range ys {
					v := qb[i]
					if cls[i] != 0 {
						v = v.Sub(qa[i])
					}
					ys[i] = v.Float32()
				}
			case Sigmoid:
				for i := range ys {
					v := qb[i]
					if cls[i] != 0 {
						v = fixed.One.Sub(v)
					}
					ys[i] = v.Float32()
				}
			default: // odd: Tanh, Atan
				for i := range ys {
					v := qb[i]
					if cls[i] != 0 {
						v = fixed.Q3_28(0).Sub(v)
					}
					ys[i] = v.Float32()
				}
			}
			counts[0] += uint64(n) - negs
			counts[1] += negs
		}}
		return nil
	case Tan:
		sinDev, err := o.fixedLUTFor(dpu, math.Sin, lo, hi)
		if err != nil {
			return err
		}
		cosDev, err := o.fixedLUTFor(dpu, math.Cos, lo, hi)
		if err != nil {
			return err
		}
		o.eval = func(ctx *pimsim.Ctx, x float32) float32 {
			xq := ctx.QFromF(x)
			s := ctx.QToF(sinDev.Eval(ctx, xq))
			c := ctx.QToF(cosDev.Eval(ctx, xq))
			return ctx.FDiv(s, c)
		}
		o.mirror = mirror1(divKernel(sinDev.MirrorFloatMany, cosDev.MirrorFloatMany), float32((lo+hi)/2))
		return nil
	default:
		dev, err := o.fixedLUTFor(dpu, o.Fn.Ref(), lo, hi)
		if err != nil {
			return err
		}
		o.compose(dev.EvalFloat, dev.MirrorFloatMany)
		return nil
	}
}

// ---------- D-LUT / DL-LUT ----------

func (o *Operator) buildDLUT(dpu *pimsim.DPU) error {
	ref := o.Fn.Ref()
	const maxExp = 3 // domain |x| < 8
	if o.Par.Method == DLUT {
		mant := clampInt(o.Par.SizeLog2-5, 1, 16)
		t, err := lut.BuildDLUT(ref, -14, maxExp, mant, o.Par.Interp)
		if err != nil {
			return err
		}
		dev, err := t.Load(dpu, o.Par.Placement)
		if err != nil {
			return err
		}
		o.addTable(t.Bytes(), len(t.Pos)+len(t.Neg))
		o.eval = dev.Eval
		o.mirror = mirror1(plainKernel(dev.MirrorMany), 1)
		return nil
	}
	mant := clampInt(o.Par.SizeLog2-4, 1, 16)
	t, err := lut.BuildDLLUT(ref, -4, maxExp, mant, mant+4, o.Par.Interp)
	if err != nil {
		return err
	}
	dev, err := t.Load(dpu, o.Par.Placement)
	if err != nil {
		return err
	}
	o.addTable(t.Bytes(), len(t.L.Entries)+len(t.D.Pos)+len(t.D.Neg))
	o.eval = dev.Eval
	// The L-LUT serves |x| below the split point (2⁻⁴ here), the D-LUT
	// the rest — two distinct charge traces.
	o.mirror = &opMirror{n: 2, reps: [maxCostClasses]float32{0.01, 1.5}, kernel: func(xs, ys []float32, sc *lut.Scratch, counts *[maxCostClasses]uint64) {
		l := dev.MirrorMany(xs, ys, sc)
		counts[0] += uint64(l)
		counts[1] += uint64(len(xs) - l)
	}}
	return nil
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// ---------- polynomial baseline ----------

// fit is poly.FitChebyshev with the polynomial's bytes added to the
// operator's and its samples priced on the model host at ref cycles
// per reference call.
func (o *Operator) fit(f func(float64) float64, ref float64, lo, hi float64, deg int) (*poly.Poly, error) {
	p, err := poly.FitChebyshev(f, lo, hi, deg)
	if err != nil {
		return nil, err
	}
	o.tableBytes += p.Bytes()
	o.hostCycles += fitCycles(len(p.Coeffs), ref)
	return p, nil
}

// polyQuadKernel fuses the quadrant-folded polynomial pipeline: fold
// and partition thetas by quadrant parity into the XA (even → evenP)
// and XB (odd → oddP) lanes, run each polynomial once over its
// gathered sub-batch, then scatter with the quadrant sign rule.
func polyQuadKernel(evenP, oddP *poly.Poly, negQ func(q uint8) bool) batchKernel {
	return func(xs, ys []float32, sc *lut.Scratch, counts *[maxCostClasses]uint64) {
		n := len(xs)
		sc.Grow(n)
		cls := sc.Cls[:n]
		xa := sc.XA[:0]
		xb := sc.XB[:0]
		for i, x := range xs {
			theta, q := rangered.FoldQuadrantHost(x)
			cls[i] = uint8(q)
			counts[q]++
			if q&1 == 0 {
				xa = append(xa, theta)
			} else {
				xb = append(xb, theta)
			}
		}
		ya := sc.YA[:len(xa)]
		yb := sc.YB[:len(xb)]
		evenP.EvalHostMany(xa, ya)
		oddP.EvalHostMany(xb, yb)
		j, k := 0, 0
		for i := range ys {
			q := cls[i]
			var v float32
			if q&1 == 0 {
				v = ya[j]
				j++
			} else {
				v = yb[k]
				k++
			}
			if negQ(q) {
				v = -v
			}
			ys[i] = v
		}
	}
}

func (o *Operator) buildPoly(dpu *pimsim.DPU) error {
	deg := o.Par.Degree
	switch o.Fn {
	case Sin, Cos, Tan:
		sinP, err := o.fit(math.Sin, XeonTrig, 0, math.Pi/2, deg)
		if err != nil {
			return err
		}
		cosP, err := o.fit(math.Cos, XeonTrig, 0, math.Pi/2, deg)
		if err != nil {
			return err
		}
		// Per quadrant only one of the two polynomials is needed:
		// sin(qπ/2+θ) = {sin θ, cos θ, −sin θ, −cos θ}[q].
		sinAt := func(ctx *pimsim.Ctx, x float32) float32 {
			theta, q := rangered.FoldQuadrant(ctx, x)
			var v float32
			ctx.Branch()
			if q&1 == 0 {
				v = sinP.Eval(ctx, theta)
			} else {
				v = cosP.Eval(ctx, theta)
			}
			if q >= 2 {
				v = ctx.FNeg(v)
			}
			return v
		}
		cosAt := func(ctx *pimsim.Ctx, x float32) float32 {
			theta, q := rangered.FoldQuadrant(ctx, x)
			var v float32
			ctx.Branch()
			if q&1 == 0 {
				v = cosP.Eval(ctx, theta)
			} else {
				v = sinP.Eval(ctx, theta)
			}
			if q == 1 || q == 2 {
				v = ctx.FNeg(v)
			}
			return v
		}
		switch o.Fn {
		case Sin:
			o.eval = sinAt
			o.mirror = quadMirror(polyQuadKernel(sinP, cosP, func(q uint8) bool { return q >= 2 }))
		case Cos:
			o.eval = cosAt
			o.mirror = quadMirror(polyQuadKernel(cosP, sinP, func(q uint8) bool { return q == 1 || q == 2 }))
		default:
			o.eval = func(ctx *pimsim.Ctx, x float32) float32 {
				return ctx.FDiv(sinAt(ctx, x), cosAt(ctx, x))
			}
			// Tan needs both polynomials per element: evaluate each over
			// all folded thetas, then apply both quadrant rules and divide.
			o.mirror = quadMirror(func(xs, ys []float32, sc *lut.Scratch, counts *[maxCostClasses]uint64) {
				n := len(xs)
				sc.Grow(n)
				cls := sc.Cls[:n]
				ts := sc.XB[:n]
				for i, x := range xs {
					theta, q := rangered.FoldQuadrantHost(x)
					ts[i] = theta
					cls[i] = uint8(q)
					counts[q]++
				}
				sp := sc.XA[:n]
				cp := sc.YA[:n]
				sinP.EvalHostMany(ts, sp)
				cosP.EvalHostMany(ts, cp)
				for i := range ys {
					q := cls[i]
					s, c := sp[i], cp[i]
					if q&1 != 0 {
						s, c = c, s
					}
					if q >= 2 {
						s = -s
					}
					if q == 1 || q == 2 {
						c = -c
					}
					ys[i] = s / c
				}
			})
		}
		return nil

	case Atan:
		// Chebyshev over [−8, 8] converges too slowly (poles at ±i), so
		// the baseline reduces by reciprocal: atan(x) = sign·(π/2 −
		// atan(1/|x|)) for |x| > 1, with one polynomial on [0, 1].
		p, err := o.fit(math.Atan, XeonTrig, 0, 1, deg)
		if err != nil {
			return err
		}
		o.eval = func(ctx *pimsim.Ctx, x float32) float32 {
			ax := ctx.FAbs(x)
			ctx.Branch()
			var v float32
			if ctx.FCmp(ax, 1) <= 0 {
				v = p.Eval(ctx, ax)
			} else {
				v = ctx.FSub(rangered.HalfPi, p.Eval(ctx, ctx.FDiv(1, ax)))
			}
			ctx.Branch()
			if ctx.FCmp(x, 0) < 0 {
				v = ctx.FNeg(v)
			}
			return v
		}
		// Classes: (|x| ≤ 1 vs reciprocal-reduced) × (sign negation).
		// The kernel partitions |x| ≤ 1 (NaN included, as FCmp(ax, 1) <=
		// 0 holds for it) into the XA lane and the reciprocal-reduced
		// arguments into XB, one polynomial pass per partition, then
		// scatters with the reciprocal and sign fix-ups.
		o.mirror = &opMirror{n: 4, reps: [maxCostClasses]float32{0.5, 2, -0.5, -2}, kernel: func(xs, ys []float32, sc *lut.Scratch, counts *[maxCostClasses]uint64) {
			n := len(xs)
			sc.Grow(n)
			cls := sc.Cls[:n]
			xa := sc.XA[:0]
			xb := sc.XB[:0]
			for i, x := range xs {
				ax := fpbits.FromBits(fpbits.Bits(x) &^ fpbits.SignMask)
				c := 0
				if !(ax > 1) {
					xa = append(xa, ax)
				} else {
					xb = append(xb, 1/ax)
					c = 1
				}
				if x < 0 {
					c += 2
				}
				cls[i] = uint8(c)
				counts[c]++
			}
			ya := sc.YA[:len(xa)]
			yb := sc.YB[:len(xb)]
			p.EvalHostMany(xa, ya)
			p.EvalHostMany(xb, yb)
			j, k := 0, 0
			for i := range ys {
				c := cls[i]
				var v float32
				if c&1 == 0 {
					v = ya[j]
					j++
				} else {
					v = rangered.HalfPi - yb[k]
					k++
				}
				if c&2 != 0 {
					v = -v
				}
				ys[i] = v
			}
		}}
		return nil
	}

	// One polynomial over the core range: exp (and sinh, cosh, tanh and
	// sigmoid over it), log, sqrt or GELU, which needs twice the degree.
	fn := o.Fn
	switch fn {
	case Sinh, Cosh, Tanh, Sigmoid:
		fn = Exp
	case GELU:
		deg = clampInt(deg*2, deg, 25)
	}
	lo, hi := fn.CoreRange()
	p, err := o.fit(fn.Ref(), fn.refCycles(), lo, hi, deg)
	if err != nil {
		return err
	}
	if fn == Exp {
		o.expFamily(p.Eval, p.EvalHostMany)
	} else {
		o.compose(p.Eval, p.EvalHostMany)
	}
	return nil
}
