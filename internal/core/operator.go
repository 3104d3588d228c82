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
	// an unmetered bit-exact host twin of eval plus one pre-recorded
	// cost signature per control-flow class. mirror is nil when only
	// the interpreted path is available.
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
// evaluator.
func Build(fn Function, p Params, dpu *pimsim.DPU) (*Operator, error) {
	p = p.withDefaults()
	if !p.Method.Supports(fn) {
		return nil, fmt.Errorf("core: %v does not support %v (see Table 2)", p.Method, fn)
	}
	o := &Operator{Fn: fn, Par: p}
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
	// host math library the accuracy metrics compare against.
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
		o.mirror = wrapLogGuard(o.mirror)
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
		o.mirror = wrapSqrtGuard(o.mirror)
	}
	o.recordSigs(dpu.Model())
	// Table transfer to a single PIM core's DRAM bank proceeds at the
	// serial (single-bank) bandwidth.
	o.transferSeconds = float64(o.tableBytes) / pimsim.DefaultSerialBandwidth
	return o, nil
}

// ---------- CORDIC ----------

var halfPi64 = cordic.FromFloat(math.Pi / 2)

// tanQuadrantHost is the quadrant fix-up of the CORDIC Tan mirrors:
// both trig fix-ups then the quotient, matching the scalar path.
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
	switch o.Fn {
	case Sin, Cos, Tan:
		tb, dev, err := o.loadCORDIC(dpu, cordic.Circular)
		if err != nil {
			return err
		}
		sincos := func(ctx *pimsim.Ctx, x float32) (float32, float32) {
			xf := ctx.F32ToFix64(x, cordic.FracBits)
			theta, q := foldQuadrant64(ctx, xf)
			s64, c64 := dev.SinCos(ctx, theta)
			s := ctx.Fix64ToF32(s64, cordic.FracBits)
			c := ctx.Fix64ToF32(c64, cordic.FracBits)
			return rangered.ApplySinQuadrant(ctx, s, c, q), rangered.ApplyCosQuadrant(ctx, s, c, q)
		}
		sincosM := func(x float32) (float32, float32, rangered.Quadrant) {
			theta, q := foldQuadrant64Host(fix64FromF32(x))
			s64, c64 := tb.SinCosHost(theta)
			s := fix64ToF32(s64)
			c := fix64ToF32(c64)
			return rangered.ApplySinQuadrantHost(s, c, q), rangered.ApplyCosQuadrantHost(s, c, q), q
		}
		switch o.Fn {
		case Sin:
			o.eval = func(ctx *pimsim.Ctx, x float32) float32 { s, _ := sincos(ctx, x); return s }
			o.mirror = &opMirror{n: 4, reps: quadrantReps(), eval: func(x float32) (float32, int) {
				s, _, q := sincosM(x)
				return s, int(q)
			}}
			o.mirror.kernel = sincosKernel(tb.SinCosHostMany, rangered.ApplySinQuadrantHost)
		case Cos:
			o.eval = func(ctx *pimsim.Ctx, x float32) float32 { _, c := sincos(ctx, x); return c }
			o.mirror = &opMirror{n: 4, reps: quadrantReps(), eval: func(x float32) (float32, int) {
				_, c, q := sincosM(x)
				return c, int(q)
			}}
			o.mirror.kernel = sincosKernel(tb.SinCosHostMany, rangered.ApplyCosQuadrantHost)
		default: // Tan: sine, cosine and one float division (§4.2.4)
			o.eval = func(ctx *pimsim.Ctx, x float32) float32 {
				s, c := sincos(ctx, x)
				return ctx.FDiv(s, c)
			}
			o.mirror = &opMirror{n: 4, reps: quadrantReps(), eval: func(x float32) (float32, int) {
				s, c, q := sincosM(x)
				return s / c, int(q)
			}}
			o.mirror.kernel = sincosKernel(tb.SinCosHostMany, tanQuadrantHost)
		}
		return nil

	case Atan:
		// Circular vectoring of (1, x): the whole arctangent image fits
		// inside the mode's convergence range, so no extension is needed.
		tb, dev, err := o.loadCORDIC(dpu, cordic.Circular)
		if err != nil {
			return err
		}
		o.eval = func(ctx *pimsim.Ctx, x float32) float32 {
			z := dev.Atan(ctx, ctx.F32ToFix64(x, cordic.FracBits))
			return ctx.Fix64ToF32(z, cordic.FracBits)
		}
		o.mirror = mirror1(func(x float32) float32 {
			return fix64ToF32(tb.AtanHost(fix64FromF32(x)))
		}, 0.7)
		o.mirror.kernel = plainKernel(func(xs, ys []float32) {
			for i, x := range xs {
				ys[i] = fix64ToF32(tb.AtanHost(fix64FromF32(x)))
			}
		})
		return nil

	case Sinh, Cosh, Tanh, Exp, Log, Sqrt, Sigmoid:
		tb, dev, err := o.loadCORDIC(dpu, cordic.Hyperbolic)
		if err != nil {
			return err
		}
		expCore := func(ctx *pimsim.Ctx, x float32) float32 {
			r, k := rangered.SplitExp(ctx, x)
			er := ctx.Fix64ToF32(dev.Exp(ctx, ctx.F32ToFix64(r, cordic.FracBits)), cordic.FracBits)
			return rangered.JoinExp(ctx, er, k)
		}
		expCoreM := func(x float32) float32 {
			r, k := rangered.SplitExpHost(x)
			er := fix64ToF32(tb.ExpHost(fix64FromF32(r)))
			return rangered.JoinExpHost(er, k)
		}
		switch o.Fn {
		case Exp:
			o.eval = expCore
			o.mirror = mirror1(expCoreM, 0.7)
		case Sinh:
			o.eval = func(ctx *pimsim.Ctx, x float32) float32 {
				ex := expCore(ctx, x)
				emx := ctx.FDiv(1, ex)
				return ctx.FMul(0.5, ctx.FSub(ex, emx))
			}
			o.mirror = mirror1(func(x float32) float32 {
				ex := expCoreM(x)
				return 0.5 * (ex - 1/ex)
			}, 0.5)
		case Cosh:
			o.eval = func(ctx *pimsim.Ctx, x float32) float32 {
				ex := expCore(ctx, x)
				emx := ctx.FDiv(1, ex)
				return ctx.FMul(0.5, ctx.FAdd(ex, emx))
			}
			o.mirror = mirror1(func(x float32) float32 {
				ex := expCoreM(x)
				return 0.5 * (ex + 1/ex)
			}, 0.5)
		case Tanh:
			// tanh x = 1 − 2/(e^{2x}+1), valid over the whole line.
			o.eval = func(ctx *pimsim.Ctx, x float32) float32 {
				e2 := expCore(ctx, ctx.FAdd(x, x))
				return ctx.FSub(1, ctx.FDiv(2, ctx.FAdd(e2, 1)))
			}
			o.mirror = mirror1(func(x float32) float32 {
				e2 := expCoreM(x + x)
				return 1 - 2/(e2+1)
			}, 0.5)
		case Sigmoid:
			// S(x) = 1/(1+e^{−x}).
			o.eval = func(ctx *pimsim.Ctx, x float32) float32 {
				e := expCore(ctx, ctx.FNeg(x))
				return ctx.FDiv(1, ctx.FAdd(1, e))
			}
			o.mirror = mirror1(func(x float32) float32 {
				e := expCoreM(-x)
				return 1 / (1 + e)
			}, 0.5)
		case Log:
			o.eval = func(ctx *pimsim.Ctx, x float32) float32 {
				m, e := rangered.SplitLog(ctx, x)
				lm := ctx.Fix64ToF32(dev.Ln(ctx, ctx.F32ToFix64(m, cordic.FracBits)), cordic.FracBits)
				return rangered.JoinLog(ctx, lm, e)
			}
			o.mirror = mirror1(func(x float32) float32 {
				m, e := rangered.SplitLogHost(x)
				lm := fix64ToF32(tb.LnHost(fix64FromF32(m)))
				return rangered.JoinLogHost(lm, e)
			}, 0.7)
		default: // Sqrt
			o.eval = func(ctx *pimsim.Ctx, x float32) float32 {
				m, h := rangered.SplitSqrt(ctx, x)
				sm := ctx.Fix64ToF32(dev.Sqrt(ctx, ctx.F32ToFix64(m, cordic.FracBits)), cordic.FracBits)
				return rangered.JoinSqrt(ctx, sm, h)
			}
			o.mirror = sqrtParityMirror(func(m float32) float32 {
				return fix64ToF32(tb.SqrtHost(fix64FromF32(m)))
			}, nil)
		}
		return nil
	}
	return fmt.Errorf("core: cordic cannot compute %v", o.Fn)
}

func (o *Operator) buildCORDICLUT(dpu *pimsim.DPU) error {
	la, err := cordic.NewLUTAssist(dpu, o.Par.Placement, o.Par.HeadBits, o.Par.Iterations)
	if err != nil {
		return err
	}
	o.tableBytes = la.TableBytes()
	head, tail := la.Constants()
	o.hostCycles = tableCycles(head, 2*XeonTrig) + cordicCycles(tail)
	sincos := func(ctx *pimsim.Ctx, x float32) (float32, float32) {
		xf := ctx.F32ToFix64(x, cordic.FracBits)
		theta, q := foldQuadrant64(ctx, xf)
		s64, c64 := la.SinCos(ctx, theta)
		s := ctx.Fix64ToF32(s64, cordic.FracBits)
		c := ctx.Fix64ToF32(c64, cordic.FracBits)
		return rangered.ApplySinQuadrant(ctx, s, c, q), rangered.ApplyCosQuadrant(ctx, s, c, q)
	}
	sincosM := func(x float32) (float32, float32, rangered.Quadrant) {
		theta, q := foldQuadrant64Host(fix64FromF32(x))
		s64, c64 := la.SinCosHost(theta)
		s := fix64ToF32(s64)
		c := fix64ToF32(c64)
		return rangered.ApplySinQuadrantHost(s, c, q), rangered.ApplyCosQuadrantHost(s, c, q), q
	}
	switch o.Fn {
	case Sin:
		o.eval = func(ctx *pimsim.Ctx, x float32) float32 { s, _ := sincos(ctx, x); return s }
		o.mirror = &opMirror{n: 4, reps: quadrantReps(), eval: func(x float32) (float32, int) {
			s, _, q := sincosM(x)
			return s, int(q)
		}}
		o.mirror.kernel = sincosKernel(la.SinCosHostMany, rangered.ApplySinQuadrantHost)
	case Cos:
		o.eval = func(ctx *pimsim.Ctx, x float32) float32 { _, c := sincos(ctx, x); return c }
		o.mirror = &opMirror{n: 4, reps: quadrantReps(), eval: func(x float32) (float32, int) {
			_, c, q := sincosM(x)
			return c, int(q)
		}}
		o.mirror.kernel = sincosKernel(la.SinCosHostMany, rangered.ApplyCosQuadrantHost)
	case Tan:
		o.eval = func(ctx *pimsim.Ctx, x float32) float32 {
			s, c := sincos(ctx, x)
			return ctx.FDiv(s, c)
		}
		o.mirror = &opMirror{n: 4, reps: quadrantReps(), eval: func(x float32) (float32, int) {
			s, c, q := sincosM(x)
			return s / c, int(q)
		}}
		o.mirror.kernel = sincosKernel(la.SinCosHostMany, tanQuadrantHost)
	default:
		return fmt.Errorf("core: cordic+lut cannot compute %v", o.Fn)
	}
	return nil
}

// ---------- float LUTs (M-LUT, L-LUT) ----------

// floatLUTFor builds one table of ref over [lo, hi] for the configured
// method and returns its device evaluator, its unmetered bit-exact
// mirror (scalar and fused-slice forms), and byte size.
func (o *Operator) floatLUTFor(dpu *pimsim.DPU, ref func(float64) float64, lo, hi float64) (func(*pimsim.Ctx, float32) float32, func(float32) float32, func(xs, ys []float32), int, error) {
	if o.Par.Method == MLUT {
		entries := 1 << o.Par.SizeLog2
		t, err := lut.BuildMLUT(ref, lo, hi, entries, o.Par.Interp)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		dev, err := t.Load(dpu, o.Par.Placement)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		o.hostCycles += tableCycles(len(t.Entries), o.Fn.refCycles())
		return dev.Eval, dev.Mirror, dev.MirrorMany, t.Bytes(), nil
	}
	n := densityExp(lo, hi, o.Par.SizeLog2)
	t, err := lut.BuildLLUT(ref, lo, hi, n, o.Par.Interp)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	dev, err := t.Load(dpu, o.Par.Placement)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	o.hostCycles += tableCycles(len(t.Entries), o.Fn.refCycles())
	return dev.Eval, dev.Mirror, dev.MirrorMany, t.Bytes(), nil
}

// densityExp picks the power-of-two density exponent so that about
// 2^sizeLog2 entries cover [lo, hi].
func densityExp(lo, hi float64, sizeLog2 int) int {
	return sizeLog2 - int(math.Ceil(math.Log2(hi-lo)))
}

func (o *Operator) buildFloatLUT(dpu *pimsim.DPU) error {
	lo, hi := o.Fn.CoreRange()
	switch o.Fn {
	case Tan:
		sinEval, sinM, sinMany, sinBytes, err := o.floatLUTFor(dpu, math.Sin, lo, hi)
		if err != nil {
			return err
		}
		cosEval, cosM, cosMany, cosBytes, err := o.floatLUTFor(dpu, math.Cos, lo, hi)
		if err != nil {
			return err
		}
		o.tableBytes = sinBytes + cosBytes
		o.eval = func(ctx *pimsim.Ctx, x float32) float32 {
			return ctx.FDiv(sinEval(ctx, x), cosEval(ctx, x))
		}
		o.mirror = mirror1(func(x float32) float32 {
			return sinM(x) / cosM(x)
		}, float32((lo+hi)/2))
		o.mirror.kernel = divKernel(sinMany, cosMany)
		return nil
	case Exp:
		eval, evalM, evalMany, bytes, err := o.floatLUTFor(dpu, math.Exp, lo, hi)
		if err != nil {
			return err
		}
		o.tableBytes = bytes
		o.eval = func(ctx *pimsim.Ctx, x float32) float32 {
			r, k := rangered.SplitExp(ctx, x)
			return rangered.JoinExp(ctx, eval(ctx, r), k)
		}
		o.mirror = mirror1(func(x float32) float32 {
			r, k := rangered.SplitExpHost(x)
			return rangered.JoinExpHost(evalM(r), k)
		}, 0.7)
		o.mirror.kernel = expSplitKernel(evalMany)
		return nil
	case Log:
		eval, evalM, evalMany, bytes, err := o.floatLUTFor(dpu, math.Log, lo, hi)
		if err != nil {
			return err
		}
		o.tableBytes = bytes
		o.eval = func(ctx *pimsim.Ctx, x float32) float32 {
			m, e := rangered.SplitLog(ctx, x)
			return rangered.JoinLog(ctx, eval(ctx, m), e)
		}
		o.mirror = mirror1(func(x float32) float32 {
			m, e := rangered.SplitLogHost(x)
			return rangered.JoinLogHost(evalM(m), e)
		}, 0.7)
		o.mirror.kernel = logSplitKernel(evalMany)
		return nil
	case Sqrt:
		eval, evalM, evalMany, bytes, err := o.floatLUTFor(dpu, math.Sqrt, lo, hi)
		if err != nil {
			return err
		}
		o.tableBytes = bytes
		o.eval = func(ctx *pimsim.Ctx, x float32) float32 {
			m, h := rangered.SplitSqrt(ctx, x)
			return rangered.JoinSqrt(ctx, eval(ctx, m), h)
		}
		o.mirror = sqrtParityMirror(evalM, evalMany)
		return nil
	default: // direct-domain functions
		eval, evalM, evalMany, bytes, err := o.floatLUTFor(dpu, o.Fn.Ref(), lo, hi)
		if err != nil {
			return err
		}
		o.tableBytes = bytes
		o.eval = eval
		o.mirror = mirror1(evalM, float32((lo+hi)/2))
		o.mirror.kernel = plainKernel(evalMany)
		return nil
	}
}

// ---------- fixed-point L-LUT ----------

func (o *Operator) fixedLUTFor(dpu *pimsim.DPU, ref func(float64) float64, lo, hi float64) (*lut.DevFixedLLUT, int, error) {
	n := densityExp(lo, hi, o.Par.SizeLog2)
	if n < 0 {
		n = 0
	}
	if n > 26 {
		n = 26
	}
	t, err := lut.BuildFixedLLUT(ref, lo, hi, n, o.Par.Interp)
	if err != nil {
		return nil, 0, err
	}
	dev, err := t.Load(dpu, o.Par.Placement)
	if err != nil {
		return nil, 0, err
	}
	o.hostCycles += tableCycles(len(t.Entries), o.Fn.refCycles())
	return dev, t.Bytes(), nil
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
		dev, bytes, err := o.fixedLUTFor(dpu, o.Fn.Ref(), 0, hi)
		if err != nil {
			return err
		}
		o.tableBytes = bytes
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
		o.mirror = &opMirror{n: 2, reps: [maxCostClasses]float32{1, -1}, eval: func(x float32) (float32, int) {
			xq := fixed.FromFloat32(x)
			neg := int32(xq) < 0
			ax := xq
			if neg {
				ax = fixed.Q3_28(0).Sub(xq)
			}
			v := dev.Mirror(ax)
			if neg {
				switch fn {
				case GELU:
					v = v.Sub(ax)
				case Sigmoid:
					v = fixed.One.Sub(v)
				default:
					v = fixed.Q3_28(0).Sub(v)
				}
				return v.Float32(), 1
			}
			return v.Float32(), 0
		}}
		// Fused form: fold the sign into the QA lane tagging negatives,
		// one fixed-point table pass, then the per-function fix-up
		// scattered by tag.
		o.mirror.kernel = func(xs, ys []float32, sc *lut.Scratch, counts *[maxCostClasses]uint64) {
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
		}
		return nil
	case Tan:
		sinDev, sinBytes, err := o.fixedLUTFor(dpu, math.Sin, lo, hi)
		if err != nil {
			return err
		}
		cosDev, cosBytes, err := o.fixedLUTFor(dpu, math.Cos, lo, hi)
		if err != nil {
			return err
		}
		o.tableBytes = sinBytes + cosBytes
		o.eval = func(ctx *pimsim.Ctx, x float32) float32 {
			xq := ctx.QFromF(x)
			s := ctx.QToF(sinDev.Eval(ctx, xq))
			c := ctx.QToF(cosDev.Eval(ctx, xq))
			return ctx.FDiv(s, c)
		}
		o.mirror = mirror1(func(x float32) float32 {
			xq := fixed.FromFloat32(x)
			s := sinDev.Mirror(xq).Float32()
			c := cosDev.Mirror(xq).Float32()
			return s / c
		}, float32((lo+hi)/2))
		o.mirror.kernel = divKernel(sinDev.MirrorFloatMany, cosDev.MirrorFloatMany)
		return nil
	case Exp:
		dev, bytes, err := o.fixedLUTFor(dpu, math.Exp, lo, hi)
		if err != nil {
			return err
		}
		o.tableBytes = bytes
		o.eval = func(ctx *pimsim.Ctx, x float32) float32 {
			r, k := rangered.SplitExp(ctx, x)
			return rangered.JoinExp(ctx, dev.EvalFloat(ctx, r), k)
		}
		o.mirror = mirror1(func(x float32) float32 {
			r, k := rangered.SplitExpHost(x)
			return rangered.JoinExpHost(dev.MirrorFloat(r), k)
		}, 0.7)
		o.mirror.kernel = expSplitKernel(dev.MirrorFloatMany)
		return nil
	case Log:
		dev, bytes, err := o.fixedLUTFor(dpu, math.Log, lo, hi)
		if err != nil {
			return err
		}
		o.tableBytes = bytes
		o.eval = func(ctx *pimsim.Ctx, x float32) float32 {
			m, e := rangered.SplitLog(ctx, x)
			return rangered.JoinLog(ctx, dev.EvalFloat(ctx, m), e)
		}
		o.mirror = mirror1(func(x float32) float32 {
			m, e := rangered.SplitLogHost(x)
			return rangered.JoinLogHost(dev.MirrorFloat(m), e)
		}, 0.7)
		o.mirror.kernel = logSplitKernel(dev.MirrorFloatMany)
		return nil
	case Sqrt:
		dev, bytes, err := o.fixedLUTFor(dpu, math.Sqrt, lo, hi)
		if err != nil {
			return err
		}
		o.tableBytes = bytes
		o.eval = func(ctx *pimsim.Ctx, x float32) float32 {
			m, h := rangered.SplitSqrt(ctx, x)
			return rangered.JoinSqrt(ctx, dev.EvalFloat(ctx, m), h)
		}
		o.mirror = sqrtParityMirror(dev.MirrorFloat, dev.MirrorFloatMany)
		return nil
	default:
		dev, bytes, err := o.fixedLUTFor(dpu, o.Fn.Ref(), lo, hi)
		if err != nil {
			return err
		}
		o.tableBytes = bytes
		o.eval = dev.EvalFloat
		o.mirror = mirror1(dev.MirrorFloat, float32((lo+hi)/2))
		o.mirror.kernel = plainKernel(dev.MirrorFloatMany)
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
		o.tableBytes = t.Bytes()
		o.hostCycles = tableCycles(len(t.Pos)+len(t.Neg), o.Fn.refCycles())
		o.eval = dev.Eval
		o.mirror = mirror1(dev.Mirror, 1)
		o.mirror.kernel = plainKernel(dev.MirrorMany)
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
	o.tableBytes = t.Bytes()
	o.hostCycles = tableCycles(len(t.L.Entries)+len(t.D.Pos)+len(t.D.Neg), o.Fn.refCycles())
	o.eval = dev.Eval
	// The L-LUT serves |x| below the split point (2⁻⁴ here), the D-LUT
	// the rest — two distinct charge traces.
	o.mirror = &opMirror{n: 2, reps: [maxCostClasses]float32{0.01, 1.5}, eval: func(x float32) (float32, int) {
		v, l := dev.Mirror(x)
		if l {
			return v, 0
		}
		return v, 1
	}}
	o.mirror.kernel = func(xs, ys []float32, sc *lut.Scratch, counts *[maxCostClasses]uint64) {
		l := dev.MirrorMany(xs, ys, sc)
		counts[0] += uint64(l)
		counts[1] += uint64(len(xs) - l)
	}
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

// fit is poly.FitChebyshev with its samples priced on the model host
// at ref cycles per reference call.
func (o *Operator) fit(f func(float64) float64, ref float64, lo, hi float64, deg int) (*poly.Poly, error) {
	p, err := poly.FitChebyshev(f, lo, hi, deg)
	if err != nil {
		return nil, err
	}
	o.hostCycles += fitCycles(len(p.Coeffs), ref)
	return p, nil
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
		o.tableBytes = sinP.Bytes() + cosP.Bytes()
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
		sinAtH := func(x float32) (float32, rangered.Quadrant) {
			theta, q := rangered.FoldQuadrantHost(x)
			var v float32
			if q&1 == 0 {
				v = sinP.EvalHost(theta)
			} else {
				v = cosP.EvalHost(theta)
			}
			if q >= 2 {
				v = -v
			}
			return v, q
		}
		cosAtH := func(x float32) (float32, rangered.Quadrant) {
			theta, q := rangered.FoldQuadrantHost(x)
			var v float32
			if q&1 == 0 {
				v = cosP.EvalHost(theta)
			} else {
				v = sinP.EvalHost(theta)
			}
			if q == 1 || q == 2 {
				v = -v
			}
			return v, q
		}
		// polyQuadKernel fuses the quadrant-folded polynomial pipeline:
		// fold and partition thetas by quadrant parity into the XA
		// (even → evenP) and XB (odd → oddP) lanes, run each
		// polynomial once over its gathered sub-batch, then scatter
		// with the quadrant sign rule.
		polyQuadKernel := func(evenP, oddP *poly.Poly, negQ func(q uint8) bool) batchKernel {
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
		switch o.Fn {
		case Sin:
			o.eval = sinAt
			o.mirror = &opMirror{n: 4, reps: quadrantReps(), eval: func(x float32) (float32, int) {
				v, q := sinAtH(x)
				return v, int(q)
			}}
			o.mirror.kernel = polyQuadKernel(sinP, cosP, func(q uint8) bool { return q >= 2 })
		case Cos:
			o.eval = cosAt
			o.mirror = &opMirror{n: 4, reps: quadrantReps(), eval: func(x float32) (float32, int) {
				v, q := cosAtH(x)
				return v, int(q)
			}}
			o.mirror.kernel = polyQuadKernel(cosP, sinP, func(q uint8) bool { return q == 1 || q == 2 })
		default:
			o.eval = func(ctx *pimsim.Ctx, x float32) float32 {
				return ctx.FDiv(sinAt(ctx, x), cosAt(ctx, x))
			}
			o.mirror = &opMirror{n: 4, reps: quadrantReps(), eval: func(x float32) (float32, int) {
				s, q := sinAtH(x)
				c, _ := cosAtH(x)
				return s / c, int(q)
			}}
			// Tan needs both polynomials per element: evaluate each over
			// all folded thetas, then apply both quadrant rules and divide.
			o.mirror.kernel = func(xs, ys []float32, sc *lut.Scratch, counts *[maxCostClasses]uint64) {
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
			}
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
		o.tableBytes = p.Bytes()
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
		o.mirror = &opMirror{n: 4, reps: [maxCostClasses]float32{0.5, 2, -0.5, -2}, eval: func(x float32) (float32, int) {
			ax := fpbits.FromBits(fpbits.Bits(x) &^ fpbits.SignMask)
			var v float32
			cls := 0
			if !(ax > 1) { // FCmp(ax, 1) <= 0, NaN included
				v = p.EvalHost(ax)
			} else {
				v = rangered.HalfPi - p.EvalHost(1/ax)
				cls = 1
			}
			if x < 0 {
				v = -v
				cls += 2
			}
			return v, cls
		}}
		// Fused form: partition |x| ≤ 1 into the XA lane and the
		// reciprocal-reduced arguments into XB, one polynomial pass per
		// partition, then scatter with the reciprocal and sign fix-ups.
		o.mirror.kernel = func(xs, ys []float32, sc *lut.Scratch, counts *[maxCostClasses]uint64) {
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
		}
		return nil

	case Exp, Sinh, Cosh, Tanh, Sigmoid:
		lo, hi := Exp.CoreRange()
		expP, err := o.fit(math.Exp, XeonExp, lo, hi, deg)
		if err != nil {
			return err
		}
		o.tableBytes = expP.Bytes()
		expCore := func(ctx *pimsim.Ctx, x float32) float32 {
			r, k := rangered.SplitExp(ctx, x)
			return rangered.JoinExp(ctx, expP.Eval(ctx, r), k)
		}
		expCoreM := func(x float32) float32 {
			r, k := rangered.SplitExpHost(x)
			return rangered.JoinExpHost(expP.EvalHost(r), k)
		}
		expKernel := expSplitKernel(expP.EvalHostMany)
		switch o.Fn {
		case Exp:
			o.eval = expCore
			o.mirror = mirror1(expCoreM, 0.5)
			o.mirror.kernel = expKernel
		case Sigmoid:
			o.eval = func(ctx *pimsim.Ctx, x float32) float32 {
				e := expCore(ctx, ctx.FNeg(x))
				return ctx.FDiv(1, ctx.FAdd(1, e))
			}
			o.mirror = mirror1(func(x float32) float32 {
				e := expCoreM(-x)
				return 1 / (1 + e)
			}, 0.5)
			o.mirror.kernel = func(xs, ys []float32, sc *lut.Scratch, counts *[maxCostClasses]uint64) {
				n := len(xs)
				sc.Grow(n)
				nx := sc.XA[:n]
				for i, x := range xs {
					nx[i] = -x
				}
				expKernel(nx, ys, sc, counts)
				for i := range ys {
					ys[i] = 1 / (1 + ys[i])
				}
			}
		case Sinh:
			o.eval = func(ctx *pimsim.Ctx, x float32) float32 {
				ex := expCore(ctx, x)
				return ctx.FMul(0.5, ctx.FSub(ex, ctx.FDiv(1, ex)))
			}
			o.mirror = mirror1(func(x float32) float32 {
				ex := expCoreM(x)
				return 0.5 * (ex - 1/ex)
			}, 0.5)
			o.mirror.kernel = func(xs, ys []float32, sc *lut.Scratch, counts *[maxCostClasses]uint64) {
				expKernel(xs, ys, sc, counts)
				for i := range ys {
					ex := ys[i]
					ys[i] = 0.5 * (ex - 1/ex)
				}
			}
		case Cosh:
			o.eval = func(ctx *pimsim.Ctx, x float32) float32 {
				ex := expCore(ctx, x)
				return ctx.FMul(0.5, ctx.FAdd(ex, ctx.FDiv(1, ex)))
			}
			o.mirror = mirror1(func(x float32) float32 {
				ex := expCoreM(x)
				return 0.5 * (ex + 1/ex)
			}, 0.5)
			o.mirror.kernel = func(xs, ys []float32, sc *lut.Scratch, counts *[maxCostClasses]uint64) {
				expKernel(xs, ys, sc, counts)
				for i := range ys {
					ex := ys[i]
					ys[i] = 0.5 * (ex + 1/ex)
				}
			}
		default: // Tanh
			o.eval = func(ctx *pimsim.Ctx, x float32) float32 {
				e2 := expCore(ctx, ctx.FAdd(x, x))
				return ctx.FSub(1, ctx.FDiv(2, ctx.FAdd(e2, 1)))
			}
			o.mirror = mirror1(func(x float32) float32 {
				e2 := expCoreM(x + x)
				return 1 - 2/(e2+1)
			}, 0.5)
			o.mirror.kernel = func(xs, ys []float32, sc *lut.Scratch, counts *[maxCostClasses]uint64) {
				n := len(xs)
				sc.Grow(n)
				dx := sc.XA[:n]
				for i, x := range xs {
					dx[i] = x + x
				}
				expKernel(dx, ys, sc, counts)
				for i := range ys {
					ys[i] = 1 - 2/(ys[i]+1)
				}
			}
		}
		return nil

	case Log:
		lo, hi := Log.CoreRange()
		p, err := o.fit(math.Log, XeonLog, lo, hi, deg)
		if err != nil {
			return err
		}
		o.tableBytes = p.Bytes()
		o.eval = func(ctx *pimsim.Ctx, x float32) float32 {
			m, e := rangered.SplitLog(ctx, x)
			return rangered.JoinLog(ctx, p.Eval(ctx, m), e)
		}
		o.mirror = mirror1(func(x float32) float32 {
			m, e := rangered.SplitLogHost(x)
			return rangered.JoinLogHost(p.EvalHost(m), e)
		}, 0.7)
		o.mirror.kernel = logSplitKernel(p.EvalHostMany)
		return nil

	case Sqrt:
		lo, hi := Sqrt.CoreRange()
		p, err := o.fit(math.Sqrt, XeonSqrt, lo, hi, deg)
		if err != nil {
			return err
		}
		o.tableBytes = p.Bytes()
		o.eval = func(ctx *pimsim.Ctx, x float32) float32 {
			m, h := rangered.SplitSqrt(ctx, x)
			return rangered.JoinSqrt(ctx, p.Eval(ctx, m), h)
		}
		o.mirror = sqrtParityMirror(p.EvalHost, p.EvalHostMany)
		return nil

	case GELU:
		lo, hi := GELU.CoreRange()
		p, err := o.fit(geluRef, GELU.refCycles(), lo, hi, clampInt(deg*2, deg, 25))
		if err != nil {
			return err
		}
		o.tableBytes = p.Bytes()
		o.eval = p.Eval
		o.mirror = mirror1(p.EvalHost, float32((lo+hi)/2))
		o.mirror.kernel = plainKernel(p.EvalHostMany)
		return nil
	}
	return fmt.Errorf("core: poly cannot compute %v", o.Fn)
}
