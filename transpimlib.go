package transpimlib

import (
	"fmt"

	"transpimlib/internal/core"
	"transpimlib/internal/pimsim"
)

// Function identifies a supported function. The zero value is Sin.
type Function = core.Function

// The functions TransPimLib supports (Table 2 of the paper).
const (
	Sin  = core.Sin
	Cos  = core.Cos
	Tan  = core.Tan
	Sinh = core.Sinh
	Cosh = core.Cosh
	Tanh = core.Tanh
	Exp  = core.Exp
	Log  = core.Log
	Sqrt = core.Sqrt
	GELU = core.GELU
	// Extensions beyond the paper's Table 2 (see internal/core):
	Atan    = core.Atan
	Sigmoid = core.Sigmoid
)

// Functions lists every supported function.
func Functions() []Function { return core.Functions() }

// Method identifies an implementation method (§3 of the paper). The
// zero value is CORDIC.
type Method = core.Method

// The implementation methods.
const (
	CORDIC    = core.CORDIC    // shift-add iterations
	CORDICLUT = core.CORDICLUT // LUT head + CORDIC tail
	MLUT      = core.MLUT      // multiplication-addressed fuzzy LUT
	LLUT      = core.LLUT      // ldexp-addressed fuzzy LUT
	LLUTFixed = core.LLUTFixed // Q3.28 fixed-point L-LUT
	DLUT      = core.DLUT      // direct float-bits-addressed LUT
	DLLUT     = core.DLLUT     // L-LUT near zero + D-LUT beyond
	Poly      = core.Poly      // polynomial-approximation baseline
)

// Methods lists every implementation method.
func Methods() []Method { return core.Methods() }

// Placement selects which PIM memory holds lookup tables.
type Placement = pimsim.Placement

// Table placements: the 64-KB scratchpad or the core's DRAM bank.
const (
	InWRAM = pimsim.InWRAM
	InMRAM = pimsim.InMRAM
)

// Supports reports whether method m implements function f (Table 2).
func Supports(m Method, f Function) bool { return m.Supports(f) }

// SupportMatrix renders the method × function support table.
func SupportMatrix() string { return core.SupportMatrix() }

// Config selects the method configuration a Lib compiles with. The
// zero value is a high-accuracy pure CORDIC.
type Config struct {
	Method       Method
	Interpolated bool      // LUT interpolation variant
	SizeLog2     int       // LUT density knob (default 10)
	Iterations   int       // CORDIC iterations (default 30)
	HeadBits     int       // CORDIC+LUT head density (default 8)
	Degree       int       // Poly baseline degree (default 9)
	Placement    Placement // table placement (default WRAM)
	WideRange    bool      // prepend 2π reduction to trig functions

	// PIM optionally supplies the simulated core to compile onto; a
	// fresh single core is created otherwise.
	PIM *pimsim.DPU
}

func (c Config) params() core.Params {
	return core.Params{
		Method:     c.Method,
		Interp:     c.Interpolated,
		SizeLog2:   c.SizeLog2,
		Iterations: c.Iterations,
		HeadBits:   c.HeadBits,
		Degree:     c.Degree,
		Placement:  c.Placement,
		WideRange:  c.WideRange,
	}
}

// Lib is a TransPimLib instance: a set of functions compiled for one
// method configuration onto one simulated PIM core. The host-side
// setup (table generation and transfer) happens in New; the per-call
// device execution happens in the Sinf-style methods.
//
// A Lib is not safe for concurrent use: it models a single PIM core.
type Lib struct {
	cfg Config
	dpu *pimsim.DPU
	ctx *pimsim.Ctx
	ops []*core.Operator // indexed by Function; nil when not compiled

	setupSeconds float64
	tableBytes   int
}

// New compiles the given functions (all functions the method supports,
// when none are named) with the configuration. It returns an error for
// unsupported (method, function) pairs or when tables do not fit the
// selected memory.
func New(cfg Config, fns ...Function) (*Lib, error) {
	dpu := cfg.PIM
	if dpu == nil {
		dpu = pimsim.NewDPU(0, pimsim.Default(), pimsim.DefaultTasklets)
	}
	if len(fns) == 0 {
		for _, f := range Functions() {
			if cfg.Method.Supports(f) {
				fns = append(fns, f)
			}
		}
	}
	l := &Lib{cfg: cfg, dpu: dpu, ctx: dpu.NewCtx(), ops: make([]*core.Operator, len(Functions()))}
	for _, f := range fns {
		if l.Compiled(f) {
			continue
		}
		op, err := core.Build(f, cfg.params(), dpu)
		if err != nil {
			return nil, fmt.Errorf("transpimlib: %w", err)
		}
		l.ops[f] = op
		l.setupSeconds += op.SetupSeconds()
		l.tableBytes += op.TableBytes()
	}
	dpu.ResetCycles() // setup is not execution
	return l, nil
}

// PIM returns the simulated core the library is compiled onto.
func (l *Lib) PIM() *pimsim.DPU { return l.dpu }

// Cycles returns the PIM core's cycle counter: total modeled execution
// cycles of all calls since New (or the last ResetCycles).
func (l *Lib) Cycles() uint64 { return l.dpu.Cycles() }

// ResetCycles zeroes the cycle counter.
func (l *Lib) ResetCycles() { l.dpu.ResetCycles() }

// SetupSeconds returns the modeled setup time: table generation priced
// on the model Xeon host plus the Host→PIM transfer (§4.1.1).
func (l *Lib) SetupSeconds() float64 { return l.setupSeconds }

// TableBytes returns the PIM memory consumed by tables and constants.
func (l *Lib) TableBytes() int { return l.tableBytes }

// Eval computes fn(x) on the PIM core. It panics if fn was not
// compiled into the library; use Compiled to check.
func (l *Lib) Eval(fn Function, x float32) float32 {
	return l.op(fn).Eval(l.ctx, x)
}

// Compiled reports whether fn is available in this library instance.
func (l *Lib) Compiled(fn Function) bool {
	return uint(fn) < uint(len(l.ops)) && l.ops[fn] != nil
}

// op returns fn's compiled operator, panicking if there is none.
func (l *Lib) op(fn Function) *core.Operator {
	if !l.Compiled(fn) {
		panic(fmt.Sprintf("transpimlib: %v was not compiled into this Lib", fn))
	}
	return l.ops[fn]
}

// EvalSlice computes fn over a whole slice, writing into out (which
// must be at least as long as xs) — the microbenchmark access pattern:
// one streamed chunk DMA, then element-wise evaluation.
func (l *Lib) EvalSlice(fn Function, xs, out []float32) {
	op := l.op(fn)
	l.ctx.ChargeDMA(4 * len(xs))
	if op.HasFastPath() {
		op.EvalBatch(l.ctx, xs, out)
		// Bulk-charge the loop control the per-element path pays: one
		// Charge(2) — one OpCtrl op, two cycles — per element.
		var ops pimsim.Counters
		ops.Ops[pimsim.OpCtrl] = uint64(len(xs))
		ops.Cycles[pimsim.OpCtrl] = 2 * uint64(len(xs))
		l.ctx.ChargeOps(ops)
	} else {
		for i, x := range xs {
			out[i] = op.Eval(l.ctx, x)
			l.ctx.Charge(2)
		}
	}
	l.ctx.ChargeDMA(4 * len(xs))
}

// The paper-style scalar API (float sinf(float x), §2.2.3).

// Sinf returns sin(x), x in [0, 2π] (any x with Config.WideRange).
func (l *Lib) Sinf(x float32) float32 { return l.Eval(Sin, x) }

// Cosf returns cos(x), x in [0, 2π] (any x with Config.WideRange).
func (l *Lib) Cosf(x float32) float32 { return l.Eval(Cos, x) }

// Tanf returns tan(x), x in [0, 2π] (any x with Config.WideRange).
func (l *Lib) Tanf(x float32) float32 { return l.Eval(Tan, x) }

// Sinhf returns sinh(x) for x in [-2, 2].
func (l *Lib) Sinhf(x float32) float32 { return l.Eval(Sinh, x) }

// Coshf returns cosh(x) for x in [-2, 2].
func (l *Lib) Coshf(x float32) float32 { return l.Eval(Cosh, x) }

// Tanhf returns tanh(x) for x in [-7.9, 7.9].
func (l *Lib) Tanhf(x float32) float32 { return l.Eval(Tanh, x) }

// Expf returns e^x over the full float range (range extension built in).
func (l *Lib) Expf(x float32) float32 { return l.Eval(Exp, x) }

// Logf returns ln(x) for positive x (range extension built in).
func (l *Lib) Logf(x float32) float32 { return l.Eval(Log, x) }

// Sqrtf returns √x for non-negative x (range extension built in).
func (l *Lib) Sqrtf(x float32) float32 { return l.Eval(Sqrt, x) }

// Geluf returns GELU(x) for x in [-7.9, 7.9].
func (l *Lib) Geluf(x float32) float32 { return l.Eval(GELU, x) }

// Atanf returns arctan(x) for x in [-7.9, 7.9] (extension function).
func (l *Lib) Atanf(x float32) float32 { return l.Eval(Atan, x) }

// Sigmoidf returns 1/(1+e^{−x}) for x in [-7.9, 7.9] (extension
// function).
func (l *Lib) Sigmoidf(x float32) float32 { return l.Eval(Sigmoid, x) }

// Powf returns x^y for positive x, composed as e^{y·ln x} from the
// library's exponential and logarithm (both must be compiled in) plus
// one float multiply — general exponentiation in the sense of §2.2.3's
// exponent/mantissa identities.
func (l *Lib) Powf(x, y float32) float32 {
	lg := l.Eval(Log, x)
	l.ctx.Charge(0)
	return l.Eval(Exp, l.ctx.FMul(y, lg))
}
