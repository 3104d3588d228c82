package core

import (
	"math"

	"transpimlib/internal/pimsim"
)

// FusedOperator is the device-primitive table behind fused programs
// (internal/fusion): the elementwise and reduction steps that ride in
// the same streamed kernel loop as a transcendental Operator, each with
// a bit-exact host mirror and a pre-recorded single-class cost
// signature in the PR 3/8 style. Every primitive's charge sequence is
// straight-line — the max/accumulate selects are compiled branchless
// (compare + conditional move, charged unconditionally) — so one
// signature per op covers the whole input space exactly and the batch
// fast path bulk-charges signature × count with accounting
// bit-identical to the per-element interpreted walk.

// ElemOp identifies one fused elementwise primitive.
type ElemOp uint8

// The elementwise primitives.
const (
	ElemAdd ElemOp = iota
	ElemSub
	ElemMul
	ElemDiv
	ElemMax
	NumElemOps
)

var elemOpNames = [...]string{"add", "sub", "mul", "div", "max"}

// String returns the op's lowercase name.
func (op ElemOp) String() string {
	if int(op) >= len(elemOpNames) {
		return "elem?"
	}
	return elemOpNames[op]
}

// ReduceOp identifies one fused reduction primitive.
type ReduceOp uint8

// The reduction primitives.
const (
	ReduceSum ReduceOp = iota
	ReduceMax
	NumReduceOps
)

var reduceOpNames = [...]string{"sum", "max"}

// String returns the op's lowercase name.
func (op ReduceOp) String() string {
	if int(op) >= len(reduceOpNames) {
		return "reduce?"
	}
	return reduceOpNames[op]
}

// FusedOperator carries the recorded cost signatures of the fused
// primitives under one cost model. Build once per compiled program
// with NewFusedOperator; safe for concurrent read-only use.
type FusedOperator struct {
	elem [NumElemOps]pimsim.CostSig
	red  [NumReduceOps]pimsim.CostSig

	// scalarLoad/scalarStore are the per-lane costs of reading a
	// broadcast scalar out of the streamed chunk and of parking a
	// reduction partial for the host gather — the WRAM access the
	// SoftmaxPIM workload kernel charges for the same steps.
	scalarLoad  pimsim.CostSig
	scalarStore pimsim.CostSig
}

// NewFusedOperator records the primitive signatures on a throwaway
// core under the given cost model.
func NewFusedOperator(model pimsim.CostModel) *FusedOperator {
	f := &FusedOperator{}
	rec := pimsim.NewSigRecorder(model)
	for op := ElemOp(0); op < NumElemOps; op++ {
		rec.TakeSig()
		f.ElemEval(rec, op, 1, 2)
		f.elem[op] = rec.TakeSig()
	}
	for op := ReduceOp(0); op < NumReduceOps; op++ {
		rec.TakeSig()
		f.ReduceEval(rec, op, 1, 2)
		f.red[op] = rec.TakeSig()
	}
	rec.TakeSig()
	_ = rec.LoadStreamedF32(rec.DPU().MRAM, 0)
	f.scalarLoad = rec.TakeSig()
	rec.StoreStreamedF32(rec.DPU().MRAM, 0, 0)
	f.scalarStore = rec.TakeSig()
	return f
}

// ElemEval computes op(a, b) on the PIM core through ctx — the
// interpreted reference path. ElemMax is the branchless select:
// compare then conditional move, both charged regardless of which
// operand wins, so the cost never depends on the data. Add and mul
// pick their NaN with FirstNaN after the charged op.
func (f *FusedOperator) ElemEval(ctx *pimsim.Ctx, op ElemOp, a, b float32) float32 {
	switch op {
	case ElemAdd:
		return FirstNaN(a, b, ctx.FAdd(a, b))
	case ElemSub:
		return ctx.FSub(a, b)
	case ElemMul:
		return FirstNaN(a, b, ctx.FMul(a, b))
	case ElemDiv:
		return ctx.FDiv(a, b)
	case ElemMax:
		c := ctx.FCmp(a, b)
		ctx.Move()
		if c < 0 {
			return b
		}
		return a
	}
	panic("core: bad elem op")
}

// FirstNaN fixes which NaN a commutative op returns: a quieted when a
// is a NaN, else b quieted when b is, else r — the op's own result,
// which is then either a number or a NaN the op generated (Inf−Inf,
// 0·Inf), the same in either operand order. Without it, when both
// operands are NaNs the result's bits follow the register the
// compiler happened to put each operand in: amd64's ADDSS/MULSS
// return the destination's NaN, and Go may commute a+b and a*b. Sub
// and div need no rule: Go never swaps their operands, so every path
// picks the same NaN.
func FirstNaN(a, b, r float32) float32 {
	if a != a {
		return math.Float32frombits(math.Float32bits(a) | quietBit)
	}
	if b != b {
		return math.Float32frombits(math.Float32bits(b) | quietBit)
	}
	return r
}

// quietBit is the float32 quiet-NaN bit: the top significand bit,
// which the arithmetic sets on a signalling NaN operand it returns.
const quietBit = 1 << 22

// ElemApply is the unmetered host mirror of ElemEval, bit-exact with
// the device arithmetic (plain float32 IEEE ops; the max select keeps
// a on ties and unordered compares, exactly like the FCmp sequence;
// add and mul pick their NaN with FirstNaN).
func ElemApply(op ElemOp, a, b float32) float32 {
	switch op {
	case ElemAdd:
		return FirstNaN(a, b, a+b)
	case ElemSub:
		return a - b
	case ElemMul:
		return FirstNaN(a, b, a*b)
	case ElemDiv:
		return a / b
	case ElemMax:
		if a < b {
			return b
		}
		return a
	}
	panic("core: bad elem op")
}

// ReduceInit returns the reduction's identity accumulator.
func ReduceInit(op ReduceOp) float32 {
	if op == ReduceMax {
		return float32(math.Inf(-1))
	}
	return 0
}

// ReduceEval folds x into acc on the PIM core through ctx — one
// accumulate step of the in-loop reduction.
func (f *FusedOperator) ReduceEval(ctx *pimsim.Ctx, op ReduceOp, acc, x float32) float32 {
	if op == ReduceMax {
		c := ctx.FCmp(acc, x)
		ctx.Move()
		if c < 0 {
			return x
		}
		return acc
	}
	return FirstNaN(acc, x, ctx.FAdd(acc, x))
}

// ReduceApply is the unmetered host mirror of ReduceEval. The host
// combine across lane partials uses the same function in lane order,
// so the fused path and the per-op baseline reach bit-identical
// scalars.
func ReduceApply(op ReduceOp, acc, x float32) float32 {
	if op == ReduceMax {
		if acc < x {
			return x
		}
		return acc
	}
	return FirstNaN(acc, x, acc+x)
}

// The Many forms below are the fused path's slice kernels: the op and
// the operand shape are resolved once per call, and each (op, shape)
// pair is one plain loop computing a single float32 op per element (a
// product never meets an add in one expression, so no FMA can form).
// They are bit-identical to the per-element Apply mirrors. A NaN scalar
// operand sends the call to the per-element mirror; with any other
// scalar, at most one operand of an element can be a NaN, which needs
// no rule. So only the vector–vector add and mul loops check their
// result for FirstNaN, a check ordinary data never takes.

// ElemApplyMany sets ys[i] = ElemApply(op, a_i, b_i) for every i, where
// a_i is as[i], or the scalar sa when as is nil, and b_i is bs[i] or
// sb likewise. Vector operands hold at least len(ys) elements.
func ElemApplyMany(op ElemOp, ys, as, bs []float32, sa, sb float32) {
	switch {
	case as != nil && bs != nil:
		elemVV(op, ys, as, bs)
	case as != nil && sb == sb:
		elemVS(op, ys, as, sb)
	case bs != nil && sa == sa:
		elemSV(op, ys, sa, bs)
	default:
		// A NaN scalar (or two scalars): FirstNaN decides per element.
		for i := range ys {
			a, b := sa, sb
			if as != nil {
				a = as[i]
			}
			if bs != nil {
				b = bs[i]
			}
			ys[i] = ElemApply(op, a, b)
		}
	}
}

// elemVV is ElemApplyMany with two vector operands.
func elemVV(op ElemOp, ys, as, bs []float32) {
	as, bs = as[:len(ys)], bs[:len(ys)]
	switch op {
	case ElemAdd:
		for i := range ys {
			r := as[i] + bs[i]
			if r != r {
				r = FirstNaN(as[i], bs[i], r)
			}
			ys[i] = r
		}
	case ElemSub:
		for i := range ys {
			ys[i] = as[i] - bs[i]
		}
	case ElemMul:
		for i := range ys {
			r := as[i] * bs[i]
			if r != r {
				r = FirstNaN(as[i], bs[i], r)
			}
			ys[i] = r
		}
	case ElemDiv:
		for i := range ys {
			ys[i] = as[i] / bs[i]
		}
	case ElemMax:
		for i := range ys {
			ys[i] = maxSelect(as[i], bs[i])
		}
	default:
		panic("core: bad elem op")
	}
}

// elemVS is ElemApplyMany with a vector a and a non-NaN scalar b.
func elemVS(op ElemOp, ys, as []float32, b float32) {
	as = as[:len(ys)]
	switch op {
	case ElemAdd:
		for i := range ys {
			ys[i] = as[i] + b
		}
	case ElemSub:
		for i := range ys {
			ys[i] = as[i] - b
		}
	case ElemMul:
		for i := range ys {
			ys[i] = as[i] * b
		}
	case ElemDiv:
		for i := range ys {
			ys[i] = as[i] / b
		}
	case ElemMax:
		for i := range ys {
			ys[i] = maxSelect(as[i], b)
		}
	default:
		panic("core: bad elem op")
	}
}

// elemSV is ElemApplyMany with a non-NaN scalar a and a vector b. Add
// and mul run elemVS with the operands swapped: since a is not a NaN,
// at most one operand of an element is, and IEEE add and mul are then
// bit-for-bit commutative, signed zeros included.
func elemSV(op ElemOp, ys []float32, a float32, bs []float32) {
	bs = bs[:len(ys)]
	switch op {
	case ElemAdd, ElemMul:
		elemVS(op, ys, bs, a)
	case ElemSub:
		for i := range ys {
			ys[i] = a - bs[i]
		}
	case ElemDiv:
		for i := range ys {
			ys[i] = a / bs[i]
		}
	case ElemMax:
		for i := range ys {
			ys[i] = maxSelect(a, bs[i])
		}
	default:
		panic("core: bad elem op")
	}
}

// maxSelect is ElemApply's max as a bit select on the compare, so the
// element loops do not branch on random data: b when a < b, else a
// (ties and unordered compares keep a).
func maxSelect(a, b float32) float32 {
	var m uint32
	if a < b {
		m = ^uint32(0)
	}
	return math.Float32frombits(math.Float32bits(a)&^m | math.Float32bits(b)&m)
}

// ReduceApplyMany folds xs into acc in element order — bit-identical
// to ReduceApply over each x in turn. A sum that comes out NaN is
// folded again through ReduceApply, whose FirstNaN decides which of
// two NaNs survives.
func ReduceApplyMany(op ReduceOp, acc float32, xs []float32) float32 {
	if op == ReduceMax {
		for _, x := range xs {
			if acc < x {
				acc = x
			}
		}
		return acc
	}
	s := acc
	for _, x := range xs {
		s += x
	}
	if s != s {
		for _, x := range xs {
			acc = ReduceApply(ReduceSum, acc, x)
		}
		return acc
	}
	return s
}

// ChargeElem bulk-charges n applications of the elementwise op —
// bit-identical accounting to n ElemEval calls.
func (f *FusedOperator) ChargeElem(ctx *pimsim.Ctx, op ElemOp, n uint64) {
	ctx.ChargeSig(&f.elem[op], n)
}

// ChargeReduce bulk-charges n accumulate steps of the reduction.
func (f *FusedOperator) ChargeReduce(ctx *pimsim.Ctx, op ReduceOp, n uint64) {
	ctx.ChargeSig(&f.red[op], n)
}

// ChargeScalarLoad accounts reading n broadcast scalars from the
// streamed chunk (once per lane per phase, not per element).
func (f *FusedOperator) ChargeScalarLoad(ctx *pimsim.Ctx, n uint64) {
	ctx.ChargeSig(&f.scalarLoad, n)
}

// ChargeScalarStore accounts parking n reduction partials for the
// host gather.
func (f *FusedOperator) ChargeScalarStore(ctx *pimsim.Ctx, n uint64) {
	ctx.ChargeSig(&f.scalarStore, n)
}

// RecordStreamSig records the per-element streaming overhead of a
// fused kernel loop with the given number of operand loads and result
// stores per element: loads × WRAM load + stores × WRAM store + the
// loop counter and branch. With one load and one store it is exactly
// the engine's per-op stream signature, which is what makes a
// single-node fused program charge the same cycles as the per-op
// batch path.
func RecordStreamSig(model pimsim.CostModel, loads, stores int) pimsim.CostSig {
	rec := pimsim.NewSigRecorder(model)
	m := rec.DPU().MRAM
	for i := 0; i < loads; i++ {
		_ = rec.LoadStreamedF32(m, 0)
	}
	for i := 0; i < stores; i++ {
		rec.StoreStreamedF32(m, 0, 0)
	}
	rec.Charge(2)
	return rec.TakeSig()
}
