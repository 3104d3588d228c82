package core

import (
	"math"
	"sync"

	"transpimlib/internal/cordic"
	"transpimlib/internal/fpbits"
	"transpimlib/internal/lut"
	"transpimlib/internal/pimsim"
	"transpimlib/internal/rangered"
)

// The batch-evaluation fast path replaces the per-element interpreted
// walk through a device kernel with (a) the operator's one host slice
// kernel, which reproduces the device's float32/fixed-point arithmetic
// bit for bit without charging, and (b) a set of pre-recorded cost
// signatures, one per control-flow class of the device kernel. Every
// supported kernel's charge sequence depends only on the input operand
// — which quadrant a trig argument folds into, the exponent parity of
// a sqrt argument, the sign of a symmetric fixed-point input, the L/D
// routing of a DL-LUT, a domain guard — never on loaded table values,
// so a handful of straight-line traces covers the whole input space
// exactly. The kernel tallies how many elements took each class and
// EvalBatch bulk-charges signature × count. Only WideRange trig has no
// kernel (its guard correction is data-dependent beyond the quadrant
// classes); it and DisableFastPath keep the interpreted loop.

// maxCostClasses bounds the control-flow classes of any one kernel:
// the four trigonometric quadrants are the widest case (domain guards
// replace, not extend, the inner classes they shadow — but composed
// guard + parity reaches 3, and quadrants reach 4).
const maxCostClasses = 4

// batchKernel is an operator's host slice kernel: evaluate xs into ys
// through straight-line class-partitioned loops over SoA scratch,
// tallying how many elements ran through each cost class. Kernels may
// use the XB/YB, IA, QA/QB and TA/TB/TC scratch lanes freely; the
// XA/YA lanes are reserved for the outermost composition layer
// (domain-guard gathers, input pre-transforms), so a wrapped kernel
// can run on a gathered XA sub-batch without clobbering it.
type batchKernel func(xs, ys []float32, sc *lut.Scratch, counts *[maxCostClasses]uint64)

// opMirror is the host-side twin of an Operator's eval: its slice
// kernel plus one representative input per cost class, which Build
// runs once through both to check each class and record its
// signature.
type opMirror struct {
	n      int // number of cost classes, ≤ maxCostClasses
	reps   [maxCostClasses]float32
	kernel batchKernel
}

// mirror1 wraps a single-class (straight-line) kernel.
func mirror1(k batchKernel, rep float32) *opMirror {
	return &opMirror{n: 1, reps: [maxCostClasses]float32{rep}, kernel: k}
}

// quadMirror wraps a kernel whose classes are the four quadrants of
// [0, 2π), with one representative angle per quadrant.
func quadMirror(k batchKernel) *opMirror {
	return &opMirror{n: 4, kernel: k, reps: [maxCostClasses]float32{
		0.7,
		float32(0.7 + math.Pi/2),
		float32(0.7 + math.Pi),
		float32(0.7 + 3*math.Pi/2),
	}}
}

// plainKernel adapts a single-class slice function (a table's
// MirrorMany) into a batchKernel.
func plainKernel(f func(xs, ys []float32)) batchKernel {
	return func(xs, ys []float32, _ *lut.Scratch, counts *[maxCostClasses]uint64) {
		f(xs, ys)
		counts[0] += uint64(len(xs))
	}
}

// fix64FromF32 mirrors Ctx.F32ToFix64 with cordic.FracBits.
func fix64FromF32(f float32) int64 {
	return int64(float64(f) * float64(uint64(1)<<cordic.FracBits))
}

// fix64ToF32 mirrors Ctx.Fix64ToF32 with cordic.FracBits.
func fix64ToF32(v int64) float32 {
	return float32(float64(v) / float64(uint64(1)<<cordic.FracBits))
}

// foldQuadrant64Host mirrors foldQuadrant64.
func foldQuadrant64Host(theta int64) (int64, rangered.Quadrant) {
	var q rangered.Quadrant
	for q = 0; q < 3; q++ {
		if theta < halfPi64 {
			break
		}
		theta -= halfPi64
	}
	return theta, q
}

// sqrtParityMirror composes SplitSqrt → core → JoinSqrt with the
// exponent-parity branch as the class split: even exponents skip the
// fold, odd ones pay one extra ldexp. It splits into the XB/IA lanes
// (SplitSqrtHost), runs one core pass and joins with one
// fpbits.LdexpMany.
func sqrtParityMirror(coreMany func(xs, ys []float32)) *opMirror {
	return &opMirror{
		n:    2,
		reps: [maxCostClasses]float32{0.5, 1}, // frexp exponents 0 (even) and 1 (odd)
		kernel: func(xs, ys []float32, sc *lut.Scratch, counts *[maxCostClasses]uint64) {
			n := len(xs)
			sc.Grow(n)
			ms := sc.XB[:n]
			hs := sc.IA[:n]
			var odds uint64
			for i, x := range xs {
				mf, h, odd := rangered.SplitSqrtHost(x)
				ms[i] = mf
				hs[i] = h
				if odd {
					odds++
				}
			}
			coreMany(ms, ys)
			fpbits.LdexpMany(ys, hs) // JoinSqrt over the slice
			counts[0] += uint64(n) - odds
			counts[1] += odds
		},
	}
}

// expSplitKernel fuses the exp range reduction around a core slice
// pass: SplitExp into the XB/IA lanes, one core pass, one
// fpbits.LdexpMany join. Single-class, like the device composition.
func expSplitKernel(coreMany func(xs, ys []float32)) batchKernel {
	return func(xs, ys []float32, sc *lut.Scratch, counts *[maxCostClasses]uint64) {
		n := len(xs)
		sc.Grow(n)
		rs := sc.XB[:n]
		ks := sc.IA[:n]
		rangered.SplitExpHostMany(xs, rs, ks)
		coreMany(rs, ys)
		fpbits.LdexpMany(ys, ks) // JoinExp over the slice
		counts[0] += uint64(n)
	}
}

// logSplitKernel fuses the log range reduction around a core slice
// pass: frexp into the XB/IA lanes, one core pass, a per-element
// linear join.
func logSplitKernel(coreMany func(xs, ys []float32)) batchKernel {
	return func(xs, ys []float32, sc *lut.Scratch, counts *[maxCostClasses]uint64) {
		n := len(xs)
		sc.Grow(n)
		ms := sc.XB[:n]
		es := sc.IA[:n]
		rangered.SplitLogHostMany(xs, ms, es)
		coreMany(ms, ys)
		for i := range ys {
			ys[i] = rangered.JoinLogHost(ys[i], es[i])
		}
		counts[0] += uint64(n)
	}
}

// divKernel fuses a two-table quotient (the Tan builds): one numerator
// pass into the XB lane, one denominator pass into ys, one divide
// sweep.
func divKernel(numMany, denMany func(xs, ys []float32)) batchKernel {
	return func(xs, ys []float32, sc *lut.Scratch, counts *[maxCostClasses]uint64) {
		n := len(xs)
		sc.Grow(n)
		ss := sc.XB[:n]
		numMany(xs, ss)
		denMany(xs, ys)
		for i := range ys {
			ys[i] = ss[i] / ys[i]
		}
		counts[0] += uint64(n)
	}
}

// sincosKernel fuses the quadrant-folded CORDIC trig pipeline: fold
// every angle into the TA lane tagging its quadrant, one fused
// rotation pass over the Q23.40 lanes, then a per-element quadrant
// fix-up through finish.
func sincosKernel(many func(thetas, sins, coss []int64), finish func(s, c float32, q rangered.Quadrant) float32) batchKernel {
	return func(xs, ys []float32, sc *lut.Scratch, counts *[maxCostClasses]uint64) {
		n := len(xs)
		sc.Grow(n)
		sc.GrowT(n)
		ta, sb, cb := sc.TA[:n], sc.TB[:n], sc.TC[:n]
		cls := sc.Cls[:n]
		for i, x := range xs {
			theta, q := foldQuadrant64Host(fix64FromF32(x))
			ta[i] = theta
			cls[i] = uint8(q)
			counts[q]++
		}
		many(ta, sb, cb)
		for i := range ys {
			s := fix64ToF32(sb[i])
			c := fix64ToF32(cb[i])
			ys[i] = finish(s, c, rangered.Quadrant(cls[i]))
		}
	}
}

// guard composes a domain-guard class onto m: inputs outside inDomain
// short-circuit to guardVal, as one extra class represented by −1.
// Clean batches (every element in domain) run the inner kernel
// unchanged — the common case costs one scan. Otherwise the in-domain
// elements gather into the reserved XA/YA lanes, the inner kernel runs
// on the gathered sub-batch (using its own disjoint lanes), and a
// scatter pass interleaves the guard results back in input order.
func (m *opMirror) guard(inDomain func(float32) bool, guardVal func(float32) float32) *opMirror {
	inner, g := m.kernel, m.n
	w := &opMirror{n: g + 1, reps: m.reps}
	w.reps[g] = -1
	w.kernel = func(xs, ys []float32, sc *lut.Scratch, counts *[maxCostClasses]uint64) {
		clean := true
		for _, x := range xs {
			if !inDomain(x) {
				clean = false
				break
			}
		}
		if clean {
			inner(xs, ys, sc, counts)
			return
		}
		sc.Grow(len(xs))
		xa := sc.XA[:0]
		var out uint64
		for _, x := range xs {
			if inDomain(x) {
				xa = append(xa, x)
			} else {
				out++
			}
		}
		ya := sc.YA[:len(xa)]
		inner(xa, ya, sc, counts)
		j := 0
		for i, x := range xs {
			if inDomain(x) {
				ys[i] = ya[j]
				j++
			} else {
				ys[i] = guardVal(x)
			}
		}
		counts[g] += out
	}
	return w
}

// recordSigs records one cost signature per class: it runs the
// class's representative through the kernel on a one-element slice to
// check that the kernel files it under that class, then through the
// interpreted eval on a throwaway recorder core. When a representative
// lands in another class (a kernel whose control flow mispredicts the
// device's), the fast path is disabled rather than risk wrong
// accounting.
func (o *Operator) recordSigs(model pimsim.CostModel) {
	m := o.mirror
	if m == nil {
		return
	}
	sc := scratchPool.Get().(*lut.Scratch)
	defer scratchPool.Put(sc)
	rec := pimsim.NewSigRecorder(model)
	var y [1]float32
	for c := 0; c < m.n; c++ {
		var want [maxCostClasses]uint64
		want[c] = 1
		sc.Counts = [maxCostClasses]uint64{}
		m.kernel(m.reps[c:c+1], y[:], sc, &sc.Counts)
		if sc.Counts != want {
			o.mirror = nil
			return
		}
		rec.TakeSig() // discard anything charged so far
		o.eval(rec, m.reps[c])
		o.sigs[c] = rec.TakeSig()
	}
}

// HasFastPath reports whether EvalBatch runs the operator's host
// kernel (true for every built operator except WideRange trig, which
// keeps the interpreted path).
func (o *Operator) HasFastPath() bool { return o.mirror != nil }

// DisableFastPath forces EvalBatch through the per-element interpreted
// reference path — the escape hatch the differential tests and the
// engine's Reference mode use.
func (o *Operator) DisableFastPath() { o.mirror = nil }

// scratchPool backs EvalBatch callers that don't carry their own
// arena, and Build's signature recording; the engine's steady state
// passes a pre-grown per-lane Scratch through EvalBatchWith instead.
var scratchPool = sync.Pool{New: func() any { return new(lut.Scratch) }}

// EvalBatch evaluates fn over xs into ys (len(ys) must be ≥ len(xs)),
// bit-identical in outputs and cycle accounting to calling Eval per
// element. It is EvalBatchWith on a pooled scratch arena.
func (o *Operator) EvalBatch(ctx *pimsim.Ctx, xs, ys []float32) {
	sc := scratchPool.Get().(*lut.Scratch)
	o.EvalBatchWith(ctx, xs, ys, sc)
	scratchPool.Put(sc)
}

// EvalBatchWith is EvalBatch with a caller-provided scratch arena (not
// nil) for the kernel's SoA lanes. With a fast path it runs the kernel
// and charges the per-class cost signatures in bulk; without one it
// walks the interpreted per-element loop.
func (o *Operator) EvalBatchWith(ctx *pimsim.Ctx, xs, ys []float32, sc *lut.Scratch) {
	m := o.mirror
	if m == nil {
		for i, x := range xs {
			ys[i] = o.eval(ctx, x)
		}
		return
	}
	// The tally lives in the scratch: its address passes through an
	// opaque func value, which would heap-allocate a stack array.
	sc.Counts = [maxCostClasses]uint64{}
	m.kernel(xs, ys[:len(xs)], sc, &sc.Counts)
	for c := 0; c < m.n; c++ {
		ctx.ChargeSig(&o.sigs[c], sc.Counts[c])
	}
}
