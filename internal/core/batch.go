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

// The batch-evaluation fast path replaces the per-op interpreted walk
// through a kernel with (a) an unmetered host mirror that reproduces
// the device's float32/fixed-point arithmetic bit-for-bit and (b) a
// set of pre-recorded cost signatures, one per control-flow class of
// the kernel. Every supported kernel's charge sequence depends only on
// the input operand — which quadrant a trig argument folds into, the
// exponent parity of a sqrt argument, the sign of a symmetric fixed-
// point input, the L/D routing of a DL-LUT — never on loaded table
// values, so a handful of straight-line traces covers the whole input
// space exactly. EvalBatch classifies each element, evaluates it
// through the mirror, and bulk-charges signature × count.

// maxCostClasses bounds the control-flow classes of any one kernel:
// the four trigonometric quadrants are the widest case (domain guards
// replace, not extend, the inner classes they shadow — but composed
// guard + parity reaches 3, and quadrants reach 4).
const maxCostClasses = 4

// batchKernel is the fused slice form of a mirror: evaluate xs into ys
// through straight-line class-partitioned loops over SoA scratch,
// tallying how many elements ran through each cost class. Kernels may
// use the XB/YB, IA, QA/QB and TA/TB/TC scratch lanes freely; the
// XA/YA lanes are reserved for the outermost composition layer
// (domain-guard gathers, input pre-transforms), so a wrapped kernel
// can run on a gathered XA sub-batch without clobbering it.
type batchKernel func(xs, ys []float32, sc *lut.Scratch, counts *[maxCostClasses]uint64)

// opMirror is the host-side twin of an Operator's eval: a fused
// evaluate-and-classify function plus one representative input per
// cost class, used once at build time to record the signatures.
type opMirror struct {
	n    int // number of cost classes, ≤ maxCostClasses
	eval func(x float32) (float32, int)
	reps [maxCostClasses]float32
	// kernel, when set, replaces the per-element classify loop with a
	// fused slice pass; it must be bit-identical to eval in both values
	// and class tallies.
	kernel batchKernel
}

// plainKernel adapts a single-class fused slice kernel (a table's
// MirrorMany) into a batchKernel.
func plainKernel(f func(xs, ys []float32)) batchKernel {
	return func(xs, ys []float32, _ *lut.Scratch, counts *[maxCostClasses]uint64) {
		f(xs, ys)
		counts[0] += uint64(len(xs))
	}
}

// mirror1 wraps a single-class (straight-line) mirror.
func mirror1(f func(float32) float32, rep float32) *opMirror {
	return &opMirror{
		n:    1,
		eval: func(x float32) (float32, int) { return f(x), 0 },
		reps: [maxCostClasses]float32{rep},
	}
}

// quadrantReps returns one representative angle per quadrant of
// [0, 2π), the classes of the quadrant-folded trig kernels.
func quadrantReps() [maxCostClasses]float32 {
	return [maxCostClasses]float32{
		0.7,
		float32(0.7 + math.Pi/2),
		float32(0.7 + math.Pi),
		float32(0.7 + 3*math.Pi/2),
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

// sqrtParityMirror composes SplitSqrtHost → core → JoinSqrtHost with
// the exponent-parity branch as the class split: even exponents skip
// the fold, odd ones pay one extra ldexp. A non-nil coreMany adds the
// fused form: split into the XB/IA lanes, one fused core pass, one
// fpbits.LdexpMany join.
func sqrtParityMirror(core func(float32) float32, coreMany func(xs, ys []float32)) *opMirror {
	m := &opMirror{
		n:    2,
		reps: [maxCostClasses]float32{0.5, 1}, // frexp exponents 0 (even) and 1 (odd)
		eval: func(x float32) (float32, int) {
			m, h, odd := rangered.SplitSqrtHost(x)
			v := rangered.JoinSqrtHost(core(m), h)
			if odd {
				return v, 1
			}
			return v, 0
		},
	}
	if coreMany != nil {
		m.kernel = func(xs, ys []float32, sc *lut.Scratch, counts *[maxCostClasses]uint64) {
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
			fpbits.LdexpMany(ys, hs) // JoinSqrtHost over the slice
			counts[0] += uint64(n) - odds
			counts[1] += odds
		}
	}
	return m
}

// expSplitKernel fuses the exp range reduction around a fused core
// kernel: SplitExpHost into the XB/IA lanes, one core pass, one
// fpbits.LdexpMany join. Single-class, like the scalar composition.
func expSplitKernel(coreMany func(xs, ys []float32)) batchKernel {
	return func(xs, ys []float32, sc *lut.Scratch, counts *[maxCostClasses]uint64) {
		n := len(xs)
		sc.Grow(n)
		rs := sc.XB[:n]
		ks := sc.IA[:n]
		rangered.SplitExpHostMany(xs, rs, ks)
		coreMany(rs, ys)
		fpbits.LdexpMany(ys, ks) // JoinExpHost over the slice
		counts[0] += uint64(n)
	}
}

// logSplitKernel fuses the log range reduction around a fused core
// kernel: frexp into the XB/IA lanes, one core pass, a per-element
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

// guardKernel composes a domain-guard class onto a fused kernel. Clean
// batches (every element in domain) run the inner kernel unchanged —
// the common case costs one scan. Otherwise the in-domain elements
// gather into the reserved XA/YA lanes, the inner kernel runs on the
// gathered sub-batch (using its own disjoint lanes), and a scatter
// pass interleaves the guard results back in input order.
func guardKernel(inner batchKernel, guardClass int, inDomain func(float32) bool, guardVal func(float32) float32) batchKernel {
	return func(xs, ys []float32, sc *lut.Scratch, counts *[maxCostClasses]uint64) {
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
		var g uint64
		for _, x := range xs {
			if inDomain(x) {
				xa = append(xa, x)
			} else {
				g++
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
		counts[guardClass] += g
	}
}

// wrapLogGuard composes the Log domain-guard branch onto a mirror: one
// extra class for non-positive (and NaN) inputs, which short-circuit
// after the guard's compare.
func wrapLogGuard(m *opMirror) *opMirror {
	if m == nil {
		return nil
	}
	inner, n := m.eval, m.n
	w := &opMirror{n: n + 1, reps: m.reps}
	w.reps[n] = -1
	w.eval = func(x float32) (float32, int) {
		if !(x > 0) { // FCmp(x, 0) <= 0, with NaN landing here too
			if x == 0 {
				return float32(math.Inf(-1)), n
			}
			return float32(math.NaN()), n
		}
		return inner(x)
	}
	if m.kernel != nil {
		w.kernel = guardKernel(m.kernel, n,
			func(x float32) bool { return x > 0 },
			func(x float32) float32 {
				if x == 0 {
					return float32(math.Inf(-1))
				}
				return float32(math.NaN())
			})
	}
	return w
}

// wrapSqrtGuard composes the Sqrt domain-guard branch: negative inputs
// (NaN result) and zero short-circuit with identical guard cost, so
// they share one class.
func wrapSqrtGuard(m *opMirror) *opMirror {
	if m == nil {
		return nil
	}
	inner, n := m.eval, m.n
	w := &opMirror{n: n + 1, reps: m.reps}
	w.reps[n] = -1
	w.eval = func(x float32) (float32, int) {
		if x < 0 {
			return float32(math.NaN()), n
		}
		if x == 0 {
			return 0, n
		}
		return inner(x)
	}
	if m.kernel != nil {
		// NaN fails both guard compares and falls through to the inner
		// kernel, exactly like the scalar wrapper.
		w.kernel = guardKernel(m.kernel, n,
			func(x float32) bool { return !(x < 0) && x != 0 },
			func(x float32) float32 {
				if x < 0 {
					return float32(math.NaN())
				}
				return 0
			})
	}
	return w
}

// recordSigs runs the interpreted eval once per cost class on a
// throwaway recorder core and stores the resulting signatures. When a
// representative input fails to classify as its own class (a kernel
// whose control flow the mirror mispredicts), the fast path is
// disabled rather than risk wrong accounting.
func (o *Operator) recordSigs(model pimsim.CostModel) {
	m := o.mirror
	if m == nil {
		return
	}
	if m.n < 1 || m.n > maxCostClasses {
		o.mirror = nil
		return
	}
	rec := pimsim.NewSigRecorder(model)
	for c := 0; c < m.n; c++ {
		rep := m.reps[c]
		if _, got := m.eval(rep); got != c {
			o.mirror = nil
			return
		}
		rec.TakeSig() // discard anything charged so far
		o.eval(rec, rep)
		o.sigs[c] = rec.TakeSig()
	}
}

// HasFastPath reports whether EvalBatch runs through the fused mirror
// (true for every built operator except WideRange trig, which falls
// back to the interpreted path).
func (o *Operator) HasFastPath() bool { return o.mirror != nil }

// DisableFastPath forces EvalBatch through the per-element interpreted
// reference path — the escape hatch the differential tests and the
// engine's Reference mode use.
func (o *Operator) DisableFastPath() { o.mirror = nil }

// scratchPool backs EvalBatch callers that don't carry their own
// arena; the engine's steady state passes a pre-grown per-lane Scratch
// through EvalBatchWith instead.
var scratchPool = sync.Pool{New: func() any { return new(lut.Scratch) }}

// EvalBatch evaluates fn over xs into ys (len(ys) must be ≥ len(xs)),
// bit-identical in outputs and cycle accounting to calling Eval per
// element. With a fast path it runs the unmetered mirror — fused slice
// kernel when available, per-element classify loop otherwise — and
// charges the per-class cost signatures in bulk; with no fast path it
// falls back to the interpreted loop.
func (o *Operator) EvalBatch(ctx *pimsim.Ctx, xs, ys []float32) {
	if m := o.mirror; m != nil && m.kernel != nil {
		sc := scratchPool.Get().(*lut.Scratch)
		o.EvalBatchWith(ctx, xs, ys, sc)
		scratchPool.Put(sc)
		return
	}
	o.EvalBatchWith(ctx, xs, ys, nil)
}

// EvalBatchWith is EvalBatch with a caller-provided scratch arena for
// the fused kernels' SoA lanes. sc may be nil, forcing the per-element
// mirror loop.
func (o *Operator) EvalBatchWith(ctx *pimsim.Ctx, xs, ys []float32, sc *lut.Scratch) {
	m := o.mirror
	if m == nil {
		for i, x := range xs {
			ys[i] = o.eval(ctx, x)
		}
		return
	}
	ys = ys[:len(xs)]
	if m.kernel != nil && sc != nil {
		// The tally lives in the scratch: its address passes through an
		// opaque func value, which would heap-allocate a stack array.
		sc.Counts = [maxCostClasses]uint64{}
		m.kernel(xs, ys, sc, &sc.Counts)
		for c := 0; c < m.n; c++ {
			if n := sc.Counts[c]; n != 0 {
				ctx.ChargeSig(&o.sigs[c], n)
			}
		}
		return
	}
	var counts [maxCostClasses]uint64
	f := m.eval
	for i, x := range xs {
		v, c := f(x)
		ys[i] = v
		counts[c]++
	}
	for c := 0; c < m.n; c++ {
		if counts[c] != 0 {
			ctx.ChargeSig(&o.sigs[c], counts[c])
		}
	}
}
