package core

import (
	"math"
	"testing"

	"transpimlib/internal/pimsim"
)

// The fused-path contract: ChargeElem/ChargeReduce bulk signatures are
// bit-identical accounting to the interpreted per-element Eval calls,
// and the Apply host mirrors are bit-exact with the device arithmetic.
// The engine's differential suite leans on both.

func TestFusedChargesMatchInterpreted(t *testing.T) {
	const n = 9
	model := pimsim.Default()
	f := NewFusedOperator(model)
	rec := pimsim.NewSigRecorder(model)

	for op := ElemOp(0); op < NumElemOps; op++ {
		rec.TakeSig()
		for i := 0; i < n; i++ {
			// Mixed orderings so a data-dependent charge would show up.
			f.ElemEval(rec, op, float32(i)-4, 3-float32(i))
		}
		interp := rec.TakeSig()
		f.ChargeElem(rec, op, n)
		bulk := rec.TakeSig()
		if interp != bulk {
			t.Errorf("%v: interpreted sig %+v != bulk charge %+v", op, interp, bulk)
		}
	}
	for op := ReduceOp(0); op < NumReduceOps; op++ {
		rec.TakeSig()
		acc := ReduceInit(op)
		for i := 0; i < n; i++ {
			acc = f.ReduceEval(rec, op, acc, float32(i%3)-1)
		}
		interp := rec.TakeSig()
		f.ChargeReduce(rec, op, n)
		bulk := rec.TakeSig()
		if interp != bulk {
			t.Errorf("reduce-%v: interpreted sig %+v != bulk charge %+v", op, interp, bulk)
		}
	}
}

func TestElemApplyMirrorsElemEval(t *testing.T) {
	model := pimsim.Default()
	f := NewFusedOperator(model)
	rec := pimsim.NewSigRecorder(model)
	inf := float32(math.Inf(1))
	vals := []float32{0, float32(math.Copysign(0, -1)), 1, -1, 2.5, -3.25, 1e-30, 1e30, inf, -inf,
		math.Float32frombits(0x7fc00000), math.Float32frombits(0xffc00000), math.Float32frombits(0x7fc00001)}
	for op := ElemOp(0); op < NumElemOps; op++ {
		for _, a := range vals {
			for _, b := range vals {
				dev := f.ElemEval(rec, op, a, b)
				host := ElemApply(op, a, b)
				if math.Float32bits(dev) != math.Float32bits(host) {
					t.Fatalf("%v(%g, %g): device %x, host mirror %x",
						op, a, b, math.Float32bits(dev), math.Float32bits(host))
				}
			}
		}
	}
}

func TestReduceApplyMirrorsReduceEval(t *testing.T) {
	model := pimsim.Default()
	f := NewFusedOperator(model)
	rec := pimsim.NewSigRecorder(model)
	if ReduceInit(ReduceSum) != 0 {
		t.Errorf("ReduceInit(sum) = %g, want 0", ReduceInit(ReduceSum))
	}
	if !math.IsInf(float64(ReduceInit(ReduceMax)), -1) {
		t.Errorf("ReduceInit(max) = %g, want -Inf", ReduceInit(ReduceMax))
	}
	xs := []float32{3, -1.5, 3, 0, float32(math.Copysign(0, -1)), 7.25, -8}
	for op := ReduceOp(0); op < NumReduceOps; op++ {
		dev, host := ReduceInit(op), ReduceInit(op)
		for _, x := range xs {
			dev = f.ReduceEval(rec, op, dev, x)
			host = ReduceApply(op, host, x)
			if math.Float32bits(dev) != math.Float32bits(host) {
				t.Fatalf("reduce-%v at x=%g: device %x, host mirror %x",
					op, x, math.Float32bits(dev), math.Float32bits(host))
			}
		}
	}
}

// edgeGrid holds the operands the slice-kernel tests pair up: signed
// zeros, ones, infinities and extremes, the smallest subnormal, three
// distinct quiet NaNs and two signalling NaNs.
func edgeGrid() []float32 {
	bits := []uint32{
		0x00000000, 0x80000000, // ±0
		0x3f800000, 0xbf800000, // ±1
		0x7f800000, 0xff800000, // ±Inf
		0x7f7fffff, 0xff7fffff, // ±MaxFloat32
		0x00000001,                         // smallest subnormal
		0x7fc00000, 0xffc00000, 0x7fc00001, // quiet NaNs
		0x7f800001, 0xffa00000, // signalling NaNs
	}
	g := make([]float32, len(bits))
	for i, b := range bits {
		g[i] = math.Float32frombits(b)
	}
	return g
}

// kernelLengths are the slice lengths the kernel tests run: empty, one
// element, a short odd tail and a full default-config lane chunk.
var kernelLengths = []int{0, 1, 7, 1024}

// TestElemApplyManyMirrorsElemApply: every op × operand shape of the
// slice kernel agrees bit for bit with ElemApply and with the device's
// ElemEval, on every pair of grid values, in every element position.
func TestElemApplyManyMirrorsElemApply(t *testing.T) {
	f := NewFusedOperator(pimsim.Default())
	rec := pimsim.NewSigRecorder(pimsim.Default())
	grid := edgeGrid()
	g := len(grid)
	check := func(op ElemOp, shape string, ys, as, bs []float32, sa, sb float32) {
		t.Helper()
		ElemApplyMany(op, ys, as, bs, sa, sb)
		for i, y := range ys {
			a, b := sa, sb
			if as != nil {
				a = as[i]
			}
			if bs != nil {
				b = bs[i]
			}
			host, dev := ElemApply(op, a, b), f.ElemEval(rec, op, a, b)
			if math.Float32bits(y) != math.Float32bits(host) || math.Float32bits(host) != math.Float32bits(dev) {
				t.Fatalf("%v %s [%d] (%#x, %#x): kernel %#x, ElemApply %#x, ElemEval %#x", op, shape, i,
					math.Float32bits(a), math.Float32bits(b), math.Float32bits(y), math.Float32bits(host), math.Float32bits(dev))
			}
		}
	}
	for op := ElemOp(0); op < NumElemOps; op++ {
		for _, n := range kernelLengths {
			ys := make([]float32, n)
			as := make([]float32, n)
			bs := make([]float32, n)
			// Element i holds pair (p+i) mod g², so over the starts p
			// every pair of grid values lands in every position.
			for p := 0; p < g*g; p++ {
				for i := range as {
					k := (p + i) % (g * g)
					as[i], bs[i] = grid[k%g], grid[k/g]
				}
				check(op, "vector-vector", ys, as, bs, 0, 0)
			}
			for _, s := range grid {
				for p := 0; p < g; p++ {
					for i := range as {
						as[i] = grid[(p+i)%g]
					}
					check(op, "vector-scalar", ys, as, nil, 0, s)
					check(op, "scalar-vector", ys, nil, as, s, 0)
				}
			}
		}
	}
}

// TestReduceApplyManyMirrorsReduceApply: the slice reduction folds in
// element order, bit for bit the ReduceApply and ReduceEval folds, from
// every grid accumulator over every run of grid values — so a sum
// that meets two NaNs keeps the first.
func TestReduceApplyManyMirrorsReduceApply(t *testing.T) {
	f := NewFusedOperator(pimsim.Default())
	rec := pimsim.NewSigRecorder(pimsim.Default())
	grid := edgeGrid()
	check := func(op ReduceOp, acc float32, xs []float32) {
		t.Helper()
		host, dev := acc, acc
		for _, x := range xs {
			host = ReduceApply(op, host, x)
			dev = f.ReduceEval(rec, op, dev, x)
		}
		got := ReduceApplyMany(op, acc, xs)
		if math.Float32bits(got) != math.Float32bits(host) || math.Float32bits(host) != math.Float32bits(dev) {
			t.Fatalf("reduce-%v from %#x over %d elements starting %v: kernel %#x, ReduceApply %#x, ReduceEval %#x",
				op, math.Float32bits(acc), len(xs), xs[:min(len(xs), 3)], math.Float32bits(got), math.Float32bits(host), math.Float32bits(dev))
		}
	}
	for op := ReduceOp(0); op < NumReduceOps; op++ {
		for _, n := range kernelLengths {
			xs := make([]float32, n)
			for _, acc := range append([]float32{ReduceInit(op)}, grid...) {
				for p := range grid {
					for i := range xs {
						xs[i] = grid[(p+i)%len(grid)]
					}
					check(op, acc, xs)
				}
			}
		}
	}
	// Float32 addition is not associative: in element order this sum is
	// 0, and a pairwise or two-accumulator sum would return 1.
	order := []float32{1e8, 1, -1e8}
	check(ReduceSum, 0, order)
	if got := ReduceApplyMany(ReduceSum, 0, order); got != 0 {
		t.Fatalf("in-order sum of %v = %g, want 0", order, got)
	}
}

// TestRecordStreamSigMatchesEngineRecipe pins the (1 load, 1 store)
// stream signature — which every engine lane and every single-Func
// fused program bulk-charges per element — to the per-element loop it
// stands for: one streamed load, one streamed store and the loop
// control of Fig. 3(a)'s kernel, written out here by hand since the
// engine records its signature with RecordStreamSig itself.
func TestRecordStreamSigMatchesEngineRecipe(t *testing.T) {
	model := pimsim.Default()
	rec := pimsim.NewSigRecorder(model)
	rec.TakeSig()
	v := rec.LoadStreamedF32(rec.DPU().MRAM, 0)
	rec.StoreStreamedF32(rec.DPU().MRAM, 0, v)
	rec.Charge(2)
	engineSig := rec.TakeSig()
	if got := RecordStreamSig(model, 1, 1); got != engineSig {
		t.Errorf("RecordStreamSig(1,1) = %+v, engine recipe records %+v", got, engineSig)
	}
	// More operands stream more: monotone in loads and stores.
	one := RecordStreamSig(model, 1, 1)
	if two := RecordStreamSig(model, 2, 1); two.Ops.TotalCycles() <= one.Ops.TotalCycles() {
		t.Errorf("two-load stream sig (%d) must out-cost one-load (%d)", two.Ops.TotalCycles(), one.Ops.TotalCycles())
	}
	if zero := RecordStreamSig(model, 1, 0); zero.Ops.TotalCycles() >= one.Ops.TotalCycles() {
		t.Errorf("store-free stream sig (%d) must undercut one-store (%d)", zero.Ops.TotalCycles(), one.Ops.TotalCycles())
	}
}

func TestScalarLoadStoreCharges(t *testing.T) {
	model := pimsim.Default()
	f := NewFusedOperator(model)
	rec := pimsim.NewSigRecorder(model)

	rec.TakeSig()
	_ = rec.LoadStreamedF32(rec.DPU().MRAM, 0)
	load := rec.TakeSig()
	f.ChargeScalarLoad(rec, 1)
	if got := rec.TakeSig(); got != load {
		t.Errorf("ChargeScalarLoad sig %+v, streamed load records %+v", got, load)
	}

	rec.StoreStreamedF32(rec.DPU().MRAM, 0, 0)
	store := rec.TakeSig()
	f.ChargeScalarStore(rec, 1)
	if got := rec.TakeSig(); got != store {
		t.Errorf("ChargeScalarStore sig %+v, streamed store records %+v", got, store)
	}
}
