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
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	vals := []float32{0, float32(math.Copysign(0, -1)), 1, -1, 2.5, -3.25, 1e-30, 1e30, inf, -inf, nan}
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

// TestRecordStreamSigMatchesEngineRecipe pins the (1 load, 1 store)
// stream signature to the engine's per-op recording — the property
// that makes a single-Func fused program charge exactly the cycles of
// the per-op batch path.
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
