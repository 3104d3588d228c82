package pimsim

import (
	"reflect"
	"testing"
)

// charge is one (class, cycles) pair a Ctx method charges as one op.
type charge struct {
	class  OpClass
	cycles int
}

// chargeCase is one row of the Ctx charge table: a call and exactly
// what it must add to a fresh core's accounting.
type chargeCase struct {
	method string
	call   func(*Ctx)
	want   []charge
	dma    int // bytes of MRAM DMA the call models; 0 for none
}

// chargeTable lists every charging Ctx method with the charges the
// cost model m prescribes for one call.
func chargeTable(m CostModel) []chargeCase {
	one := func(class OpClass, cycles int) []charge { return []charge{{class, cycles}} }
	return []chargeCase{
		{"Charge", func(c *Ctx) { c.Charge(7) }, one(OpCtrl, 7), 0},

		{"IAdd", func(c *Ctx) { c.IAdd(1, 2) }, one(OpIALU, m.IALU), 0},
		{"ISub", func(c *Ctx) { c.ISub(1, 2) }, one(OpIALU, m.IALU), 0},
		{"IShl", func(c *Ctx) { c.IShl(1, 2) }, one(OpIALU, m.IALU), 0},
		{"IShr", func(c *Ctx) { c.IShr(1, 2) }, one(OpIALU, m.IALU), 0},
		{"IUShr", func(c *Ctx) { c.IUShr(1, 2) }, one(OpIALU, m.IALU), 0},
		{"IAnd", func(c *Ctx) { c.IAnd(1, 2) }, one(OpIALU, m.IALU), 0},
		{"IOr", func(c *Ctx) { c.IOr(1, 2) }, one(OpIALU, m.IALU), 0},
		{"IXor", func(c *Ctx) { c.IXor(1, 2) }, one(OpIALU, m.IALU), 0},
		{"ICmp", func(c *Ctx) { c.ICmp(1, 2) }, one(OpIALU, m.IALU), 0},
		{"IMul", func(c *Ctx) { c.IMul(1, 2) }, one(OpIMul, m.IMul), 0},
		{"IDiv", func(c *Ctx) { c.IDiv(1, 2) }, one(OpIDiv, m.IDiv), 0},
		{"Branch", func(c *Ctx) { c.Branch() }, one(OpCtrl, m.Branch), 0},
		{"Move", func(c *Ctx) { c.Move() }, one(OpCtrl, m.Move), 0},

		{"I64Add", func(c *Ctx) { c.I64Add(1, 2) }, one(OpI64, m.I64Add), 0},
		{"I64Sub", func(c *Ctx) { c.I64Sub(1, 2) }, one(OpI64, m.I64Add), 0},
		{"I64Shl", func(c *Ctx) { c.I64Shl(1, 2) }, one(OpI64, m.I64Shl), 0},
		{"I64Shr", func(c *Ctx) { c.I64Shr(1, 2) }, one(OpI64, m.I64Shr), 0},
		{"I64Neg", func(c *Ctx) { c.I64Neg(1) }, one(OpI64, m.I64Add), 0},
		{"I64Cmp", func(c *Ctx) { c.I64Cmp(1, 2) }, one(OpI64, m.I64Add), 0},

		{"QAdd", func(c *Ctx) { c.QAdd(1, 2) }, one(OpIALU, m.IALU), 0},
		{"QSub", func(c *Ctx) { c.QSub(1, 2) }, one(OpIALU, m.IALU), 0},
		{"QMul", func(c *Ctx) { c.QMul(1, 2) }, one(OpI64, m.I64Mul), 0},
		{"QAbs", func(c *Ctx) { c.QAbs(-1) }, one(OpIALU, 2*m.IALU), 0},
		{"QDiv", func(c *Ctx) { c.QDiv(1, 2) }, one(OpIDiv, m.IDiv+4), 0},
		{"QShr", func(c *Ctx) { c.QShr(1, 2) }, one(OpIALU, m.IALU), 0},
		{"QShl", func(c *Ctx) { c.QShl(1, 2) }, one(OpIALU, m.IALU), 0},
		{"QFromF", func(c *Ctx) { c.QFromF(0.5) }, one(OpConv, m.FToI), 0},
		{"QToF", func(c *Ctx) { c.QToF(1) }, one(OpConv, m.IToF), 0},

		{"FAdd", func(c *Ctx) { c.FAdd(1, 2) }, one(OpFAdd, m.FAdd), 0},
		{"FSub", func(c *Ctx) { c.FSub(1, 2) }, one(OpFAdd, m.FSub), 0},
		{"FMul", func(c *Ctx) { c.FMul(1, 2) }, one(OpFMul, m.FMul), 0},
		{"FDiv", func(c *Ctx) { c.FDiv(1, 2) }, one(OpFDiv, m.FDiv), 0},
		{"FNeg", func(c *Ctx) { c.FNeg(1) }, one(OpFMisc, m.FNeg), 0},
		{"FAbs", func(c *Ctx) { c.FAbs(-1) }, one(OpFMisc, m.FNeg), 0},
		{"FCmp", func(c *Ctx) { c.FCmp(1, 2) }, one(OpFMisc, m.FCmp), 0},
		{"FToIRound", func(c *Ctx) { c.FToIRound(1.5) }, one(OpConv, m.FToI), 0},
		{"FToITrunc", func(c *Ctx) { c.FToITrunc(1.5) }, one(OpConv, m.FToI), 0},
		{"FToIFloor", func(c *Ctx) { c.FToIFloor(1.5) }, one(OpConv, m.FToI), 0},
		{"IToF", func(c *Ctx) { c.IToF(3) }, one(OpConv, m.IToF), 0},
		{"Ldexp", func(c *Ctx) { c.Ldexp(1, 3) }, one(OpLdexp, m.Ldexp), 0},
		{"Frexp", func(c *Ctx) { c.Frexp(3) }, one(OpFrexp, m.Frexp), 0},
		{"FBits", func(c *Ctx) { c.FBits(1) }, one(OpCtrl, m.Move), 0},
		{"FFromBits", func(c *Ctx) { c.FFromBits(1) }, one(OpCtrl, m.Move), 0},
		{"F32ToFix64", func(c *Ctx) { c.F32ToFix64(1, 8) },
			[]charge{{OpConv, m.FToI}, {OpI64, m.I64Shl}}, 0},
		{"Fix64ToF32", func(c *Ctx) { c.Fix64ToF32(256, 8) },
			[]charge{{OpI64, m.I64Shr}, {OpConv, m.IToF}}, 0},

		{"WramLoadF32", func(c *Ctx) { c.WramLoadF32(0) }, one(OpWRAM, m.WRAMLoad), 0},
		{"WramStoreF32", func(c *Ctx) { c.WramStoreF32(0, 1) }, one(OpWRAM, m.WRAMStore), 0},
		{"WramLoadI32", func(c *Ctx) { c.WramLoadI32(0) }, one(OpWRAM, m.WRAMLoad), 0},
		{"WramStoreI32", func(c *Ctx) { c.WramStoreI32(0, 1) }, one(OpWRAM, m.WRAMStore), 0},
		{"WramLoadI64", func(c *Ctx) { c.WramLoadI64(0) }, one(OpWRAM, 2*m.WRAMLoad), 0},
		{"LoadStreamedF32", func(c *Ctx) { c.LoadStreamedF32(c.DPU().MRAM, 0) }, one(OpWRAM, m.WRAMLoad), 0},
		{"StoreStreamedF32", func(c *Ctx) { c.StoreStreamedF32(c.DPU().MRAM, 0, 1) }, one(OpWRAM, m.WRAMStore), 0},

		{"MramLoadF32", func(c *Ctx) { c.MramLoadF32(0) }, one(OpMRAM, m.MRAMIssue), 8},
		{"MramStoreF32", func(c *Ctx) { c.MramStoreF32(0, 1) }, one(OpMRAM, m.MRAMIssue), 8},
		{"MramLoadI32", func(c *Ctx) { c.MramLoadI32(0) }, one(OpMRAM, m.MRAMIssue), 8},
		{"MramLoadI64", func(c *Ctx) { c.MramLoadI64(0) }, one(OpMRAM, m.MRAMIssue), 8},
		{"MramRead", func(c *Ctx) { c.MramRead(0, 0, 48) }, one(OpMRAM, m.MRAMIssue), 48},
		{"MramWrite", func(c *Ctx) { c.MramWrite(0, 0, 48) }, one(OpMRAM, m.MRAMIssue), 48},
		{"ChargeDMA", func(c *Ctx) { c.ChargeDMA(1000) }, one(OpMRAM, m.MRAMIssue), 1000},
	}
}

// testProfiles returns the shipped cost profiles plus "distinct", a
// model with a different cost for every field, which tells apart
// every kind the shipped profiles cannot.
func testProfiles() map[string]CostModel {
	profiles := Profiles()
	profiles["distinct"] = CostModel{
		IALU: 1, Move: 2, Branch: 3, IMul: 5, IDiv: 7,
		I64Add: 11, I64Shl: 13, I64Shr: 17, I64Mul: 19,
		FAdd: 23, FSub: 29, FMul: 31, FDiv: 37, FNeg: 41, FCmp: 43,
		FToI: 47, IToF: 53, Ldexp: 59, Frexp: 61,
		WRAMLoad: 67, WRAMStore: 71,
		MRAMIssue: 73, MRAMLatency: 79, MRAMPerByte: 0.25,
	}
	return profiles
}

// TestCtxChargeTable pins what every charging Ctx method adds to a
// fresh core's accounting under every cost profile: the per-class ops
// and cycles of Counters, IssueCycles and DMACycles. A method charged
// to the wrong class or cost, or a new method missing from the table,
// fails here. The shipped profiles give some fields equal costs (FAdd
// and FSub, IALU and Move), so a model with a distinct cost per field
// also runs: it tells apart every kind the profiles cannot.
func TestCtxChargeTable(t *testing.T) {
	nonCharging := map[string]bool{
		"DPU": true, "CycleCount": true, "TakeSig": true, "ChargeOps": true, "ChargeSig": true,
	}
	listed := map[string]bool{}
	for _, tc := range chargeTable(Default()) {
		listed[tc.method] = true
	}
	ctxType := reflect.TypeOf((*Ctx)(nil))
	for i := 0; i < ctxType.NumMethod(); i++ {
		name := ctxType.Method(i).Name
		if !listed[name] && !nonCharging[name] {
			t.Errorf("exported Ctx method %s is missing from the charge table", name)
		}
	}
	for name := range listed {
		if _, ok := ctxType.MethodByName(name); !ok {
			t.Errorf("charge table lists %s, which is not a Ctx method", name)
		}
	}

	for profile, m := range testProfiles() {
		for _, tc := range chargeTable(m) {
			d := NewDPU(0, m, DefaultTasklets)
			tc.call(d.NewCtx())

			var want Counters
			var issue uint64
			for _, ch := range tc.want {
				want.Ops[ch.class]++
				want.Cycles[ch.class] += uint64(ch.cycles)
				issue += uint64(ch.cycles)
			}
			var dma uint64
			if tc.dma > 0 {
				dma = uint64(m.MRAMLatency) + uint64(float64(tc.dma)*m.MRAMPerByte)
			}
			if got := d.Counters(); got != want {
				t.Errorf("%s/%s: counters\n got  %+v\n want %+v", profile, tc.method, got, want)
			}
			if got := d.IssueCycles(); got != issue {
				t.Errorf("%s/%s: IssueCycles = %d, want %d", profile, tc.method, got, issue)
			}
			if got := d.DMACycles(); got != dma {
				t.Errorf("%s/%s: DMACycles = %d, want %d", profile, tc.method, got, dma)
			}
		}
	}
}
