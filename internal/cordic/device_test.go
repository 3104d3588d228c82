package cordic

import (
	"math"
	"slices"
	"testing"

	"transpimlib/internal/pimsim"
)

// charges is what a call adds to a core's accounting: per-class ops and
// cycles, and the DMA engine's busy cycles.
type charges struct {
	c   pimsim.Counters
	dma uint64
}

func (w *charges) add(class pimsim.OpClass, n uint64, cycles int) {
	w.c.Ops[class] += n
	w.c.Cycles[class] += n * uint64(cycles)
}

// loads adds n 64-bit table-word loads: a word pair from the
// scratchpad, or one 8-byte DMA from the DRAM bank.
func (w *charges) loads(m pimsim.CostModel, place Placement, n uint64) {
	if place == InWRAM {
		w.add(pimsim.OpWRAM, n, 2*m.WRAMLoad)
		return
	}
	w.add(pimsim.OpMRAM, n, m.MRAMIssue)
	w.dma += n * (uint64(m.MRAMLatency) + uint64(8*m.MRAMPerByte))
}

// iterations adds n loop iterations: the (angle, shift) loads, two
// 64-bit shifts, the sign compare, the add/subtracts of y, z and (but
// in linear mode, whose x is invariant) x, and 2 cycles of loop
// overhead.
func (w *charges) iterations(m pimsim.CostModel, place Placement, mode Mode, n uint64) {
	w.loads(m, place, 2*n)
	w.add(pimsim.OpI64, 2*n, m.I64Shr)
	adds := uint64(4)
	if mode == Linear {
		adds = 3
	}
	w.add(pimsim.OpI64, adds*n, m.I64Add)
	w.add(pimsim.OpCtrl, n, 2)
}

// expectCharges fails unless the core holds exactly want.
func expectCharges(t *testing.T, what string, d *pimsim.DPU, want charges) {
	t.Helper()
	if got := d.Counters(); got != want.c {
		t.Errorf("%s: counters\n got  %+v\n want %+v", what, got, want.c)
	}
	if got := d.IssueCycles(); got != want.c.TotalCycles() {
		t.Errorf("%s: IssueCycles = %d, want %d", what, got, want.c.TotalCycles())
	}
	if got := d.DMACycles(); got != want.dma {
		t.Errorf("%s: DMACycles = %d, want %d", what, got, want.dma)
	}
	d.ResetCycles()
}

// chargeModels are the cost models the charge pins run under. The
// shipped profiles price the loop's ops alike, so "distinct" gives each
// field its own cost: a signature recorded under another model than the
// evaluating core's fails there.
func chargeModels() map[string]pimsim.CostModel {
	return map[string]pimsim.CostModel{
		"default": pimsim.Default(),
		"hbm-pim": pimsim.HBMPIMLike(),
		"distinct": {
			IALU: 1, Move: 2, Branch: 3, IMul: 5, IDiv: 7,
			I64Add: 11, I64Shl: 13, I64Shr: 17, I64Mul: 19,
			FAdd: 23, FSub: 29, FMul: 31, FDiv: 37, FNeg: 41, FCmp: 43,
			FToI: 47, IToF: 53, Ldexp: 59, Frexp: 61,
			WRAMLoad: 67, WRAMStore: 71,
			MRAMIssue: 73, MRAMLatency: 79, MRAMPerByte: 0.75,
		},
	}
}

// TestIterationCharges pins what one Rotate, one Vector and one
// LUTAssist.SinCos call charge, in every mode and placement, against
// counts worked out from the cost model rather than read from the
// signature Load records: the test fails if the recording and the loop
// drift apart.
func TestIterationCharges(t *testing.T) {
	// Worked by hand: circular, WRAM, 30 iterations under Default is 60
	// word-pair loads (2 cycles each), 180 64-bit ops (60 shifts of 7
	// cycles, 120 add/sub/compares of 3) and 30 loop overheads of 2.
	d := pimsim.NewDPU(0, pimsim.Default(), 16)
	dev, err := NewTables(Circular, 30).Load(d, InWRAM)
	if err != nil {
		t.Fatal(err)
	}
	dev.Rotate(d.NewCtx(), One, 0, One/3)
	var hand charges
	hand.c.Ops[pimsim.OpWRAM], hand.c.Cycles[pimsim.OpWRAM] = 60, 120
	hand.c.Ops[pimsim.OpI64], hand.c.Cycles[pimsim.OpI64] = 180, 60*7+120*3
	hand.c.Ops[pimsim.OpCtrl], hand.c.Cycles[pimsim.OpCtrl] = 30, 60
	expectCharges(t, "hand-worked circular/wram", d, hand)

	for name, m := range chargeModels() {
		for _, place := range []Placement{InWRAM, InMRAM} {
			for _, mode := range []Mode{Circular, Hyperbolic, Linear} {
				d := pimsim.NewDPU(0, m, 16)
				tb := NewTables(mode, 30)
				dev, err := tb.Load(d, place)
				if err != nil {
					t.Fatal(err)
				}
				c := d.NewCtx()
				var want charges
				want.iterations(m, place, mode, uint64(tb.Iterations()))
				dev.Rotate(c, One, One/2, -One/3)
				expectCharges(t, name+"/"+place.String()+"/"+mode.String()+"/rotate", d, want)
				dev.Vector(c, One, -One/2, 0)
				expectCharges(t, name+"/"+place.String()+"/"+mode.String()+"/vector", d, want)
			}

			// CORDIC+LUT: the index shift, the (x, y, φ) head fetch and
			// the θ update, then the circular tail.
			d := pimsim.NewDPU(0, m, 16)
			la, err := NewLUTAssist(d, place, 10, 22)
			if err != nil {
				t.Fatal(err)
			}
			d.ResetCycles()
			var want charges
			want.add(pimsim.OpI64, 1, m.I64Shr)
			want.loads(m, place, 3)
			want.add(pimsim.OpI64, 1, m.I64Add)
			want.iterations(m, place, Circular, uint64(la.TailIterations()))
			la.SinCos(d.NewCtx(), FromFloat(1.0))
			expectCharges(t, name+"/"+place.String()+"/cordic+lut", d, want)
		}
	}
}

// TestShadowCtxReadsCoreTables: a shadow context evaluates the kernels
// on the core's own tables, returning the bits the core's context
// returns and charging the same to its throwaway core, and leaves the
// core's accounting untouched.
func TestShadowCtxReadsCoreTables(t *testing.T) {
	for _, place := range []Placement{InWRAM, InMRAM} {
		d := pimsim.NewDPU(0, pimsim.Default(), 16)
		dev, err := NewTables(Hyperbolic, 30).Load(d, place)
		if err != nil {
			t.Fatal(err)
		}
		la, err := NewLUTAssist(d, place, 8, 20)
		if err != nil {
			t.Fatal(err)
		}
		eval := func(c *pimsim.Ctx) [4]int64 {
			e := dev.Exp(c, FromFloat(0.6))
			l := dev.Ln(c, FromFloat(1.7))
			s, co := la.SinCos(c, FromFloat(1.1))
			return [4]int64{e, l, s, co}
		}
		d.ResetCycles()
		want := eval(d.NewCtx())
		ownCharges, ownDMA := d.Counters(), d.DMACycles()
		shadow := d.ShadowCtx()
		if got := eval(shadow); got != want {
			t.Errorf("%v: shadow context returned %v, the core's own %v", place, got, want)
		}
		if d.Counters() != ownCharges || d.DMACycles() != ownDMA {
			t.Errorf("%v: a shadow evaluation charged the core", place)
		}
		if shadow.DPU().Counters() != ownCharges || shadow.DPU().DMACycles() != ownDMA {
			t.Errorf("%v: shadow core charged %+v (dma %d), want %+v (dma %d)",
				place, shadow.DPU().Counters(), shadow.DPU().DMACycles(), ownCharges, ownDMA)
		}
	}
}

// TestDeviceReadsCoreMemory: Rotate reads its angle words from the
// core's memory on every call, so one flipped bit there changes its
// result exactly as the same flip in the host tables would, while
// RotateHost keeps reading the host copy.
func TestDeviceReadsCoreMemory(t *testing.T) {
	for _, place := range []Placement{InWRAM, InMRAM} {
		d := pimsim.NewDPU(0, pimsim.Default(), 16)
		tb := NewTables(Circular, 30)
		dev, err := tb.Load(d, place)
		if err != nil {
			t.Fatal(err)
		}
		c := d.NewCtx()
		theta := FromFloat(1.0)
		clean := devRun(dev, c, tb.InvGain, 0, theta, false)
		host := hostRun(tb, tb.InvGain, 0, theta, false)

		const word, bit = 3, 20
		mem := d.MemFor(place)
		addr := dev.addr + 16*word
		mem.PutInt64(addr, mem.Int64(addr)^1<<bit)

		flipped := devRun(dev, c, tb.InvGain, 0, theta, false)
		if flipped == clean {
			t.Errorf("%v: Rotate ignored a flipped bit in angle word %d", place, word)
		}
		if got := hostRun(tb, tb.InvGain, 0, theta, false); got != host {
			t.Errorf("%v: RotateHost changed with the core's memory: %v, was %v", place, got, host)
		}
		corrupt := *tb
		corrupt.Angles = slices.Clone(tb.Angles)
		corrupt.Angles[word] ^= 1 << bit
		if want := hostRun(&corrupt, tb.InvGain, 0, theta, false); flipped != want {
			t.Errorf("%v: Rotate on the flipped table = %v, the host iteration over the same flip %v", place, flipped, want)
		}
	}
}

// FuzzCORDICDeviceHost checks Rotate and Vector against RotateHost,
// VectorHost and the textbook branching iteration for arbitrary starts,
// modes, iteration counts and placements.
func FuzzCORDICDeviceHost(f *testing.F) {
	f.Add(int64(0), int64(0), int64(0), uint8(0), uint8(29), false, false)
	f.Add(One, int64(-1), int64(1), uint8(1), uint8(39), true, true)
	f.Add(int64(math.MaxInt64), int64(math.MinInt64), int64(-1), uint8(2), uint8(0), true, false)
	type key struct {
		mode  Mode
		iters int
		place Placement
	}
	d := pimsim.NewDPU(0, pimsim.Default(), 16)
	c := d.NewCtx()
	devs := map[key]*Device{}
	f.Fuzz(func(t *testing.T, x0, y0, z0 int64, mode, iters uint8, vector, mram bool) {
		k := key{Mode(mode % 3), 1 + int(iters)%MaxIterations, InWRAM}
		if mram {
			k.place = InMRAM
		}
		dev := devs[k]
		if dev == nil {
			var err error
			if dev, err = NewTables(k.mode, k.iters).Load(d, k.place); err != nil {
				t.Fatal(err)
			}
			devs[k] = dev
		}
		dv, host, ref := devRun(dev, c, x0, y0, z0, vector), hostRun(dev.t, x0, y0, z0, vector), refRun(dev.t, x0, y0, z0, vector)
		if dv != host || dv != ref {
			t.Fatalf("%+v vector=%v from (%d, %d, %d): device %v, host %v, reference %v", k, vector, x0, y0, z0, dv, host, ref)
		}
	})
}
