package lut

import (
	"math"

	"transpimlib/internal/pimsim"
)

// MLUT is a multiplication-based fuzzy lookup table (§3.2.1): entries
// are regularly spaced with arbitrary density k, and the device
// address generation is a(x) = round((x − p)·k) — one float subtract,
// one float multiply and one rounding step.
type MLUT struct {
	P       float64 // input value mapped to address 0
	K       float64 // density (entries per unit input)
	Interp  bool
	Entries []float32
}

// BuildMLUT samples f over [lo, hi] into a table with the given number
// of addressable entries. For the interpolated variant one extra guard
// entry is stored so the a(x)+1 access never leaves the table.
func BuildMLUT(f Func, lo, hi float64, entries int, interp bool) (*MLUT, error) {
	if err := validateRange(lo, hi); err != nil {
		return nil, err
	}
	if entries < 2 {
		entries = 2
	}
	t := &MLUT{
		P:      lo,
		K:      float64(entries-1) / (hi - lo),
		Interp: interp,
	}
	n := entries
	if interp {
		n++ // guard entry for l(a(x)+1)
	}
	t.Entries = make([]float32, n)
	for i := range t.Entries {
		// a⁻¹(i) = i/k + p: the exact input each address represents.
		t.Entries[i] = float32(f(float64(i)/t.K + t.P))
	}
	return t, nil
}

// Bytes returns the PIM memory footprint of the table.
func (t *MLUT) Bytes() int { return 4 * len(t.Entries) }

// DevMLUT is an M-LUT resident in a PIM core's memory.
type DevMLUT struct {
	t   *MLUT
	arr devF32
	p   float32
	k   float32
}

// Load writes the table into the chosen memory of the PIM core.
func (t *MLUT) Load(dpu *pimsim.DPU, place pimsim.Placement) (*DevMLUT, error) {
	arr, err := loadF32Array(dpu, place, t.Entries)
	if err != nil {
		return nil, err
	}
	return &DevMLUT{t: t, arr: arr, p: float32(t.P), k: float32(t.K)}, nil
}

// Table returns the host-side table.
func (d *DevMLUT) Table() *MLUT { return d.t }

// Eval approximates f(x). Non-interpolated: one float subtract, one
// float multiply, one round-convert, one table access. Interpolated:
// additionally the floor/fraction split, a second access, and the
// one-multiply linear interpolation — two float multiplies total,
// making it the slowest LUT method (§4.2.1 observation 1).
func (d *DevMLUT) Eval(ctx *pimsim.Ctx, x float32) float32 {
	tt := ctx.FMul(ctx.FSub(x, d.p), d.k)
	if !d.t.Interp {
		idx := clampIdx(ctx, ctx.FToIRound(tt), len(d.t.Entries))
		return d.arr.get(ctx, idx)
	}
	idx := ctx.FToIFloor(tt)
	delta := ctx.FSub(tt, ctx.IToF(idx))
	idx = clampIdx(ctx, idx, len(d.t.Entries)-1)
	l0 := d.arr.get(ctx, idx)
	l1 := d.arr.get(ctx, idx+1)
	return lerpF32(ctx, l0, l1, delta)
}

// EvalHost is the unmetered host-side reference of Eval, used by tests
// and accuracy sweeps. It mirrors the device's float32 arithmetic
// exactly.
func (t *MLUT) EvalHost(x float32) float32 {
	tt := (x - float32(t.P)) * float32(t.K)
	if !t.Interp {
		idx := clampHost(int32(math.RoundToEven(float64(tt))), len(t.Entries))
		return t.Entries[idx]
	}
	f := math.Floor(float64(tt))
	idx := clampHost(int32(f), len(t.Entries)-1)
	delta := float32(float64(tt) - f)
	l0 := t.Entries[idx]
	l1 := t.Entries[idx+1]
	return l0 + float32((l1-l0)*delta)
}

func clampHost(idx int32, n int) int32 {
	if idx < 0 {
		return 0
	}
	if idx >= int32(n) {
		return int32(n - 1)
	}
	return idx
}
