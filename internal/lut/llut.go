package lut

import (
	"fmt"
	"math"

	"transpimlib/internal/fixed"
	"transpimlib/internal/fpbits"
	"transpimlib/internal/pimsim"
)

// LLUT is an LDEXP-based fuzzy lookup table (§3.2.2): the density is
// constrained to a power of two, k = 2^N, so the address generation
// a(x) = (x − p)·2^N needs no float multiplication — just TransPimLib's
// custom ldexp (an integer add on the exponent field) and bit-level
// extraction of the integer part.
//
// The non-interpolated variant hides its rounding in a⁻¹: entries hold
// f at *midpoints*, so the device can truncate instead of rounding and
// stays entirely multiplication- and addition-free on the float path
// when p = 0. The interpolated variant adds one float multiply.
type LLUT struct {
	P       float64 // input mapped to address 0
	N       int     // density exponent: k = 2^N (may be negative)
	Interp  bool
	Entries []float32
}

// BuildLLUT samples f over [lo, hi] with density 2^n.
func BuildLLUT(f Func, lo, hi float64, n int, interp bool) (*LLUT, error) {
	if err := validateRange(lo, hi); err != nil {
		return nil, err
	}
	if n < -30 || n > 30 {
		return nil, fmt.Errorf("lut: L-LUT density exponent %d out of range", n)
	}
	t := &LLUT{P: lo, N: n, Interp: interp}
	k := math.Ldexp(1, n)
	count := int(math.Ceil((hi-lo)*k)) + 1
	if count < 2 {
		count = 2
	}
	if interp {
		count++ // guard entry
	}
	t.Entries = make([]float32, count)
	for i := range t.Entries {
		if interp {
			// a⁻¹(i) = p + i·2⁻ⁿ: exact grid points, Δ interpolates between.
			t.Entries[i] = float32(f(lo + float64(i)/k))
		} else {
			// a⁻¹(i) = p + (i+½)·2⁻ⁿ: midpoints, so truncation at lookup
			// time delivers round-to-nearest accuracy for free.
			t.Entries[i] = float32(f(lo + (float64(i)+0.5)/k))
		}
	}
	return t, nil
}

// Bytes returns the PIM memory footprint of the table.
func (t *LLUT) Bytes() int { return 4 * len(t.Entries) }

// DevLLUT is an L-LUT resident in a PIM core's memory.
type DevLLUT struct {
	t     *LLUT
	arr   devF32
	p     float32
	pZero bool
}

// Load writes the table into the chosen memory of the PIM core.
func (t *LLUT) Load(dpu *pimsim.DPU, place pimsim.Placement) (*DevLLUT, error) {
	arr, err := loadF32Array(dpu, place, t.Entries)
	if err != nil {
		return nil, err
	}
	return &DevLLUT{t: t, arr: arr, p: float32(t.P), pZero: t.P == 0}, nil
}

// Table returns the host-side table.
func (d *DevLLUT) Table() *LLUT { return d.t }

// Eval approximates f(x). Non-interpolated: ldexp + truncation + one
// table access — no multiplications or other complex operations
// (§4.2.1). Interpolated: ldexp + integer floor/fraction split + two
// accesses + the one-multiply interpolation.
func (d *DevLLUT) Eval(ctx *pimsim.Ctx, x float32) float32 {
	if !d.pZero {
		x = ctx.FSub(x, d.p)
	}
	tt := ctx.Ldexp(x, d.t.N)
	if !d.t.Interp {
		idx := clampIdx(ctx, truncIndex(ctx, tt), len(d.t.Entries))
		return d.arr.get(ctx, idx)
	}
	idx, delta := splitIntFrac(ctx, tt)
	idx = clampIdx(ctx, idx, len(d.t.Entries)-1)
	l0 := d.arr.get(ctx, idx)
	l1 := d.arr.get(ctx, idx+1)
	return lerpF32(ctx, l0, l1, delta)
}

// EvalHost is the unmetered host-side reference of Eval.
func (t *LLUT) EvalHost(x float32) float32 {
	tt := float64(fpbits.Ldexp(x-float32(t.P), t.N))
	if !t.Interp {
		return t.Entries[clampHost(int32(math.Floor(tt)), len(t.Entries))]
	}
	f := math.Floor(tt)
	idx := clampHost(int32(f), len(t.Entries)-1)
	delta := float32(tt - f)
	l0 := t.Entries[idx]
	l1 := t.Entries[idx+1]
	return l0 + float32((l1-l0)*delta)
}

// FixedLLUT is the Q3.28 fixed-point variant of the L-LUT: addresses
// come from a single arithmetic shift of the fixed-point difference,
// and interpolation uses one fixed-point multiply — which on a PIM
// core without native floats roughly doubles the speed of the
// interpolated float L-LUT (§4.2.1 observation 1).
type FixedLLUT struct {
	P       fixed.Q3_28
	N       int // density exponent, 0 ≤ N ≤ 28
	Interp  bool
	Entries []fixed.Q3_28
}

// BuildFixedLLUT samples f over [lo, hi] with density 2^n. Function
// outputs must fit the Q3.28 range [-8, 8).
func BuildFixedLLUT(f Func, lo, hi float64, n int, interp bool) (*FixedLLUT, error) {
	if err := validateRange(lo, hi); err != nil {
		return nil, err
	}
	if n < 0 || n > fixed.FracBits {
		return nil, fmt.Errorf("lut: fixed L-LUT density exponent %d out of [0, %d]", n, fixed.FracBits)
	}
	if lo < -8 || hi >= 8 {
		return nil, fmt.Errorf("lut: fixed L-LUT input range [%v, %v) exceeds Q3.28", lo, hi)
	}
	t := &FixedLLUT{P: fixed.FromFloat64(lo), N: n, Interp: interp}
	k := math.Ldexp(1, n)
	count := int(math.Ceil((hi-lo)*k)) + 1
	if count < 2 {
		count = 2
	}
	if interp {
		count++
	}
	t.Entries = make([]fixed.Q3_28, count)
	for i := range t.Entries {
		var v float64
		if interp {
			v = f(lo + float64(i)/k)
		} else {
			v = f(lo + (float64(i)+0.5)/k)
		}
		t.Entries[i] = fixed.FromFloat64(v)
	}
	return t, nil
}

// Bytes returns the PIM memory footprint of the table.
func (t *FixedLLUT) Bytes() int { return 4 * len(t.Entries) }

// DevFixedLLUT is a fixed-point L-LUT resident in a PIM core's memory.
type DevFixedLLUT struct {
	t   *FixedLLUT
	arr devI32
}

// Load writes the table into the chosen memory of the PIM core.
func (t *FixedLLUT) Load(dpu *pimsim.DPU, place pimsim.Placement) (*DevFixedLLUT, error) {
	raw := make([]int32, len(t.Entries))
	for i, e := range t.Entries {
		raw[i] = int32(e)
	}
	arr, err := loadI32Array(dpu, place, raw)
	if err != nil {
		return nil, err
	}
	return &DevFixedLLUT{t: t, arr: arr}, nil
}

// Table returns the host-side table.
func (d *DevFixedLLUT) Table() *FixedLLUT { return d.t }

// Eval approximates f(x) for a fixed-point input: one integer
// subtract, one arithmetic shift, and the access(es); interpolation
// extracts Δ with a mask+shift and spends one fixed-point multiply.
func (d *DevFixedLLUT) Eval(ctx *pimsim.Ctx, x fixed.Q3_28) fixed.Q3_28 {
	shift := uint(fixed.FracBits - d.t.N)
	diff := ctx.QSub(x, d.t.P)
	idx := int32(ctx.QShr(diff, shift))
	if !d.t.Interp {
		idx = clampIdx(ctx, idx, len(d.t.Entries))
		return fixed.Q3_28(d.arr.get(ctx, idx))
	}
	// Δ in Q3.28: the bits of diff below the index, rescaled to [0, 1).
	rem := ctx.IAnd(int32(diff), int32(1)<<shift-1)
	delta := fixed.Q3_28(ctx.IShl(rem, uint(d.t.N)))
	idx = clampIdx(ctx, idx, len(d.t.Entries)-1)
	l0 := fixed.Q3_28(d.arr.get(ctx, idx))
	l1 := fixed.Q3_28(d.arr.get(ctx, idx+1))
	dl := ctx.QSub(l1, l0)
	return ctx.QAdd(l0, ctx.QMul(dl, delta))
}

// EvalFloat wraps Eval with float32↔Q3.28 conversions, the form the
// microbenchmarks measure when operand arrays are float (Fig. 3(a),
// steps 2 and 6).
func (d *DevFixedLLUT) EvalFloat(ctx *pimsim.Ctx, x float32) float32 {
	return ctx.QToF(d.Eval(ctx, ctx.QFromF(x)))
}

// EvalHost is the unmetered host-side reference of Eval.
func (t *FixedLLUT) EvalHost(x fixed.Q3_28) fixed.Q3_28 {
	shift := uint(fixed.FracBits - t.N)
	diff := x.Sub(t.P)
	idx := int32(diff.Shr(shift))
	if !t.Interp {
		return t.Entries[clampHost(idx, len(t.Entries))]
	}
	rem := int32(diff) & (int32(1)<<shift - 1)
	delta := fixed.Q3_28(rem << uint(t.N))
	idx = clampHost(idx, len(t.Entries)-1)
	l0 := t.Entries[idx]
	l1 := t.Entries[idx+1]
	return l0.Add(l1.Sub(l0).Mul(delta))
}
