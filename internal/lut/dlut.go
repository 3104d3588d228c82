package lut

import (
	"fmt"
	"math"

	"transpimlib/internal/fpbits"
	"transpimlib/internal/pimsim"
)

// DLUT is a direct float-conversion fuzzy lookup table (§3.2.3): the
// address is carved straight out of the float32 bit pattern — sign,
// exponent, and the top MantBits mantissa bits — so entry density
// follows the density of the floats themselves: geometric spacing,
// denser toward zero (Fig. 4(c)). This makes it a natural fit for
// functions that flatten away from zero, like tanh and GELU (Key
// Takeaway 4).
//
// Entries cover |x| ∈ [2^MinExp, 2^MaxExp), with one table per sign.
// Inputs with |x| < 2^MinExp clamp to the smallest-magnitude entry —
// the D-LUT's inherent gap around zero that the DL-LUT fixes (§3.3.1).
type DLUT struct {
	MinExp   int // smallest covered binary exponent
	MaxExp   int // one past the largest covered exponent
	MantBits int // mantissa bits per exponent block: 2^MantBits entries
	Interp   bool
	Pos      []float32 // entries for x > 0
	Neg      []float32 // entries for x < 0

	// both is Pos followed by Neg: the two tables are halves of this one
	// array, so host mirrors pick a sign's table by an index offset
	// instead of a branch on the sign bit.
	both []float32
}

// BuildDLUT samples f for both signs across exponents [minExp, maxExp)
// with 2^mantBits entries per exponent block.
func BuildDLUT(f Func, minExp, maxExp, mantBits int, interp bool) (*DLUT, error) {
	if minExp >= maxExp {
		return nil, fmt.Errorf("lut: D-LUT exponent range [%d, %d) empty", minExp, maxExp)
	}
	if mantBits < 0 || mantBits > 20 {
		return nil, fmt.Errorf("lut: D-LUT mantissa bits %d out of [0, 20]", mantBits)
	}
	t := &DLUT{MinExp: minExp, MaxExp: maxExp, MantBits: mantBits, Interp: interp}
	blocks := maxExp - minExp
	n := blocks << mantBits
	if interp {
		n++ // guard entry at 2^maxExp, continuous across blocks
	}
	t.both = make([]float32, 2*n)
	t.Pos = t.both[:n:n]
	t.Neg = t.both[n:]
	for i := 0; i < n; i++ {
		v := t.entryValue(i)
		t.Pos[i] = float32(f(v))
		t.Neg[i] = float32(f(-v))
	}
	return t, nil
}

// entryValue returns a⁻¹(i) for the positive table: the grid point for
// interpolated tables, the block midpoint for truncating ones.
func (t *DLUT) entryValue(i int) float64 {
	m := t.MantBits
	e := t.MinExp + i>>m
	frac := float64(i & (1<<m - 1))
	if !t.Interp {
		frac += 0.5 // midpoint: truncation at lookup ≡ round to nearest
	}
	return math.Ldexp(1+frac/float64(int(1)<<m), e)
}

// Bytes returns the PIM memory footprint of both sign tables.
func (t *DLUT) Bytes() int { return 4 * (len(t.Pos) + len(t.Neg)) }

// DevDLUT is a D-LUT resident in a PIM core's memory.
type DevDLUT struct {
	t        *DLUT
	pos, neg devF32
}

// Load writes both sign tables into the chosen memory of the PIM core.
func (t *DLUT) Load(dpu *pimsim.DPU, place pimsim.Placement) (*DevDLUT, error) {
	pos, err := loadF32Array(dpu, place, t.Pos)
	if err != nil {
		return nil, err
	}
	neg, err := loadF32Array(dpu, place, t.Neg)
	if err != nil {
		return nil, err
	}
	return &DevDLUT{t: t, pos: pos, neg: neg}, nil
}

// Table returns the host-side table.
func (d *DevDLUT) Table() *DLUT { return d.t }

// index computes the magnitude index and in-block fraction from the
// raw bit pattern: a shift, a subtract and a mask — no float
// arithmetic at all.
func (t *DLUT) index(bits uint32) (idx int32, fracBits uint32) {
	m := uint(t.MantBits)
	magnitude := bits &^ fpbits.SignMask
	top := int32(magnitude >> (23 - m)) // exponent ‖ top mantissa bits
	idx = top - int32(uint32(t.MinExp+fpbits.ExpBias)<<m)
	fracBits = bits & (1<<(23-m) - 1)
	return idx, fracBits
}

// Eval approximates f(x). Non-interpolated: bit extraction, clamp, one
// access — the cheapest method in the library. Interpolated: the
// in-block mantissa remainder becomes Δ (the spacing inside a block is
// uniform, and blocks join continuously at powers of two), plus the
// one-multiply interpolation.
func (d *DevDLUT) Eval(ctx *pimsim.Ctx, x float32) float32 {
	bits := ctx.FBits(x)
	arr := d.pos
	entries := d.t.Pos
	if ctx.ICmp(int32(bits), 0) < 0 { // sign-bit test: one integer compare
		arr = d.neg
		entries = d.t.Neg
	}
	idx, fracBits := d.t.index(bits)
	ctx.Charge(4) // shift, subtract, mask, move of the extraction
	if !d.t.Interp {
		idx = clampIdx(ctx, idx, len(entries))
		return arr.get(ctx, idx)
	}
	idx = clampIdx(ctx, idx, len(entries)-1)
	// Reassemble Δ ∈ [0, 1) from the remainder bits (integer ops).
	ctx.Charge(10)
	delta := float32(fracBits) / float32(uint32(1)<<(23-uint(d.t.MantBits)))
	l0 := arr.get(ctx, idx)
	l1 := arr.get(ctx, idx+1)
	return lerpF32(ctx, l0, l1, delta)
}

// EvalHost is the unmetered host-side reference of Eval.
func (t *DLUT) EvalHost(x float32) float32 {
	bits := fpbits.Bits(x)
	entries := t.Pos
	if bits&fpbits.SignMask != 0 {
		entries = t.Neg
	}
	idx, fracBits := t.index(bits)
	if !t.Interp {
		return entries[clampHost(idx, len(entries))]
	}
	idx = clampHost(idx, len(entries)-1)
	delta := float32(fracBits) / float32(uint32(1)<<(23-uint(t.MantBits)))
	l0 := entries[idx]
	l1 := entries[idx+1]
	return l0 + float32((l1-l0)*delta)
}

// DLLUT combines an L-LUT covering the dense region around zero with a
// D-LUT covering larger magnitudes (§3.3.1), curing the D-LUT's gap
// between 0 and its smallest exponent (Fig. 4(d)).
type DLLUT struct {
	L *LLUT
	D *DLUT
	// Split is 2^D.MinExp: |x| below it routes to the L-LUT.
	Split float32
}

// BuildDLLUT builds the combination: a D-LUT over exponents
// [minExp, maxExp) and an L-LUT with density 2^lDensity over
// [-2^minExp, 2^minExp].
func BuildDLLUT(f Func, minExp, maxExp, mantBits, lDensity int, interp bool) (*DLLUT, error) {
	d, err := BuildDLUT(f, minExp, maxExp, mantBits, interp)
	if err != nil {
		return nil, err
	}
	split := math.Ldexp(1, minExp)
	l, err := BuildLLUT(f, -split, split, lDensity, interp)
	if err != nil {
		return nil, err
	}
	return &DLLUT{L: l, D: d, Split: float32(split)}, nil
}

// Bytes returns the combined PIM memory footprint.
func (t *DLLUT) Bytes() int { return t.L.Bytes() + t.D.Bytes() }

// DevDLLUT is a DL-LUT resident in a PIM core's memory.
type DevDLLUT struct {
	t *DLLUT
	l *DevLLUT
	d *DevDLUT
}

// Load writes both component tables into the chosen memory.
func (t *DLLUT) Load(dpu *pimsim.DPU, place pimsim.Placement) (*DevDLLUT, error) {
	l, err := t.L.Load(dpu, place)
	if err != nil {
		return nil, err
	}
	d, err := t.D.Load(dpu, place)
	if err != nil {
		return nil, err
	}
	return &DevDLLUT{t: t, l: l, d: d}, nil
}

// Table returns the host-side table.
func (d *DevDLLUT) Table() *DLLUT { return d.t }

// Eval approximates f(x): one magnitude compare routes to the L-LUT
// (small inputs) or the D-LUT (large inputs).
func (d *DevDLLUT) Eval(ctx *pimsim.Ctx, x float32) float32 {
	ax := ctx.FAbs(x)
	ctx.Branch()
	if ctx.FCmp(ax, d.t.Split) < 0 {
		return d.l.Eval(ctx, x)
	}
	return d.d.Eval(ctx, x)
}

// EvalHost is the unmetered host-side reference of Eval.
func (t *DLLUT) EvalHost(x float32) float32 {
	ax := x
	if ax < 0 {
		ax = -ax
	}
	if ax < t.Split {
		return t.L.EvalHost(x)
	}
	return t.D.EvalHost(x)
}
