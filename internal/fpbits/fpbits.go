// Package fpbits provides bit-level IEEE-754 single-precision
// utilities: ldexp, frexp, and direct access to sign/exponent/mantissa
// fields.
//
// The UPMEM runtime library does not provide ldexp; TransPimLib
// implements it in accordance with the C99 standard (paper §3.2.2)
// because multiplying by 2ⁿ via exponent manipulation is dramatically
// cheaper than a general floating-point multiplication on a PIM core.
// This package is that implementation: integer-only manipulation of
// the raw float32 bit pattern, handling zero, subnormal, infinite and
// NaN inputs, plus overflow and underflow of the result.
package fpbits

import "math"

// IEEE-754 binary32 field layout.
const (
	MantBits = 23
	ExpBits  = 8
	ExpBias  = 127
	ExpMax   = 0xFF
	MantMask = 1<<MantBits - 1
	ExpMask  = (1<<ExpBits - 1) << MantBits
	SignMask = 1 << 31
)

// Bits returns the raw bit pattern of f.
func Bits(f float32) uint32 { return math.Float32bits(f) }

// FromBits reinterprets a bit pattern as a float32.
func FromBits(b uint32) float32 { return math.Float32frombits(b) }

// SignBit reports whether f is negative (including -0 and negative NaN
// payloads).
func SignBit(f float32) bool { return Bits(f)&SignMask != 0 }

// RawExp returns the biased exponent field of f (0..255).
func RawExp(f float32) int { return int(Bits(f)>>MantBits) & 0xFF }

// RawMant returns the 23-bit mantissa field of f (without the implicit
// leading one).
func RawMant(f float32) uint32 { return Bits(f) & MantMask }

// IsNaN reports whether f is a NaN, using only integer comparisons.
func IsNaN(f float32) bool {
	b := Bits(f)
	return b&ExpMask == ExpMask && b&MantMask != 0
}

// IsInf reports whether f is +Inf or -Inf.
func IsInf(f float32) bool {
	b := Bits(f)
	return b&ExpMask == ExpMask && b&MantMask == 0
}

// IsZero reports whether f is +0 or -0.
func IsZero(f float32) bool { return Bits(f)&^SignMask == 0 }

// IsSubnormal reports whether f is a nonzero subnormal value.
func IsSubnormal(f float32) bool {
	b := Bits(f)
	return b&ExpMask == 0 && b&MantMask != 0
}

// Ldexp returns f × 2ⁿ, computed per C99 ldexpf semantics:
//   - ±0, ±Inf and NaN are returned unchanged;
//   - overflow returns ±Inf;
//   - results too small for a normal are computed as subnormals, and
//     underflow below the smallest subnormal returns ±0.
//
// The fast path — a normal input whose result is also normal — is a
// single integer add to the exponent field, which is what makes the
// L-LUT address generation cheap on a PIM core.
func Ldexp(f float32, n int) float32 {
	b := Bits(f)
	exp := int(b>>MantBits) & 0xFF
	switch exp {
	case ExpMax: // Inf or NaN
		return f
	case 0:
		if b&MantMask == 0 { // ±0
			return f
		}
		// Subnormal: normalize first so the exponent add below works.
		f, b, exp = normalizeSubnormal(b)
	}
	exp += n
	switch {
	case exp >= ExpMax: // overflow → ±Inf
		return FromBits(b&SignMask | ExpMask)
	case exp >= 1: // normal result: rewrite exponent field
		return FromBits(b&^uint32(ExpMask) | uint32(exp)<<MantBits)
	case exp >= -MantBits: // subnormal result (possibly rounding up from below)
		// Shift the full significand (implicit one restored) right.
		mant := b&MantMask | 1<<MantBits
		shift := uint(1 - exp)
		half := uint32(1) << (shift - 1)
		rounded := mant + half
		// Round half to even.
		if mant&(half<<1-1) == half && rounded&(1<<shift) != 0 && rounded&(half<<1-1) == 0 {
			rounded -= half
		}
		return FromBits(b&SignMask | rounded>>shift)
	default: // total underflow → ±0
		return FromBits(b & SignMask)
	}
}

// LdexpMany sets ys[i] = Ldexp(ys[i], int(ns[i])) for every i, in
// place; ns holds at least len(ys) exponents. A normal ys[i] whose
// scaled exponent stays normal takes one integer add on the exponent
// field; every other element calls Ldexp. The scaled exponent is
// computed in int, so saturated scales (±2³¹) cannot wrap.
func LdexpMany(ys []float32, ns []int32) {
	ns = ns[:len(ys)]
	for i, y := range ys {
		b := Bits(y)
		n := int(ns[i])
		e := int(b>>MantBits) & 0xFF
		if uint(e-1) < ExpMax-1 && uint(e+n-1) < ExpMax-1 {
			ys[i] = FromBits(b + uint32(n)<<MantBits)
		} else {
			ys[i] = Ldexp(y, n)
		}
	}
}

// LdexpWindow returns the inclusive biased-exponent window [lo, hi]
// for which Ldexp(x, n) reduces to a single integer add on the
// exponent field: a normal input whose scaled result is also normal.
// For a float32 with raw exponent field e (Bits(x)>>MantBits & 0xFF),
// e ∈ [lo, hi] guarantees Ldexp(x, n) == FromBits(Bits(x) +
// uint32(n)<<MantBits). ok is false when the window is empty (no
// input takes the fast path). The batch mirror kernels hoist this
// classification out of their inner loops.
func LdexpWindow(n int) (lo, hi int32, ok bool) {
	if n >= ExpMax-1 || n <= -(ExpMax-1) {
		return 0, -1, false
	}
	lo, hi = 1, ExpMax-1
	if n > 0 {
		hi -= int32(n) // result exponent e+n must stay ≤ 254
	} else {
		lo -= int32(n) // result exponent e+n must stay ≥ 1
	}
	return lo, hi, true
}

// normalizeSubnormal rescales a subnormal bit pattern into an
// equivalent (float, bits, unbiased-field) triple with a synthetic
// exponent field that may be ≤ 0; used internally by Ldexp.
func normalizeSubnormal(b uint32) (float32, uint32, int) {
	mant := b & MantMask
	exp := 1
	for mant&(1<<MantBits) == 0 {
		mant <<= 1
		exp--
	}
	nb := b&SignMask | mant&MantMask // drop the implicit one
	return FromBits(nb), nb, exp
}

// Frexp decomposes f into a normalized fraction frac in [0.5, 1) and an
// integer exponent such that f = frac × 2^exp, per C99 frexpf:
// ±0, ±Inf and NaN return f itself with exponent 0.
func Frexp(f float32) (frac float32, exp int) {
	b := Bits(f)
	e := int(b>>MantBits) & 0xFF
	switch e {
	case ExpMax:
		return f, 0
	case 0:
		if b&MantMask == 0 {
			return f, 0
		}
		var nb uint32
		f, nb, e = normalizeSubnormal(b)
		b = nb
	}
	// Set the exponent field to represent [0.5, 1): biased value 126.
	frac = FromBits(b&^uint32(ExpMask) | (ExpBias-1)<<MantBits)
	return frac, e - (ExpBias - 1)
}

// Exponent returns the unbiased binary exponent of f, i.e. the e such
// that |f| ∈ [2^e, 2^(e+1)). For zero it returns the minimum int; for
// subnormals it returns the true exponent of the leading bit.
func Exponent(f float32) int {
	b := Bits(f)
	e := int(b>>MantBits) & 0xFF
	switch e {
	case 0:
		if b&MantMask == 0 {
			return math.MinInt
		}
		_, _, e = normalizeSubnormal(b)
		return e - ExpBias
	case ExpMax:
		return math.MaxInt
	}
	return e - ExpBias
}

// Scalbn is an alias for Ldexp, named per the C99 scalbnf synonym.
func Scalbn(f float32, n int) float32 { return Ldexp(f, n) }

// NextUp returns the least float32 greater than f (f + 1 ulp). NaN is
// returned unchanged; +Inf maps to +Inf.
func NextUp(f float32) float32 {
	if IsNaN(f) {
		return f
	}
	b := Bits(f)
	switch {
	case b == SignMask || b == 0: // ±0 → smallest positive subnormal
		return FromBits(1)
	case b&SignMask != 0:
		return FromBits(b - 1)
	case b&ExpMask == ExpMask: // +Inf
		return f
	default:
		return FromBits(b + 1)
	}
}

// ULP returns the distance between f and the next representable
// float32 away from zero, i.e. the unit in the last place at |f|.
func ULP(f float32) float32 {
	if IsNaN(f) || IsInf(f) {
		return float32(math.NaN())
	}
	af := FromBits(Bits(f) &^ SignMask)
	next := FromBits(Bits(af) + 1)
	return next - af
}
