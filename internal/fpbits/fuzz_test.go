package fpbits

import (
	"math"
	"testing"
)

// FuzzLdexp cross-checks the bit-level ldexp against the stdlib over
// arbitrary bit patterns and exponents.
func FuzzLdexp(f *testing.F) {
	f.Add(uint32(0x3F800000), 10)    // 1.0
	f.Add(uint32(0x00000001), -5)    // smallest subnormal
	f.Add(uint32(0x7F7FFFFF), 1)     // max finite
	f.Add(uint32(0xFF800000), 100)   // -Inf
	f.Add(uint32(0x7FC00000), 3)     // NaN
	f.Add(uint32(0x80000000), -1000) // -0
	f.Fuzz(func(t *testing.T, bitsIn uint32, n int) {
		if n > 1000 {
			n = n % 1000
		}
		if n < -1000 {
			n = -(-n % 1000)
		}
		x := FromBits(bitsIn)
		got := Ldexp(x, n)
		want := float32(math.Ldexp(float64(x), n))
		if IsNaN(got) && IsNaN(want) {
			return
		}
		if Bits(got) != Bits(want) {
			t.Fatalf("Ldexp(%#x, %d) = %#x, want %#x", bitsIn, n, Bits(got), Bits(want))
		}
	})
}

// FuzzFrexp checks the frexp/ldexp inverse over arbitrary patterns.
func FuzzFrexp(f *testing.F) {
	f.Add(uint32(0x3F800000))
	f.Add(uint32(0x00000001))
	f.Add(uint32(0x00400000))
	f.Fuzz(func(t *testing.T, bitsIn uint32) {
		x := FromBits(bitsIn)
		if IsNaN(x) || IsInf(x) {
			return
		}
		fr, e := Frexp(x)
		if !IsZero(x) {
			a := fr
			if a < 0 {
				a = -a
			}
			if a < 0.5 || a >= 1 {
				t.Fatalf("Frexp(%#x) fraction %v out of [0.5, 1)", bitsIn, fr)
			}
		}
		if back := Ldexp(fr, e); Bits(back) != Bits(x) {
			t.Fatalf("reconstruction of %#x gave %#x", bitsIn, Bits(back))
		}
	})
}

// FuzzLdexpMany cross-checks the slice ldexp against Ldexp over
// arbitrary bit patterns and exponents, the int32 extremes included.
func FuzzLdexpMany(f *testing.F) {
	f.Add(uint32(0x3F800000), int32(10))            // 1.0
	f.Add(uint32(0x00000001), int32(-5))            // smallest subnormal
	f.Add(uint32(0x7F7FFFFF), int32(1))             // max finite overflows
	f.Add(uint32(0x00800000), int32(-1))            // min normal to subnormal
	f.Add(uint32(0x3FB504F3), int32(math.MaxInt32)) // saturated exp scale
	f.Add(uint32(0x3FB504F3), int32(math.MinInt32))
	f.Add(uint32(0xFFA00000), int32(3)) // signalling NaN
	f.Fuzz(func(t *testing.T, bitsIn uint32, n int32) {
		x := FromBits(bitsIn)
		ys := []float32{x, x, x}
		ns := []int32{n, 0, -n}
		LdexpMany(ys, ns)
		for i, y := range ys {
			if want := Ldexp(x, int(ns[i])); Bits(y) != Bits(want) {
				t.Fatalf("LdexpMany(%#x, %d) = %#x, Ldexp %#x", bitsIn, ns[i], Bits(y), Bits(want))
			}
		}
	})
}
