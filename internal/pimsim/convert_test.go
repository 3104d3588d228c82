package pimsim

import (
	"fmt"
	"math"
	"testing"

	"transpimlib/internal/fixed"
)

// roundToEven32Oracle is the integer-fraction conversion RoundToEven32
// used before its branch-free form: truncate, then a ±1 fix-up on the
// float32 fraction. It is exact for |a| < 2³¹, where int32(a) is
// defined; outside that range it applies the saturation rule.
func roundToEven32Oracle(a float32) int32 {
	switch {
	case a != a || a >= 1<<31:
		return math.MaxInt32
	case a < -(1 << 31):
		return math.MinInt32
	}
	i := int32(a)
	frac := a - float32(i)
	switch {
	case frac > 0.5 || (frac == 0.5 && i&1 != 0):
		i++
	case frac < -0.5 || (frac == -0.5 && i&1 != 0):
		i--
	}
	return i
}

// fromFloat32Oracle is the float64 route fixed.FromFloat32 took before
// its integer form. NaN is pinned to Min, which the float64 route
// returns on amd64 (float64→int32 of NaN is architecture-specific).
func fromFloat32Oracle(f float32) fixed.Q3_28 {
	if f != f {
		return fixed.Min
	}
	return fixed.FromFloat64(float64(f))
}

// checkConversions compares the value functions behind Ctx.FToIRound
// and Ctx.QFromF with their oracles on one float32 bit pattern.
func checkConversions(b uint32) error {
	a := math.Float32frombits(b)
	if got, want := RoundToEven32(a), roundToEven32Oracle(a); got != want {
		return fmt.Errorf("RoundToEven32(%v [%#08x]) = %d, want %d", a, b, got, want)
	}
	if got, want := fixed.FromFloat32(a), fromFloat32Oracle(a); got != want {
		return fmt.Errorf("FromFloat32(%v [%#08x]) = %d, want %d", a, b, got, want)
	}
	return nil
}

// TestConversionsStrided checks both conversions against their oracles
// on every sign and exponent, with significands that sit on and next to
// each rounding boundary (the half-ulp tie of every shift width, with an
// even and an odd quotient) plus a prime stride through the rest. The
// exhaustive build tag runs all 2³² patterns instead.
func TestConversionsStrided(t *testing.T) {
	var mants []uint32
	for r := uint(0); r < 24; r++ {
		tie := uint32(1) << r >> 1 // the half of a shift by r (0 for r = 0)
		for _, hi := range []uint32{0, 1 << r, 2 << r, 0x7FFFFF &^ (1<<r - 1)} {
			for _, d := range []uint32{^uint32(0), 0, 1} { // −1, 0, +1
				mants = append(mants, (hi|tie)+d)
			}
		}
	}
	for m := uint32(0); m < 1<<23; m += 7919 {
		mants = append(mants, m)
	}
	fails := 0
	for se := uint32(0); se < 1<<9; se++ {
		for _, m := range mants {
			if err := checkConversions(se<<23 | m&0x7FFFFF); err != nil {
				t.Error(err)
				if fails++; fails == 10 {
					t.FailNow()
				}
			}
		}
	}
}
