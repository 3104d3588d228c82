package pimsim

import (
	"math"
	"testing"
)

// FuzzRoundToEven32 pins the device round-to-nearest-even conversion
// against math.RoundToEven over the int32-representable float32 range,
// including the ±0.5 ties, and the saturation rule outside it: below
// −2³¹ to MinInt32, at or above 2³¹ and NaN to MaxInt32.
func FuzzRoundToEven32(f *testing.F) {
	seeds := []float32{
		0, 0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 0.49999997, -0.49999997,
		1, -1, 123456.5, -123456.5, 8388608.5, 2147483520,
		-2147483648, 2147483648, -2147483904, 3e9, -3e9,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, a float32) {
		var want int32
		switch {
		case math.IsNaN(float64(a)) || a >= 1<<31:
			want = math.MaxInt32
		case a < -(1 << 31):
			want = math.MinInt32
		default:
			want = int32(math.RoundToEven(float64(a)))
		}
		if got := RoundToEven32(a); got != want {
			t.Fatalf("RoundToEven32(%v) = %d, want %d", a, got, want)
		}
	})
}

// TestRoundToEven32Ties pins the tie cases deterministically (the fuzz
// seeds only guarantee coverage under -fuzz).
func TestRoundToEven32Ties(t *testing.T) {
	cases := []struct {
		in   float32
		want int32
	}{
		{0.5, 0}, {-0.5, 0}, {1.5, 2}, {-1.5, -2}, {2.5, 2}, {-2.5, -2},
		{3.5, 4}, {-3.5, -4}, {0, 0}, {1, 1}, {-1, -1},
	}
	for _, c := range cases {
		if got := RoundToEven32(c.in); got != c.want {
			t.Errorf("RoundToEven32(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}
