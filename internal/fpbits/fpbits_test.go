package fpbits

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLdexpMatchesStdlib(t *testing.T) {
	cases := []struct {
		f float32
		n int
	}{
		{1, 0}, {1, 1}, {1, -1}, {1.5, 10}, {3.25, -10},
		{0.1, 20}, {-2.75, 5}, {-0.001, -5},
		{1, 127}, {1, -126}, {1, -149}, {1.9999999, 127},
		{1e-40, 10}, {1e-40, -10}, // subnormal inputs
		{1, 200}, {1, -200}, // overflow / underflow
		{-1, 300}, {-1, -300},
		{float32(math.Pi), 3},
	}
	for _, c := range cases {
		got := Ldexp(c.f, c.n)
		want := float32(math.Ldexp(float64(c.f), c.n))
		if Bits(got) != Bits(want) {
			t.Errorf("Ldexp(%v, %d) = %v (%#x), want %v (%#x)",
				c.f, c.n, got, Bits(got), want, Bits(want))
		}
	}
}

func TestLdexpSpecials(t *testing.T) {
	nan := float32(math.NaN())
	if !IsNaN(Ldexp(nan, 5)) {
		t.Error("Ldexp(NaN, 5) should be NaN")
	}
	inf := float32(math.Inf(1))
	if Ldexp(inf, -5) != inf {
		t.Error("Ldexp(+Inf, -5) should be +Inf")
	}
	if Ldexp(float32(math.Inf(-1)), 5) != float32(math.Inf(-1)) {
		t.Error("Ldexp(-Inf, 5) should be -Inf")
	}
	if Ldexp(0, 100) != 0 {
		t.Error("Ldexp(0, 100) should be 0")
	}
	negZero := FromBits(SignMask)
	if Bits(Ldexp(negZero, 10)) != SignMask {
		t.Error("Ldexp(-0, 10) should be -0")
	}
}

func TestLdexpOverflowSign(t *testing.T) {
	if got := Ldexp(-1, 1000); !IsInf(got) || !SignBit(got) {
		t.Errorf("Ldexp(-1, 1000) = %v, want -Inf", got)
	}
	if got := Ldexp(-1, -1000); Bits(got) != SignMask {
		t.Errorf("Ldexp(-1, -1000) = %#x, want -0", Bits(got))
	}
}

func TestPropLdexpMatchesStdlib(t *testing.T) {
	f := func(f float32, n int16) bool {
		nn := int(n % 300)
		got := Ldexp(f, nn)
		want := float32(math.Ldexp(float64(f), nn))
		if IsNaN(got) && IsNaN(want) {
			return true
		}
		return Bits(got) == Bits(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestFrexpMatchesStdlib(t *testing.T) {
	cases := []float32{1, 2, 3, 0.5, 0.1, -7.25, 1e-40, 1e30, float32(math.Pi)}
	for _, f := range cases {
		gotF, gotE := Frexp(f)
		wantF64, wantE := math.Frexp(float64(f))
		if float64(gotF) != wantF64 || gotE != wantE {
			t.Errorf("Frexp(%v) = (%v, %d), want (%v, %d)", f, gotF, gotE, wantF64, wantE)
		}
	}
}

func TestFrexpSpecials(t *testing.T) {
	if f, e := Frexp(0); f != 0 || e != 0 {
		t.Errorf("Frexp(0) = %v, %d", f, e)
	}
	inf := float32(math.Inf(1))
	if f, e := Frexp(inf); f != inf || e != 0 {
		t.Errorf("Frexp(+Inf) = %v, %d", f, e)
	}
	if f, _ := Frexp(float32(math.NaN())); !IsNaN(f) {
		t.Error("Frexp(NaN) should return NaN")
	}
}

func TestPropFrexpReconstruct(t *testing.T) {
	f := func(x float32) bool {
		if IsNaN(x) || IsInf(x) {
			return true
		}
		fr, e := Frexp(x)
		back := Ldexp(fr, e)
		return Bits(back) == Bits(x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestPropFrexpRange(t *testing.T) {
	f := func(x float32) bool {
		if IsNaN(x) || IsInf(x) || IsZero(x) {
			return true
		}
		fr, _ := Frexp(x)
		a := fr
		if a < 0 {
			a = -a
		}
		return a >= 0.5 && a < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestExponent(t *testing.T) {
	cases := []struct {
		f    float32
		want int
	}{
		{1, 0}, {2, 1}, {3, 1}, {4, 2}, {0.5, -1}, {0.75, -1}, {-8, 3},
		{1.5e-45, -149}, // smallest subnormal
	}
	for _, c := range cases {
		if got := Exponent(c.f); got != c.want {
			t.Errorf("Exponent(%v) = %d, want %d", c.f, got, c.want)
		}
	}
	if Exponent(0) != math.MinInt {
		t.Error("Exponent(0) should be MinInt")
	}
	if Exponent(float32(math.Inf(1))) != math.MaxInt {
		t.Error("Exponent(Inf) should be MaxInt")
	}
}

func TestClassifiers(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	sub := FromBits(1)
	if !IsNaN(nan) || IsNaN(inf) || IsNaN(1) {
		t.Error("IsNaN misclassifies")
	}
	if !IsInf(inf) || IsInf(nan) || IsInf(1) {
		t.Error("IsInf misclassifies")
	}
	if !IsZero(0) || !IsZero(FromBits(SignMask)) || IsZero(sub) {
		t.Error("IsZero misclassifies")
	}
	if !IsSubnormal(sub) || IsSubnormal(0) || IsSubnormal(1) {
		t.Error("IsSubnormal misclassifies")
	}
	if !SignBit(-1) || SignBit(1) || !SignBit(FromBits(SignMask)) {
		t.Error("SignBit misclassifies")
	}
}

func TestRawFields(t *testing.T) {
	// 1.0 = sign 0, exponent 127, mantissa 0
	if RawExp(1) != 127 || RawMant(1) != 0 {
		t.Errorf("fields of 1.0: exp=%d mant=%#x", RawExp(1), RawMant(1))
	}
	// 1.5 = mantissa 0x400000
	if RawMant(1.5) != 1<<22 {
		t.Errorf("mant of 1.5 = %#x", RawMant(1.5))
	}
}

func TestNextUp(t *testing.T) {
	if NextUp(0) != FromBits(1) {
		t.Error("NextUp(0) should be smallest subnormal")
	}
	if NextUp(FromBits(SignMask)) != FromBits(1) {
		t.Error("NextUp(-0) should be smallest subnormal")
	}
	one := float32(1)
	if got := NextUp(one); got <= one {
		t.Errorf("NextUp(1) = %v", got)
	}
	if got := NextUp(float32(-1)); got >= -1+2e-7 || got <= -1 {
		t.Errorf("NextUp(-1) = %v", got)
	}
	inf := float32(math.Inf(1))
	if NextUp(inf) != inf {
		t.Error("NextUp(+Inf) should be +Inf")
	}
}

func TestPropNextUpMonotone(t *testing.T) {
	f := func(x float32) bool {
		if IsNaN(x) || IsInf(x) {
			return true
		}
		return NextUp(x) > x
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestULP(t *testing.T) {
	// ULP of 1.0 is 2^-23.
	if got := ULP(1); got != FromBits(Bits(float32(1))+1)-1 {
		t.Errorf("ULP(1) = %v", got)
	}
	if ULP(1) != ULP(-1) {
		t.Error("ULP should be symmetric in sign")
	}
	// ULP in [4,8) is 4*2^-23 ≈ 4.77e-7, the paper's observation 5 bound.
	u := float64(ULP(5))
	if math.Abs(u-4*math.Pow(2, -23)) > 1e-12 {
		t.Errorf("ULP(5) = %v, want 4*2^-23", u)
	}
	if !math.IsNaN(float64(ULP(float32(math.Inf(1))))) {
		t.Error("ULP(Inf) should be NaN")
	}
}

func TestScalbnAlias(t *testing.T) {
	if Scalbn(1.5, 4) != Ldexp(1.5, 4) {
		t.Error("Scalbn should equal Ldexp")
	}
}

// TestLdexpManyMatchesLdexp sweeps the slice ldexp over every sign and
// exponent field, with significands 0, 1, 0x400000 and 0x7FFFFF, and
// every exponent n in [−300, 300] plus the int32 extremes and ±2²⁰:
// each element must equal Ldexp bit for bit. Each call also carries a
// mixed-exponent slice, so neighbouring elements take different paths.
func TestLdexpManyMatchesLdexp(t *testing.T) {
	var xs []float32
	for sign := uint32(0); sign < 2; sign++ {
		for exp := uint32(0); exp <= ExpMax; exp++ {
			for _, mant := range []uint32{0, 1, 0x400000, 0x7FFFFF} {
				xs = append(xs, FromBits(sign<<31|exp<<MantBits|mant))
			}
		}
	}
	var steps []int32
	for n := int32(-300); n <= 300; n++ {
		steps = append(steps, n)
	}
	steps = append(steps, math.MinInt32, math.MaxInt32, 1<<20, -1<<20)
	ys := make([]float32, len(xs))
	ns := make([]int32, len(xs))
	check := func() {
		t.Helper()
		copy(ys, xs)
		LdexpMany(ys, ns)
		for i, x := range xs {
			if want := Ldexp(x, int(ns[i])); Bits(ys[i]) != Bits(want) {
				t.Fatalf("LdexpMany(%#x, %d) = %#x, Ldexp %#x", Bits(x), ns[i], Bits(ys[i]), Bits(want))
			}
		}
	}
	for _, n := range steps {
		for i := range ns {
			ns[i] = n
		}
		check()
	}
	for k := range steps {
		for i := range ns {
			ns[i] = steps[(k+i)%len(steps)]
		}
		check()
	}
}
