package transpimlib

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestNewDefaultCORDIC(t *testing.T) {
	lib, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := lib.Sinf(1.0); math.Abs(float64(got)-math.Sin(1)) > 1e-6 {
		t.Fatalf("Sinf(1) = %v", got)
	}
	if lib.Cycles() == 0 {
		t.Fatal("evaluation must charge cycles")
	}
}

func TestNewCompilesAllSupported(t *testing.T) {
	lib, err := New(Config{Method: LLUT, Interpolated: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range Functions() {
		if !lib.Compiled(f) {
			t.Errorf("%v should be compiled for L-LUT", f)
		}
	}
	// CORDIC skips GELU.
	lib2, err := New(Config{Method: CORDIC})
	if err != nil {
		t.Fatal(err)
	}
	if lib2.Compiled(GELU) {
		t.Error("CORDIC lib must not contain GELU")
	}
}

func TestNewExplicitFunctionList(t *testing.T) {
	lib, err := New(Config{Method: LLUT}, Sin, Sin, Exp)
	if err != nil {
		t.Fatal(err)
	}
	if !lib.Compiled(Sin) || !lib.Compiled(Exp) || lib.Compiled(Log) {
		t.Fatal("explicit function list not honored")
	}
}

func TestNewRejectsUnsupportedPair(t *testing.T) {
	if _, err := New(Config{Method: CORDIC}, GELU); err == nil {
		t.Fatal("CORDIC+GELU must fail")
	}
	if _, err := New(Config{Method: DLUT}, Sin); err == nil {
		t.Fatal("DLUT+Sin must fail")
	}
}

func TestScalarAPIAccuracy(t *testing.T) {
	// Ten functions of 2^12-entry tables outgrow the 64-KB scratchpad,
	// so a full library lives in the DRAM bank (§4.2.1 observation 4).
	lib, err := New(Config{Method: LLUT, Interpolated: true, SizeLog2: 12, Placement: InMRAM})
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		name string
		got  float32
		want float64
		tol  float64
	}{
		{"sin", lib.Sinf(1.0472), math.Sin(1.0472), 1e-5},
		{"cos", lib.Cosf(2.5), math.Cos(2.5), 1e-5},
		{"tan", lib.Tanf(0.7), math.Tan(0.7), 1e-4},
		{"sinh", lib.Sinhf(1.3), math.Sinh(1.3), 1e-5},
		{"cosh", lib.Coshf(-1.1), math.Cosh(-1.1), 1e-5},
		{"tanh", lib.Tanhf(0.9), math.Tanh(0.9), 1e-5},
		{"exp", lib.Expf(3.7), math.Exp(3.7), 1e-4},
		{"log", lib.Logf(42), math.Log(42), 1e-5},
		{"sqrt", lib.Sqrtf(17), math.Sqrt(17), 1e-4},
		{"gelu", lib.Geluf(0.5), 0.5 * 0.5 * (1 + math.Erf(0.5/math.Sqrt2)), 1e-5},
		{"atan", lib.Atanf(2.5), math.Atan(2.5), 1e-5},
		{"sigmoid", lib.Sigmoidf(-1.5), 1 / (1 + math.Exp(1.5)), 1e-5},
	}
	for _, c := range checks {
		if math.Abs(float64(c.got)-c.want) > c.tol {
			t.Errorf("%s: got %v, want %v", c.name, c.got, c.want)
		}
	}
}

func TestWideRangeConfig(t *testing.T) {
	lib, err := New(Config{Method: LLUT, Interpolated: true, SizeLog2: 12, WideRange: true}, Sin)
	if err != nil {
		t.Fatal(err)
	}
	if got := lib.Sinf(123.456); math.Abs(float64(got)-math.Sin(123.456)) > 1e-3 {
		t.Fatalf("wide-range Sinf(123.456) = %v, want %v", got, math.Sin(123.456))
	}
}

func TestEvalPanicsOnMissingFunction(t *testing.T) {
	lib, err := New(Config{Method: LLUT}, Sin)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Eval of uncompiled function must panic")
		}
	}()
	lib.Expf(1)
}

func TestCycleAccounting(t *testing.T) {
	lib, err := New(Config{Method: LLUT, Interpolated: true}, Sin)
	if err != nil {
		t.Fatal(err)
	}
	if lib.Cycles() != 0 {
		t.Fatal("setup must not count as execution cycles")
	}
	lib.Sinf(1)
	one := lib.Cycles()
	lib.Sinf(2)
	if lib.Cycles() != 2*one {
		t.Fatalf("two identical calls should cost 2× one call: %d vs %d", lib.Cycles(), 2*one)
	}
	lib.ResetCycles()
	if lib.Cycles() != 0 {
		t.Fatal("ResetCycles failed")
	}
}

func TestSetupMetadata(t *testing.T) {
	lib, err := New(Config{Method: LLUT, SizeLog2: 12}, Sin, Exp)
	if err != nil {
		t.Fatal(err)
	}
	if lib.SetupSeconds() <= 0 || lib.TableBytes() <= 0 {
		t.Fatalf("setup metadata missing: %v s, %d B", lib.SetupSeconds(), lib.TableBytes())
	}
}

func TestEvalSlice(t *testing.T) {
	lib, err := New(Config{Method: LLUT, Interpolated: true, SizeLog2: 12}, Sin)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]float32, 100)
	for i := range xs {
		xs[i] = float32(i) * 0.06
	}
	out := make([]float32, len(xs))
	lib.EvalSlice(Sin, xs, out)
	for i, x := range xs {
		if math.Abs(float64(out[i])-math.Sin(float64(x))) > 1e-5 {
			t.Fatalf("EvalSlice[%d] = %v, want sin(%v)", i, out[i], x)
		}
	}
}

func TestSupportsAndMatrix(t *testing.T) {
	if !Supports(LLUT, GELU) || Supports(CORDIC, GELU) {
		t.Fatal("Supports disagrees with Table 2")
	}
	if SupportMatrix() == "" {
		t.Fatal("SupportMatrix empty")
	}
}

func TestPropLLUTSinBounded(t *testing.T) {
	lib, err := New(Config{Method: LLUT, Interpolated: true, SizeLog2: 12}, Sin)
	if err != nil {
		t.Fatal(err)
	}
	f := func(u float32) bool {
		x := float32(math.Mod(math.Abs(float64(u)), 2*math.Pi))
		y := float64(lib.Sinf(x))
		return y >= -1.0001 && y <= 1.0001 && math.Abs(y-math.Sin(float64(x))) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestFixedMethodThroughPublicAPI(t *testing.T) {
	lib, err := New(Config{Method: LLUTFixed, Interpolated: true, SizeLog2: 12}, Sin, Tanh)
	if err != nil {
		t.Fatal(err)
	}
	if got := lib.Sinf(2.2); math.Abs(float64(got)-math.Sin(2.2)) > 1e-5 {
		t.Fatalf("fixed Sinf = %v", got)
	}
	if got := lib.Tanhf(-3.3); math.Abs(float64(got)-math.Tanh(-3.3)) > 1e-5 {
		t.Fatalf("fixed Tanhf = %v", got)
	}
}

func TestPowf(t *testing.T) {
	lib, err := New(Config{Method: LLUT, Interpolated: true, SizeLog2: 12}, Exp, Log)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ x, y, want float64 }{
		{2, 10, 1024},
		{9, 0.5, 3},
		{5, 0, 1},
		{10, -1, 0.1},
		{1.5, 3.7, math.Pow(1.5, 3.7)},
	}
	for _, c := range cases {
		got := float64(lib.Powf(float32(c.x), float32(c.y)))
		if math.Abs(got-c.want)/math.Max(c.want, 1e-9) > 1e-4 {
			t.Errorf("Powf(%v, %v) = %v, want %v", c.x, c.y, got, c.want)
		}
	}
}

// TestExpLimits pins exp's limits far outside the reduced range:
// exp(x) = +Inf and exp(−x) = 0 once x·log₂e passes the int32 range,
// through both the per-element and the batch path. Expf documents the
// full float range; this needs the scale exponent k = round(x·log₂e)
// to saturate instead of wrapping to the wrong sign. Values compare
// with ==, so M-LUT(i)'s −0 for the negatives counts as 0.
func TestExpLimits(t *testing.T) {
	huge := []float32{1.5e9, 3e9, 1e30}
	extreme := []float32{math.MaxFloat32, float32(math.Inf(1))}
	cases := []struct {
		cfg Config
		xs  []float32
	}{
		{Config{Method: CORDIC}, append(huge, extreme...)},
		{Config{Method: CORDIC, Interpolated: true}, append(huge, extreme...)},
		{Config{Method: MLUT}, append(huge, extreme...)},
		{Config{Method: MLUT, Interpolated: true}, huge},
		{Config{Method: LLUT}, append(huge, extreme...)},
		{Config{Method: LLUT, Interpolated: true}, huge},
		{Config{Method: LLUTFixed}, append(huge, extreme...)},
		{Config{Method: LLUTFixed, Interpolated: true}, append(huge, extreme...)},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%v/interp=%v", c.cfg.Method, c.cfg.Interpolated), func(t *testing.T) {
			lib, err := New(c.cfg, Exp)
			if err != nil {
				t.Fatal(err)
			}
			var xs, want []float32
			for _, x := range c.xs {
				xs = append(xs, x, -x)
				want = append(want, float32(math.Inf(1)), 0)
			}
			batch := make([]float32, len(xs))
			lib.EvalSlice(Exp, xs, batch)
			for i, x := range xs {
				if got := lib.Eval(Exp, x); got != want[i] {
					t.Errorf("Eval(exp, %v) = %v, want %v", x, got, want[i])
				}
				if batch[i] != want[i] {
					t.Errorf("EvalSlice(exp, %v) = %v, want %v", x, batch[i], want[i])
				}
			}
		})
	}
}
