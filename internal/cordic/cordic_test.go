package cordic

import (
	"math"
	"testing"
	"testing/quick"

	"transpimlib/internal/pimsim"
)

func ctx(t *testing.T) *pimsim.Ctx {
	t.Helper()
	return pimsim.NewDPU(0, pimsim.Default(), 16).NewCtx()
}

func TestFixedConversions(t *testing.T) {
	for _, f := range []float64{0, 1, -1, math.Pi, -2.75, 1e-9} {
		if got := ToFloat(FromFloat(f)); math.Abs(got-f) > 1.0/float64(One) {
			t.Errorf("round trip %v → %v", f, got)
		}
	}
	if One != 1<<40 {
		t.Errorf("One = %d", One)
	}
}

// Table 1 checks: rotation matrices / angles / stretching factors.

func TestTable1CircularAngles(t *testing.T) {
	tb := NewTables(Circular, 10)
	for i, s := range tb.Shifts {
		want := math.Atan(math.Pow(2, -float64(s)))
		if got := ToFloat(tb.Angles[i]); math.Abs(got-want) > 1e-10 {
			t.Errorf("circular φ_%d = %v, want atan(2^-%d) = %v", i, got, s, want)
		}
	}
	if tb.Shifts[0] != 0 || tb.Shifts[1] != 1 {
		t.Error("circular shifts must start at 0 and increment")
	}
}

func TestTable1CircularGain(t *testing.T) {
	tb := NewTables(Circular, 30)
	// K_∞ ≈ 1.6467602581210654
	if math.Abs(tb.GainF-1.646760258121) > 1e-9 {
		t.Errorf("circular gain = %v", tb.GainF)
	}
	if math.Abs(ToFloat(tb.InvGain)*tb.GainF-1) > 1e-9 {
		t.Errorf("InvGain inconsistent with GainF")
	}
}

func TestTable1HyperbolicAngles(t *testing.T) {
	tb := NewTables(Hyperbolic, 10)
	if tb.Shifts[0] != 1 {
		t.Fatal("hyperbolic iterations must start at index 1")
	}
	for i, s := range tb.Shifts {
		want := math.Atanh(math.Pow(2, -float64(s)))
		if got := ToFloat(tb.Angles[i]); math.Abs(got-want) > 1e-10 {
			t.Errorf("hyperbolic φ_%d = %v, want atanh(2^-%d) = %v", i, got, s, want)
		}
	}
}

func TestHyperbolicRepeatSchedule(t *testing.T) {
	tb := NewTables(Hyperbolic, 20)
	// Index 4 must appear twice (classic 4, 13, 40 repeat schedule).
	count := map[uint]int{}
	for _, s := range tb.Shifts {
		count[s]++
	}
	if count[4] != 2 {
		t.Errorf("shift 4 appears %d times, want 2", count[4])
	}
	if count[13] != 2 {
		t.Errorf("shift 13 appears %d times, want 2", count[13])
	}
	if count[3] != 1 || count[5] != 1 {
		t.Error("non-repeat indices must appear exactly once")
	}
}

func TestTable1LinearAngles(t *testing.T) {
	tb := NewTables(Linear, 8)
	for i, s := range tb.Shifts {
		if tb.Angles[i] != One>>s {
			t.Errorf("linear φ_%d = %d, want 2^-%d", i, tb.Angles[i], s)
		}
	}
	if tb.GainF != 1 || tb.InvGain != One {
		t.Error("linear mode has no stretching")
	}
}

func TestModeString(t *testing.T) {
	if Circular.String() != "circular" || Hyperbolic.String() != "hyperbolic" || Linear.String() != "linear" {
		t.Error("mode names wrong")
	}
}

func TestNewTablesClamping(t *testing.T) {
	if got := NewTables(Circular, 1000).Iterations(); got != MaxIterations {
		t.Errorf("iterations clamped to %d, want %d", got, MaxIterations)
	}
	if got := NewTables(Circular, -5).Iterations(); got != 1 {
		t.Errorf("negative iterations → %d, want 1", got)
	}
}

// Host rotation accuracy.

func TestRotateHostSinCos(t *testing.T) {
	tb := NewTables(Circular, 32)
	for theta := 0.0; theta <= math.Pi/2; theta += 0.05 {
		x, y, _ := tb.RotateHost(tb.InvGain, 0, FromFloat(theta))
		if got, want := ToFloat(y), math.Sin(theta); math.Abs(got-want) > 1e-8 {
			t.Errorf("sin(%v) = %v, want %v", theta, got, want)
		}
		if got, want := ToFloat(x), math.Cos(theta); math.Abs(got-want) > 1e-8 {
			t.Errorf("cos(%v) = %v, want %v", theta, got, want)
		}
	}
}

func TestRotateHostNegativeAngles(t *testing.T) {
	tb := NewTables(Circular, 32)
	x, y, _ := tb.RotateHost(tb.InvGain, 0, FromFloat(-0.7))
	if math.Abs(ToFloat(y)-math.Sin(-0.7)) > 1e-8 {
		t.Errorf("sin(-0.7) = %v", ToFloat(y))
	}
	if math.Abs(ToFloat(x)-math.Cos(-0.7)) > 1e-8 {
		t.Errorf("cos(-0.7) = %v", ToFloat(x))
	}
}

func TestErrorShrinksWithIterations(t *testing.T) {
	// The maximum error shrinks (roughly exponentially) with the number
	// of iterations (§2.2.1).
	theta := FromFloat(1.0)
	var prevErr float64 = math.Inf(1)
	for _, n := range []int{6, 12, 18, 24, 30} {
		tb := NewTables(Circular, n)
		_, y, _ := tb.RotateHost(tb.InvGain, 0, theta)
		err := math.Abs(ToFloat(y) - math.Sin(1.0))
		if err > prevErr*0.5 {
			t.Errorf("error at %d iterations (%v) not < half of previous (%v)", n, err, prevErr)
		}
		prevErr = err
	}
}

func TestVectorHostAtan(t *testing.T) {
	tb := NewTables(Circular, 32)
	for _, v := range []float64{0.1, 0.5, 1.0, -0.5} {
		_, _, z := tb.VectorHost(One, FromFloat(v), 0)
		if got, want := ToFloat(z), math.Atan(v); math.Abs(got-want) > 1e-8 {
			t.Errorf("atan(%v) = %v, want %v", v, got, want)
		}
	}
}

// Device kernels: correctness + cycle accounting.

func TestDeviceSinCos(t *testing.T) {
	c := ctx(t)
	tb := NewTables(Circular, 32)
	dev, err := tb.Load(c.DPU(), InWRAM)
	if err != nil {
		t.Fatal(err)
	}
	for theta := 0.0; theta <= math.Pi/2; theta += 0.1 {
		sin, cos := dev.SinCos(c, FromFloat(theta))
		if math.Abs(ToFloat(sin)-math.Sin(theta)) > 1e-8 {
			t.Errorf("device sin(%v) = %v", theta, ToFloat(sin))
		}
		if math.Abs(ToFloat(cos)-math.Cos(theta)) > 1e-8 {
			t.Errorf("device cos(%v) = %v", theta, ToFloat(cos))
		}
	}
}

// TestDeviceMatchesHost: Rotate and Vector equal RotateHost, VectorHost
// and the textbook branching iteration (refRun) bit for bit in every
// mode and placement. The starts include the sign boundaries the
// direction masks must reproduce exactly (z = 0 steers rotation like
// z > 0, y = 0 steers vectoring like y > 0), ±1, and magnitudes at which
// the adds wrap, besides random ones.
func TestDeviceMatchesHost(t *testing.T) {
	edges := []int64{0, 1, -1, One, -One, 1 << 62, -1 << 62, math.MaxInt64, math.MinInt64}
	for _, mode := range []Mode{Circular, Hyperbolic, Linear} {
		for _, place := range []Placement{InWRAM, InMRAM} {
			d := pimsim.NewDPU(0, pimsim.Default(), 16)
			tb := NewTables(mode, 24)
			dev, err := tb.Load(d, place)
			if err != nil {
				t.Fatal(err)
			}
			c := d.NewCtx()
			agree := func(x0, y0, z0 int64) bool {
				for _, vector := range []bool{false, true} {
					dv, host, ref := devRun(dev, c, x0, y0, z0, vector), hostRun(tb, x0, y0, z0, vector), refRun(tb, x0, y0, z0, vector)
					if dv != host || dv != ref {
						t.Errorf("%v/%v vector=%v from (%d, %d, %d): device %v, host %v, reference %v",
							mode, place, vector, x0, y0, z0, dv, host, ref)
						return false
					}
				}
				return true
			}
			for _, x0 := range edges {
				for _, y0 := range edges {
					for _, z0 := range edges {
						agree(x0, y0, z0)
					}
				}
			}
			if err := quick.Check(agree, &quick.Config{MaxCount: 300}); err != nil {
				t.Error(err)
			}
		}
	}
}

// devRun, hostRun and refRun run one rotation (vector false) or
// vectoring loop on the device, on the host mirror, and as refRun's
// textbook iteration, returning the final (x, y, z).
func devRun(dev *Device, c *pimsim.Ctx, x0, y0, z0 int64, vector bool) [3]int64 {
	run := dev.Rotate
	if vector {
		run = dev.Vector
	}
	x, y, z := run(c, x0, y0, z0)
	return [3]int64{x, y, z}
}

func hostRun(tb *Tables, x0, y0, z0 int64, vector bool) [3]int64 {
	run := tb.RotateHost
	if vector {
		run = tb.VectorHost
	}
	x, y, z := run(x0, y0, z0)
	return [3]int64{x, y, z}
}

// refRun is Table 1's iteration with the direction taken by a branch,
// written independently of the kernels' masks: d = +1 when z ≥ 0
// (rotation) or y < 0 (vectoring), else −1, and x moves by −μ·d·2⁻ˢy
// with μ = 1, −1, 0 for circular, hyperbolic, linear.
func refRun(tb *Tables, x, y, z int64, vector bool) [3]int64 {
	mu := map[Mode]int64{Circular: 1, Hyperbolic: -1, Linear: 0}[tb.Mode]
	for i, s := range tb.Shifts {
		d := int64(-1)
		if (!vector && z >= 0) || (vector && y < 0) {
			d = 1
		}
		x, y, z = x-mu*d*(y>>s), y+d*(x>>s), z-d*tb.Angles[i]
	}
	return [3]int64{x, y, z}
}

func TestDeviceCyclesGrowLinearly(t *testing.T) {
	cycles := func(iters int) uint64 {
		d := pimsim.NewDPU(0, pimsim.Default(), 16)
		tb := NewTables(Circular, iters)
		dev, err := tb.Load(d, InWRAM)
		if err != nil {
			t.Fatal(err)
		}
		dev.SinCos(d.NewCtx(), FromFloat(1.0))
		return d.Cycles()
	}
	c10, c20, c40 := cycles(10), cycles(20), cycles(40)
	if c20 <= c10 || c40 <= c20 {
		t.Fatalf("cycles must grow with iterations: %d %d %d", c10, c20, c40)
	}
	perIter := float64(c40-c20) / 20
	perIter2 := float64(c20-c10) / 10
	if math.Abs(perIter-perIter2) > 2 {
		t.Fatalf("per-iteration cost not linear: %v vs %v", perIter, perIter2)
	}
}

func TestDeviceMRAMPlacement(t *testing.T) {
	d := pimsim.NewDPU(0, pimsim.Default(), 16)
	tb := NewTables(Circular, 32)
	dev, err := tb.Load(d, InMRAM)
	if err != nil {
		t.Fatal(err)
	}
	sin, _ := dev.SinCos(d.NewCtx(), FromFloat(0.5))
	if math.Abs(ToFloat(sin)-math.Sin(0.5)) > 1e-8 {
		t.Errorf("MRAM-placed tables give wrong sine: %v", ToFloat(sin))
	}
	if d.DMACycles() == 0 {
		t.Error("MRAM placement must exercise the DMA engine")
	}
	if dev.Placement() != InMRAM {
		t.Error("placement accessor wrong")
	}
}

func TestWRAMPlacementCapacity(t *testing.T) {
	// Loading an enormous head table into the 64-KB scratchpad must
	// fail (observation 4: scratchpad caps LUT size).
	d := pimsim.NewDPU(0, pimsim.Default(), 16)
	if _, err := NewLUTAssist(d, InWRAM, 16, 8); err == nil {
		t.Fatal("2^16-dense head table cannot fit in 64-KB WRAM")
	}
	if _, err := NewLUTAssist(d, InMRAM, 16, 8); err != nil {
		t.Fatalf("the same table must fit in MRAM: %v", err)
	}
}

func TestDeviceSinhCoshExp(t *testing.T) {
	c := ctx(t)
	tb := NewTables(Hyperbolic, 40)
	dev, err := tb.Load(c.DPU(), InWRAM)
	if err != nil {
		t.Fatal(err)
	}
	for _, theta := range []float64{-1.0, -0.3, 0, 0.4, 1.0} {
		sinh, cosh := dev.SinhCosh(c, FromFloat(theta))
		if math.Abs(ToFloat(sinh)-math.Sinh(theta)) > 1e-8 {
			t.Errorf("sinh(%v) = %v, want %v", theta, ToFloat(sinh), math.Sinh(theta))
		}
		if math.Abs(ToFloat(cosh)-math.Cosh(theta)) > 1e-8 {
			t.Errorf("cosh(%v) = %v, want %v", theta, ToFloat(cosh), math.Cosh(theta))
		}
		e := dev.Exp(c, FromFloat(theta))
		if math.Abs(ToFloat(e)-math.Exp(theta)) > 2e-8 {
			t.Errorf("exp(%v) = %v, want %v", theta, ToFloat(e), math.Exp(theta))
		}
	}
}

func TestDeviceLn(t *testing.T) {
	c := ctx(t)
	tb := NewTables(Hyperbolic, 40)
	dev, err := tb.Load(c.DPU(), InWRAM)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []float64{0.5, 0.75, 1.0, 1.5, 2.0} {
		got := ToFloat(dev.Ln(c, FromFloat(w)))
		if math.Abs(got-math.Log(w)) > 2e-8 {
			t.Errorf("ln(%v) = %v, want %v", w, got, math.Log(w))
		}
	}
}

func TestDeviceSqrt(t *testing.T) {
	c := ctx(t)
	tb := NewTables(Hyperbolic, 40)
	dev, err := tb.Load(c.DPU(), InWRAM)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []float64{0.25, 0.5, 1.0, 1.7, 2.0} {
		got := ToFloat(dev.Sqrt(c, FromFloat(w)))
		if math.Abs(got-math.Sqrt(w)) > 3e-8 {
			t.Errorf("sqrt(%v) = %v, want %v", w, got, math.Sqrt(w))
		}
	}
}

func TestDeviceLinearMulDiv(t *testing.T) {
	c := ctx(t)
	tb := NewTables(Linear, 40)
	dev, err := tb.Load(c.DPU(), InWRAM)
	if err != nil {
		t.Fatal(err)
	}
	if got := ToFloat(dev.MulLinear(c, FromFloat(1.25), FromFloat(1.5))); math.Abs(got-1.875) > 1e-8 {
		t.Errorf("linear mul = %v, want 1.875", got)
	}
	if got := ToFloat(dev.DivLinear(c, FromFloat(1.2), FromFloat(1.6))); math.Abs(got-0.75) > 1e-8 {
		t.Errorf("linear div = %v, want 0.75", got)
	}
}

func TestMulFixHost(t *testing.T) {
	cases := []struct{ a, b float64 }{
		{1, 1}, {2, 3}, {-2, 3}, {0.5, -0.5}, {1.646, 0.607},
	}
	for _, cse := range cases {
		got := ToFloat(MulFixHost(FromFloat(cse.a), FromFloat(cse.b)))
		if math.Abs(got-cse.a*cse.b) > 2.0/float64(One) {
			t.Errorf("mulFix(%v, %v) = %v", cse.a, cse.b, got)
		}
	}
}

func TestPropMulFixHost(t *testing.T) {
	f := func(a, b float64) bool {
		a = math.Mod(a, 1000)
		b = math.Mod(b, 1000)
		got := ToFloat(MulFixHost(FromFloat(a), FromFloat(b)))
		return math.Abs(got-a*b) < 2e-6 // |product| < 1e6, Q23.40 rounding
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// CORDIC+LUT hybrid.

func TestLUTAssistSinCos(t *testing.T) {
	d := pimsim.NewDPU(0, pimsim.Default(), 16)
	la, err := NewLUTAssist(d, InWRAM, 8, 24)
	if err != nil {
		t.Fatal(err)
	}
	c := d.NewCtx()
	for theta := 0.0; theta <= math.Pi/2; theta += 0.07 {
		sin, cos := la.SinCos(c, FromFloat(theta))
		if math.Abs(ToFloat(sin)-math.Sin(theta)) > 1e-7 {
			t.Errorf("hybrid sin(%v) = %v, want %v", theta, ToFloat(sin), math.Sin(theta))
		}
		if math.Abs(ToFloat(cos)-math.Cos(theta)) > 1e-7 {
			t.Errorf("hybrid cos(%v) = %v, want %v", theta, ToFloat(cos), math.Cos(theta))
		}
	}
}

func TestLUTAssistFasterThanPureCORDIC(t *testing.T) {
	// Same accuracy target, fewer executed iterations → fewer cycles
	// (Fig. 5: CORDIC+LUT runs faster than pure CORDIC).
	run := func(f func(c *pimsim.Ctx, d *pimsim.DPU)) uint64 {
		d := pimsim.NewDPU(0, pimsim.Default(), 16)
		f(d.NewCtx(), d)
		return d.Cycles()
	}
	pure := run(func(c *pimsim.Ctx, d *pimsim.DPU) {
		tb := NewTables(Circular, 30)
		dev, _ := tb.Load(d, InWRAM)
		dev.SinCos(c, FromFloat(1.0))
	})
	hybrid := run(func(c *pimsim.Ctx, d *pimsim.DPU) {
		la, err := NewLUTAssist(d, InWRAM, 10, 21)
		if err != nil {
			t.Fatal(err)
		}
		la.SinCos(c, FromFloat(1.0))
	})
	if hybrid >= pure {
		t.Fatalf("hybrid (%d cycles) must beat pure CORDIC (%d cycles)", hybrid, pure)
	}
}

func TestLUTAssistAccuracyComparable(t *testing.T) {
	d := pimsim.NewDPU(0, pimsim.Default(), 16)
	la, err := NewLUTAssist(d, InWRAM, 10, 22)
	if err != nil {
		t.Fatal(err)
	}
	c := d.NewCtx()
	var worst float64
	for theta := 0.0; theta <= math.Pi/2; theta += 0.003 {
		sin, _ := la.SinCos(c, FromFloat(theta))
		if e := math.Abs(ToFloat(sin) - math.Sin(theta)); e > worst {
			worst = e
		}
	}
	if worst > 1e-6 {
		t.Fatalf("hybrid max error %v too large", worst)
	}
}

func TestLUTAssistTableBytes(t *testing.T) {
	d := pimsim.NewDPU(0, pimsim.Default(), 16)
	la, err := NewLUTAssist(d, InMRAM, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	if la.TableBytes() <= 0 || la.TailIterations() != 16 {
		t.Fatalf("TableBytes=%d TailIterations=%d", la.TableBytes(), la.TailIterations())
	}
}

func TestMaxAngleConvergence(t *testing.T) {
	tb := NewTables(Circular, 30)
	// Circular CORDIC converges for |θ| ≤ ~1.743 rad > π/2.
	if tb.MaxAngle() < math.Pi/2 {
		t.Fatalf("circular convergence range %v must cover [0, π/2]", tb.MaxAngle())
	}
	hb := NewTables(Hyperbolic, 40)
	// With repeats, hyperbolic converges for |θ| ≤ ~1.118.
	if hb.MaxAngle() < 1.1 {
		t.Fatalf("hyperbolic convergence range %v must reach ~1.118", hb.MaxAngle())
	}
}

func TestNewTablesFromGain(t *testing.T) {
	tb := NewTablesFrom(5, 10)
	if tb.Shifts[0] != 5 {
		t.Fatalf("first shift = %d, want 5", tb.Shifts[0])
	}
	want := 1.0
	for i := 5; i < 15; i++ {
		want *= math.Sqrt(1 + math.Pow(2, -2*float64(i)))
	}
	if math.Abs(tb.GainF-want) > 1e-12 {
		t.Fatalf("partial gain = %v, want %v", tb.GainF, want)
	}
}
