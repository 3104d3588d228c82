// Package cordic implements the CORDIC shift-and-add algorithm in its
// three classic modes — circular, hyperbolic and linear (Table 1 of
// the paper) — in both rotation and vectoring form, plus the
// CORDIC+LUT hybrid of §3.3.2 that replaces the first iterations with
// a lookup.
//
// The device-side kernels operate on 64-bit fixed-point values
// (Q23.40) so the algorithmic error floor sits safely below the
// float32 output precision, mirroring the paper's use of a fixed-point
// core representation for CORDIC (Figure 3(a), step 2). Host-side
// table generation uses float64.
package cordic

import "math"

// FracBits is the number of fractional bits of the 64-bit fixed-point
// representation used inside the CORDIC kernels.
const FracBits = 40

// One is 1.0 in the kernel fixed-point format.
const One int64 = 1 << FracBits

// FromFloat converts a float64 to kernel fixed point (host-side).
func FromFloat(f float64) int64 { return int64(math.Round(f * float64(One))) }

// ToFloat converts kernel fixed point to float64 (host-side).
func ToFloat(v int64) float64 { return float64(v) / float64(One) }

// Mode selects the CORDIC coordinate system (Table 1).
type Mode int

// The three CORDIC modes.
const (
	Circular   Mode = iota // sin, cos, tan, arctan
	Hyperbolic             // sinh, cosh, tanh, exp, log, sqrt, artanh
	Linear                 // multiplication, division
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case Circular:
		return "circular"
	case Hyperbolic:
		return "hyperbolic"
	case Linear:
		return "linear"
	}
	return "mode?"
}

// MaxIterations bounds the useful iteration count: beyond the fixed-
// point fraction width additional iterations only shift in zeros.
const MaxIterations = FracBits

// Tables holds the host-generated per-iteration constants for one mode
// and iteration count: the shift schedule sᵢ, the rotation angles
// φᵢ (arctan 2^-sᵢ, artanh 2^-sᵢ, or 2^-sᵢ per Table 1), and the
// accumulated inverse stretching factor 1/K.
type Tables struct {
	Mode   Mode
	Shifts []uint  // shift amount per iteration (with hyperbolic repeats)
	Angles []int64 // φ per iteration, in Q23.40
	// InvGain is 1/∏kᵢ in Q23.40: pre-scaling the initial vector with it
	// removes the stretching factor without a final multiplication.
	InvGain int64
	// GainF is ∏kᵢ as float64 (host-side diagnostics).
	GainF float64
}

// hyperbolicRepeats lists the iteration indices that must be executed
// twice for the hyperbolic CORDIC to converge (the classic 4, 13, 40,
// … schedule: next = 3·prev + 1).
func hyperbolicRepeats(maxIdx int) map[int]bool {
	rep := map[int]bool{}
	for k := 4; k <= maxIdx; k = 3*k + 1 {
		rep[k] = true
	}
	return rep
}

// NewTables generates the constants for the given mode and iteration
// count. iters counts executed iterations (including hyperbolic
// repeats) and is clamped to [1, MaxIterations+repeats].
func NewTables(mode Mode, iters int) *Tables {
	if iters < 1 {
		iters = 1
	}
	t := &Tables{Mode: mode}
	switch mode {
	case Circular:
		if iters > MaxIterations {
			iters = MaxIterations
		}
		gain := 1.0
		for i := 0; i < iters; i++ {
			s := uint(i)
			t.Shifts = append(t.Shifts, s)
			t.Angles = append(t.Angles, FromFloat(math.Atan(math.Pow(2, -float64(s)))))
			gain *= math.Sqrt(1 + math.Pow(2, -2*float64(s)))
		}
		t.GainF = gain
		t.InvGain = FromFloat(1 / gain)
	case Hyperbolic:
		rep := hyperbolicRepeats(MaxIterations)
		gain := 1.0
		idx := 1
		for len(t.Shifts) < iters && idx <= MaxIterations {
			n := 1
			if rep[idx] {
				n = 2
			}
			for ; n > 0 && len(t.Shifts) < iters; n-- {
				s := uint(idx)
				t.Shifts = append(t.Shifts, s)
				t.Angles = append(t.Angles, FromFloat(math.Atanh(math.Pow(2, -float64(s)))))
				gain *= math.Sqrt(1 - math.Pow(2, -2*float64(s)))
			}
			idx++
		}
		t.GainF = gain
		t.InvGain = FromFloat(1 / gain)
	case Linear:
		if iters > MaxIterations {
			iters = MaxIterations
		}
		for i := 0; i < iters; i++ {
			s := uint(i)
			t.Shifts = append(t.Shifts, s)
			t.Angles = append(t.Angles, One>>s) // φᵢ = 2⁻ⁱ exactly
		}
		t.GainF = 1
		t.InvGain = One
	default:
		panic("cordic: unknown mode")
	}
	return t
}

// NewTablesFrom generates circular-mode constants whose first
// iteration index is start instead of 0 — the tail iterations of the
// CORDIC+LUT hybrid (§3.3.2), whose head rotations were replaced by a
// table lookup.
func NewTablesFrom(start, iters int) *Tables {
	if start < 0 {
		start = 0
	}
	if start+iters > MaxIterations {
		iters = MaxIterations - start
	}
	if iters < 1 {
		iters = 1
	}
	t := &Tables{Mode: Circular}
	gain := 1.0
	for i := start; i < start+iters; i++ {
		s := uint(i)
		t.Shifts = append(t.Shifts, s)
		t.Angles = append(t.Angles, FromFloat(math.Atan(math.Pow(2, -float64(s)))))
		gain *= math.Sqrt(1 + math.Pow(2, -2*float64(s)))
	}
	t.GainF = gain
	t.InvGain = FromFloat(1 / gain)
	return t
}

// Iterations returns the number of executed iterations.
func (t *Tables) Iterations() int { return len(t.Shifts) }

// TableBytes returns the PIM memory footprint of the iteration
// constants: one packed (shift, angle) entry of 8 bytes per iteration
// (the 6-bit shift rides in the angle word's spare high bits on real
// hardware; we account 8 bytes and store them separately for clarity)
// plus the pre-scaled initial vector.
func (t *Tables) TableBytes() int { return 8*len(t.Angles) + 16 }

// MaxAngle returns the convergence range of the rotation: the sum of
// all remaining φ (plus the final residual bound).
func (t *Tables) MaxAngle() float64 {
	var sum int64
	for _, a := range t.Angles {
		sum += a
	}
	last := t.Angles[len(t.Angles)-1]
	return ToFloat(sum + last)
}

// --- host-side (unmetered) reference implementations ---
// These mirror the device kernels exactly, for table verification and
// accuracy-only sweeps where no cycle accounting is needed.

// RotateHost runs rotation-mode CORDIC from (x0, y0, theta) and returns
// the final vector and residual angle, all in Q23.40.
func (t *Tables) RotateHost(x0, y0, theta int64) (x, y, z int64) {
	flip, keep := t.Mode.masks()
	x, y, z = x0, y0, theta
	for i, s := range t.Shifts {
		x, y, z = step(x, y, z, t.Angles[i], s, z>>63, flip, keep)
	}
	return x, y, z
}

// VectorHost runs vectoring-mode CORDIC from (x0, y0, z0), driving y to
// zero, and returns the final vector and accumulated angle.
func (t *Tables) VectorHost(x0, y0, z0 int64) (x, y, z int64) {
	flip, keep := t.Mode.masks()
	x, y, z = x0, y0, z0
	for i, s := range t.Shifts {
		x, y, z = step(x, y, z, t.Angles[i], s, ^(y >> 63), flip, keep)
	}
	return x, y, z
}

// step is one CORDIC iteration (Table 1), the rule every device and
// host loop runs. The direction is d = +1 when neg is 0 and d = −1 when
// neg is −1 (all ones): rotation passes z's sign (d = +1 for z ≥ 0),
// vectoring the complement of y's (d = +1 for y < 0). It returns
//
//	x − μ·d·2⁻ˢy,  y + d·2⁻ˢx,  z − d·φ
//
// with μ = 1 (circular), −1 (hyperbolic) or 0 (linear) given by the
// mode's masks. The direction is a coin flip per iteration, so step
// negates through the masks instead of branching on it.
func step(x, y, z, phi int64, s uint, neg, flip, keep int64) (int64, int64, int64) {
	xs, ys := x>>s, y>>s
	return x + (negIf(ys, neg^flip) & keep), y + negIf(xs, neg), z - negIf(phi, neg)
}

// negIf returns −v when m is −1 and v when m is 0.
func negIf(v, m int64) int64 { return (v ^ m) - m }

// masks returns step's x-update masks for the mode: flip inverts the
// direction for the circular x − d·2⁻ˢy, and keep zeroes the update of
// the linear mode, whose x is invariant.
func (m Mode) masks() (flip, keep int64) {
	switch m {
	case Circular:
		return -1, -1
	case Hyperbolic:
		return 0, -1
	}
	return 0, 0
}
