package core

import (
	"fmt"
	"strings"

	"transpimlib/internal/pimsim"
)

// Method identifies a TransPimLib implementation method (§3, Table 2).
// Interpolation is a variation selected in Params.
type Method int

// The implementation methods.
const (
	CORDIC    Method = iota // §3.1: shift-add iterations
	CORDICLUT               // §3.3.2: LUT head + CORDIC tail
	MLUT                    // §3.2.1: multiplication-addressed LUT
	LLUT                    // §3.2.2: ldexp-addressed LUT (float)
	LLUTFixed               // §3.2.2 + Q3.28 fixed point
	DLUT                    // §3.2.3: direct float-bits-addressed LUT
	DLLUT                   // §3.3.1: L-LUT near zero + D-LUT beyond
	Poly                    // §4.1.2 baseline: polynomial approximation
	numMethods
)

// Methods lists every method, for sweeps.
func Methods() []Method {
	out := make([]Method, numMethods)
	for i := range out {
		out[i] = Method(i)
	}
	return out
}

var methodNames = [...]string{
	"cordic", "cordic+lut", "m-lut", "l-lut", "l-lut-fixed", "d-lut", "dl-lut", "poly",
}

// String returns the method's lowercase name.
func (m Method) String() string {
	if m < 0 || m >= numMethods {
		return "method?"
	}
	return methodNames[m]
}

// ParseMethod resolves a name produced by String.
func ParseMethod(s string) (Method, error) {
	for i, n := range methodNames {
		if n == s {
			return Method(i), nil
		}
	}
	return 0, fmt.Errorf("core: unknown method %q", s)
}

// UsesLUT reports whether the method stores a lookup table whose size
// grows with accuracy.
func (m Method) UsesLUT() bool {
	switch m {
	case MLUT, LLUT, LLUTFixed, DLUT, DLLUT, CORDICLUT:
		return true
	}
	return false
}

// SupportsInterp reports whether the Interp variation applies.
func (m Method) SupportsInterp() bool {
	switch m {
	case MLUT, LLUT, LLUTFixed, DLUT, DLLUT:
		return true
	}
	return false
}

// Supports reports whether this reproduction implements the given
// (function, method) pair — our reconstruction of Table 2:
//
//   - CORDIC covers the trigonometric and hyperbolic families plus
//     exp/log/sqrt through rotation and vectoring modes; it has no
//     route to GELU (which needs erf).
//   - CORDIC+LUT is implemented for the circular family, the paper's
//     representative use (sine).
//   - M-LUT, L-LUT and the fixed-point L-LUT cover all ten functions.
//   - D-LUT and DL-LUT target the approximately-linear,
//     range-extension-free functions (tanh, GELU, and the extension
//     functions sigmoid and atan), per Key Takeaway 4.
//   - The polynomial baseline covers all ten functions.
func (m Method) Supports(f Function) bool {
	switch m {
	case CORDIC:
		return f != GELU // no CORDIC route to erf
	case CORDICLUT:
		return f == Sin || f == Cos || f == Tan
	case MLUT, LLUT, LLUTFixed, Poly:
		return true
	case DLUT, DLLUT:
		return f == Tanh || f == GELU || f == Sigmoid || f == Atan
	}
	return false
}

// Params selects a concrete configuration of a method.
type Params struct {
	Method Method
	// Interp enables linear interpolation for LUT methods.
	Interp bool
	// Iterations is the CORDIC iteration count (CORDIC and the tail of
	// CORDIC+LUT). Zero picks a high-accuracy default.
	Iterations int
	// SizeLog2 controls LUT density: the L-LUT density exponent, the
	// M-LUT entry count as 2^SizeLog2 over the core range, or the D-LUT
	// per-exponent mantissa bits. Zero picks a mid default.
	SizeLog2 int
	// HeadBits is the CORDIC+LUT head-table density (default 8).
	HeadBits int
	// Degree is the polynomial degree for the Poly baseline (zero picks
	// a default reaching ~1e-7).
	Degree int
	// Placement selects WRAM or MRAM residence for tables.
	Placement pimsim.Placement
	// WideRange prepends the 2π range reduction (Fig. 8) to the
	// trigonometric functions so inputs outside [0, 2π] are accepted.
	WideRange bool
}

// Normalized returns the params with zero-valued knobs replaced by
// their defaults — the canonical form Build compiles, and therefore
// the form a setup cache must key on (so that e.g. SizeLog2 0 and the
// default 10 do not cache as distinct configurations).
func (p Params) Normalized() Params { return p.withDefaults() }

func (p Params) withDefaults() Params {
	if p.Iterations == 0 {
		p.Iterations = 30
	}
	if p.SizeLog2 == 0 {
		p.SizeLog2 = 10
	}
	if p.HeadBits == 0 {
		p.HeadBits = 8
	}
	if p.Degree == 0 {
		p.Degree = 9
	}
	return p
}

// Label gives a compact human-readable configuration name, e.g.
// "l-lut(i) n=10 wram".
func (p Params) Label() string {
	var b strings.Builder
	b.WriteString(p.Method.String())
	if p.Interp {
		b.WriteString("(i)")
	}
	switch p.Method {
	case CORDIC:
		fmt.Fprintf(&b, " it=%d", p.Iterations)
	case CORDICLUT:
		fmt.Fprintf(&b, " head=%d it=%d", p.HeadBits, p.Iterations)
	case Poly:
		fmt.Fprintf(&b, " deg=%d", p.Degree)
	default:
		fmt.Fprintf(&b, " n=%d", p.SizeLog2)
	}
	b.WriteByte(' ')
	b.WriteString(p.Placement.String())
	return b.String()
}

// SupportMatrix renders Table 2: which methods implement which
// functions. Each column is one wider than its longest name, so
// adjacent names never run together.
func SupportMatrix() string {
	mw := len("method")
	for _, m := range methodNames {
		mw = max(mw, len(m))
	}
	fw := 0
	for _, f := range functionNames {
		fw = max(fw, len(f))
	}
	mw, fw = mw+1, fw+1
	var b strings.Builder
	fmt.Fprintf(&b, "%-*s", mw, "method")
	for _, f := range Functions() {
		fmt.Fprintf(&b, "%*s", fw, f)
	}
	b.WriteByte('\n')
	for _, m := range Methods() {
		fmt.Fprintf(&b, "%-*s", mw, m)
		for _, f := range Functions() {
			mark := "-"
			if m.Supports(f) {
				mark = "x"
			}
			fmt.Fprintf(&b, "%*s", fw, mark)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
