// Package core assembles the substrates — CORDIC engines, fuzzy
// lookup tables, range reduction, polynomial baseline — into
// TransPimLib proper: for every supported (function, method) pair it
// builds the host-side setup (tables, modeled setup time) and a
// device-side evaluator that runs on the simulated PIM core with full
// cycle accounting.
package core

import (
	"fmt"
	"math"
)

// Function identifies one of the transcendental / hard-to-calculate
// functions TransPimLib supports (Table 2).
type Function int

// The supported functions.
const (
	Sin Function = iota
	Cos
	Tan
	Sinh
	Cosh
	Tanh
	Exp
	Log
	Sqrt
	GELU
	// Extension functions beyond the paper's Table 2: arctangent
	// (listed for the circular CORDIC mode in Table 1) and the sigmoid
	// activation (the subject of one §4.3 workload, and — like tanh and
	// GELU — approximately linear and range-extension-free, so a
	// natural D-LUT/DL-LUT target per Key Takeaway 4).
	Atan
	Sigmoid
	numFunctions
)

// Functions lists every supported function, for sweeps.
func Functions() []Function {
	out := make([]Function, numFunctions)
	for i := range out {
		out[i] = Function(i)
	}
	return out
}

var functionNames = [...]string{
	"sin", "cos", "tan", "sinh", "cosh", "tanh", "exp", "log", "sqrt", "gelu",
	"atan", "sigmoid",
}

// String returns the function's lowercase name.
func (f Function) String() string {
	if f < 0 || f >= numFunctions {
		return "fn?"
	}
	return functionNames[f]
}

// ParseFunction resolves a name produced by String.
func ParseFunction(s string) (Function, error) {
	for i, n := range functionNames {
		if n == s {
			return Function(i), nil
		}
	}
	return 0, fmt.Errorf("core: unknown function %q", s)
}

// Ref returns the double-precision host reference implementation
// (§4.1.1: accuracy is compared against the host's standard math
// library).
func (f Function) Ref() func(float64) float64 {
	switch f {
	case Sin:
		return math.Sin
	case Cos:
		return math.Cos
	case Tan:
		return math.Tan
	case Sinh:
		return math.Sinh
	case Cosh:
		return math.Cosh
	case Tanh:
		return math.Tanh
	case Exp:
		return math.Exp
	case Log:
		return math.Log
	case Sqrt:
		return math.Sqrt
	case GELU:
		return geluRef
	case Atan:
		return math.Atan
	case Sigmoid:
		return sigmoidRef
	}
	panic("core: bad function")
}

// sigmoidRef is the logistic function S(x) = 1/(1+e^{−x}).
func sigmoidRef(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// geluRef is the exact Gaussian Error Linear Unit [56]:
// GELU(x) = x·Φ(x) = x/2 · (1 + erf(x/√2)).
func geluRef(x float64) float64 {
	return 0.5 * x * (1 + math.Erf(x/math.Sqrt2))
}

// Domain returns the input interval the microbenchmarks sweep for this
// function (§4.1.1 uses [0, 2π] for sine; the others get analogous
// representative ranges).
func (f Function) Domain() (lo, hi float64) {
	switch f {
	case Sin, Cos, Tan:
		return 0, 2 * math.Pi
	case Sinh, Cosh:
		return -2, 2
	case Tanh, GELU, Atan, Sigmoid:
		return -7.9, 7.9
	case Exp:
		// Outputs stay O(10), so the absolute-RMSE metric of §4.1.1
		// remains comparable with the other functions; the range
		// extension still exercises nonzero 2^k scaling.
		return -2.5, 2.5
	case Log:
		return 1.0 / 1024, 100
	case Sqrt:
		return 1.0 / 1024, 100
	}
	panic("core: bad function")
}

// CoreRange returns the reduced interval that tables and CORDIC cover
// after range reduction/extension (§2.2.3):
// trigonometric functions reduce periodically, exp/log/sqrt split
// exponent and mantissa, and the direct functions use their full
// domain.
func (f Function) CoreRange() (lo, hi float64) {
	switch f {
	case Sin, Cos, Tan:
		return 0, 2 * math.Pi
	case Sinh, Cosh:
		return -2, 2
	case Tanh, GELU, Atan, Sigmoid:
		return -7.9, 7.9
	case Exp:
		return -math.Ln2 / 2, math.Ln2 / 2
	case Log:
		return 0.5, 1
	case Sqrt:
		return 0.5, 2
	}
	panic("core: bad function")
}

// NeedsRangeExtension reports whether evaluation prepends/append the
// §2.2.3 conversions (Fig. 8 costs).
func (f Function) NeedsRangeExtension() bool {
	switch f {
	case Exp, Log, Sqrt:
		return true
	}
	return false
}
