package core

// The model host is the paper's evaluation CPU (§4.1): a 2.1-GHz Xeon
// core running a vendor math library, costed per scalar call. Two
// figures are priced on it: Fig. 6's host-side table generation
// (Operator.BuildSeconds) and Fig. 9's CPU baselines
// (internal/workloads). Both read this one table, so neither depends
// on the machine that runs the simulator.
const (
	XeonClockHz = 2.1e9

	// Per-call cycle costs: scalar glibc-class latencies on one core.
	XeonExp  = 80.0
	XeonLog  = 85.0
	XeonSqrt = 20.0 // hardware sqrtss
	XeonDiv  = 25.0
	XeonFlop = 2.0   // dependent add/mul in a scalar chain
	XeonTrig = 80.0  // sin, cos, atan or atanh: the same class as exp
	XeonCNDF = 190.0 // normal CDF Φ (Abramowitz–Stegun: one exp, the b-polynomial, a divide)
)

// refCycles is the model-host cost of one call of the reference that a
// table or fit of f samples. Tan's tables and fits sample sine and
// cosine, one trig call each.
func (f Function) refCycles() float64 {
	switch f {
	case Exp:
		return XeonExp
	case Log:
		return XeonLog
	case Sqrt:
		return XeonSqrt
	case Sinh, Cosh, Tanh, Sigmoid:
		return XeonExp + XeonDiv + 2*XeonFlop // one exp, a reciprocal, two flops
	case GELU:
		return XeonCNDF + XeonFlop // x·Φ(x)
	default: // Sin, Cos, Tan, Atan
		return XeonTrig
	}
}

// The cost helpers round each product explicitly (float64(a*b)): the
// builds sum their results, and a product fused into that sum (an
// FMADD on arm64) would price setup differently from amd64.

// tableCycles prices entries table entries: one reference call, then
// the a⁻¹(i) = p + i/k input mapping (a divide and an add) and the
// round to the stored word.
func tableCycles(entries int, ref float64) float64 {
	return float64(float64(entries) * (ref + XeonDiv + 2*XeonFlop))
}

// cordicCycles prices CORDIC iteration constants: the angle
// atan(2⁻ⁱ) or atanh(2⁻ⁱ), the gain factor √(1 ± 2⁻²ⁱ) and its
// running product.
func cordicCycles(constants int) float64 {
	return float64(float64(constants) * (XeonTrig + XeonSqrt + 2*XeonFlop))
}

// fitCycles prices a Chebyshev fit with n samples (poly.FitChebyshev):
// per sample a node cosine, the mapped reference call and three
// flops, then n² cosine-weighted sums and the monomial recurrence.
func fitCycles(n int, ref float64) float64 {
	s := float64(n)
	return float64(s*(ref+XeonTrig+3*XeonFlop)) + float64(s*s*(XeonTrig+3*XeonFlop))
}
