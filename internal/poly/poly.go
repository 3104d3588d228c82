// Package poly implements the polynomial-approximation method that the
// paper's PIM baselines use (§4.1.2, [67, 124]): Chebyshev fits
// generated on the host and evaluated on the PIM core with Horner's
// rule. Each polynomial degree costs one float multiply and one float
// add per term, which is why the paper notes that Taylor-style
// approximation needs "one floating-point multiplication for each bit
// of precision" and loses badly to L-LUTs on PIM (§4.2.1).
//
// The package also provides the Abramowitz–Stegun cumulative normal
// distribution polynomial used by the original Blackscholes benchmark.
//
// Products that feed an add are rounded by an explicit conversion, so
// no architecture fuses them into one FMA: the host mirrors then round
// per op as the device's FMul and FAdd do, and fitted coefficients are
// the same on every architecture.
package poly

import (
	"fmt"
	"math"

	"transpimlib/internal/pimsim"
)

// Func is a reference function sampled during fitting.
type Func func(float64) float64

// Poly is a polynomial in the normalized variable t ∈ [-1, 1],
// affinely mapped from the input interval [Lo, Hi].
type Poly struct {
	Lo, Hi float64
	// Coeffs are monomial coefficients in t, constant term first.
	Coeffs []float32
	// scale/shift implement t = scale·x + shift on the device.
	scale, shift float32
}

// FitChebyshev fits f on [lo, hi] with a polynomial of the given
// degree (degree+1 coefficients) using Chebyshev interpolation at the
// Chebyshev nodes, then converts the Chebyshev series to monomial form
// for Horner evaluation. Degrees up to ~25 stay numerically stable in
// the float64 conversion; higher degrees are rejected.
func FitChebyshev(f Func, lo, hi float64, degree int) (*Poly, error) {
	if !(lo < hi) || math.IsNaN(lo) || math.IsInf(hi, 0) {
		return nil, fmt.Errorf("poly: invalid interval [%v, %v]", lo, hi)
	}
	if degree < 0 || degree > 25 {
		return nil, fmt.Errorf("poly: degree %d out of [0, 25]", degree)
	}
	n := degree + 1

	// Chebyshev coefficients from function values at the nodes.
	fv := make([]float64, n)
	for k := 0; k < n; k++ {
		xk := math.Cos(math.Pi * (float64(k) + 0.5) / float64(n))
		fv[k] = f(lo + float64((hi-lo)*(xk+1)/2))
	}
	cheb := make([]float64, n)
	for j := 0; j < n; j++ {
		var s float64
		for k := 0; k < n; k++ {
			s += float64(fv[k] * math.Cos(math.Pi*float64(j)*(float64(k)+0.5)/float64(n)))
		}
		cheb[j] = 2 * s / float64(n)
	}
	cheb[0] /= 2

	// Chebyshev → monomial via the T recurrence: T₀=1, T₁=t,
	// T_{k+1} = 2t·T_k − T_{k−1}.
	mono := make([]float64, n)
	tPrev := make([]float64, n) // T₀
	tCur := make([]float64, n)  // T₁
	tPrev[0] = 1
	if n > 1 {
		tCur[1] = 1
	}
	addScaled := func(dst, src []float64, w float64) {
		for i, v := range src {
			dst[i] += float64(w * v)
		}
	}
	addScaled(mono, tPrev, cheb[0])
	if n > 1 {
		addScaled(mono, tCur, cheb[1])
	}
	for k := 2; k < n; k++ {
		tNext := make([]float64, n)
		for i := 1; i < n; i++ {
			tNext[i] = 2 * tCur[i-1]
		}
		for i := 0; i < n; i++ {
			tNext[i] -= tPrev[i]
		}
		addScaled(mono, tNext, cheb[k])
		tPrev, tCur = tCur, tNext
	}

	p := &Poly{Lo: lo, Hi: hi, Coeffs: make([]float32, n)}
	for i, c := range mono {
		p.Coeffs[i] = float32(c)
	}
	p.scale = float32(2 / (hi - lo))
	p.shift = float32(-(hi + lo) / (hi - lo))
	return p, nil
}

// Degree returns the polynomial degree.
func (p *Poly) Degree() int { return len(p.Coeffs) - 1 }

// Bytes returns the PIM memory footprint of the coefficients.
func (p *Poly) Bytes() int { return 4 * len(p.Coeffs) }

// Eval evaluates the polynomial on the PIM core with Horner's rule:
// one multiply and one add per degree, plus the affine input mapping
// (one multiply, one add). Coefficients live in registers/WRAM; we
// charge one scratchpad load per term.
func (p *Poly) Eval(ctx *pimsim.Ctx, x float32) float32 {
	t := ctx.FAdd(ctx.FMul(x, p.scale), p.shift)
	n := len(p.Coeffs)
	acc := p.Coeffs[n-1]
	ctx.Charge(1) // load of leading coefficient
	for i := n - 2; i >= 0; i-- {
		ctx.Charge(1) // coefficient load
		acc = ctx.FAdd(ctx.FMul(acc, t), p.Coeffs[i])
	}
	return acc
}

// EvalHost is the unmetered float32 mirror of Eval.
func (p *Poly) EvalHost(x float32) float32 {
	t := float32(x*p.scale) + p.shift
	n := len(p.Coeffs)
	acc := p.Coeffs[n-1]
	for i := n - 2; i >= 0; i-- {
		acc = float32(acc*t) + p.Coeffs[i]
	}
	return acc
}

// EvalHostMany runs EvalHost over a slice with the coefficient array
// and affine input mapping hoisted out of the per-element loop;
// bit-identical to per-element calls.
func (p *Poly) EvalHostMany(xs, ys []float32) {
	ys = ys[:len(xs)]
	coeffs := p.Coeffs
	if len(coeffs) == 0 {
		return
	}
	scale, shift := p.scale, p.shift
	lead := coeffs[len(coeffs)-1]
	rest := coeffs[:len(coeffs)-1]
	for i, x := range xs {
		t := float32(x*scale) + shift
		acc := lead
		for j := len(rest) - 1; j >= 0; j-- {
			acc = float32(acc*t) + rest[j]
		}
		ys[i] = acc
	}
}

// MaxError estimates the fit's maximum absolute error on a dense grid.
func (p *Poly) MaxError(f Func, samples int) float64 {
	var worst float64
	for i := 0; i <= samples; i++ {
		x := p.Lo + (p.Hi-p.Lo)*float64(i)/float64(samples)
		if e := math.Abs(float64(p.EvalHost(float32(x))) - f(x)); e > worst {
			worst = e
		}
	}
	return worst
}

// DegreeFor searches for the smallest degree whose Chebyshev fit of f
// on [lo, hi] reaches the target maximum error, up to degree 25. It
// returns the fitted polynomial.
func DegreeFor(f Func, lo, hi, target float64) (*Poly, error) {
	for d := 2; d <= 25; d++ {
		p, err := FitChebyshev(f, lo, hi, d)
		if err != nil {
			return nil, err
		}
		if p.MaxError(f, 2000) <= target {
			return p, nil
		}
	}
	return nil, fmt.Errorf("poly: no degree ≤ 25 reaches error %g for range [%g, %g]", target, lo, hi)
}

// Abramowitz–Stegun 26.2.17 constants for the cumulative normal
// distribution, as used in the original Blackscholes benchmark.
var cndfB = [5]float32{0.319381530, -0.356563782, 1.781477937, -1.821255978, 1.330274429}

const cndfGamma = float32(0.2316419)

// invSqrt2Pi is 1/√(2π) for the normal pdf.
const invSqrt2Pi = float32(0.39894228040143267794)

// CNDF evaluates the cumulative normal distribution Φ(x) on the PIM
// core using the Abramowitz–Stegun polynomial, taking the exp(−x²/2)
// factor from the supplied narrow-range exponential (so the same
// routine serves the poly baseline and the TransPimLib-backed
// versions).
func CNDF(ctx *pimsim.Ctx, x float32, expf func(*pimsim.Ctx, float32) float32) float32 {
	ax := ctx.FAbs(x)
	k := ctx.FDiv(1, ctx.FAdd(1, ctx.FMul(cndfGamma, ax)))
	// Horner over the five b-coefficients.
	acc := cndfB[4]
	for i := 3; i >= 0; i-- {
		ctx.Charge(1)
		acc = ctx.FAdd(ctx.FMul(acc, k), cndfB[i])
	}
	poly := ctx.FMul(acc, k)
	pdf := ctx.FMul(invSqrt2Pi, expf(ctx, ctx.FMul(-0.5, ctx.FMul(ax, ax))))
	res := ctx.FSub(1, ctx.FMul(pdf, poly))
	ctx.Branch()
	if ctx.FCmp(x, 0) < 0 {
		res = ctx.FSub(1, res)
	}
	return res
}

// CNDFHost is the float64 host reference of CNDF (exact Φ via erf).
func CNDFHost(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}
