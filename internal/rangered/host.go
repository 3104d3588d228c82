package rangered

import (
	"transpimlib/internal/fpbits"
	"transpimlib/internal/pimsim"
)

// Unmetered host twins of the device reductions, for the batch-
// evaluation fast path. Each replays the float32 operation order of
// its device form exactly, so values are bit-identical; the quadrant /
// parity results double as the cost-class discriminators the batch
// accounting charges per branch. Products that feed an add or subtract
// are rounded by an explicit float32 conversion, as the device's FMul
// rounds them, so no architecture fuses the pair into one FMA.

// FoldQuadrantHost mirrors FoldQuadrant.
func FoldQuadrantHost(r float32) (float32, Quadrant) {
	var q Quadrant
	for q = 0; q < 3; q++ {
		if r < HalfPi {
			break
		}
		r = r - HalfPi
	}
	return r, q
}

// ApplySinQuadrantHost mirrors ApplySinQuadrant.
func ApplySinQuadrantHost(sin, cos float32, q Quadrant) float32 {
	switch q & 3 {
	case 0:
		return sin
	case 1:
		return cos
	case 2:
		return -sin
	default:
		return -cos
	}
}

// ApplyCosQuadrantHost mirrors ApplyCosQuadrant.
func ApplyCosQuadrantHost(sin, cos float32, q Quadrant) float32 {
	switch q & 3 {
	case 0:
		return cos
	case 1:
		return -sin
	case 2:
		return -cos
	default:
		return sin
	}
}

// SplitExpHostMany mirrors SplitExp over a slice, filling the reduced
// arguments and scale exponents. JoinExp is fpbits.LdexpMany.
func SplitExpHostMany(xs []float32, rs []float32, ks []int32) {
	rs = rs[:len(xs)]
	ks = ks[:len(xs)]
	for i, x := range xs {
		k := pimsim.RoundToEven32(x * Log2E)
		kf := float32(k)
		r := x - float32(kf*Ln2Hi)
		rs[i] = r - float32(kf*Ln2Lo)
		ks[i] = k
	}
}

// JoinLogHost mirrors JoinLog.
func JoinLogHost(logM float32, e int32) float32 { return logM + float32(float32(e)*Ln2) }

// SplitLogHostMany mirrors SplitLog over a slice, filling the
// mantissas and exponents.
func SplitLogHostMany(xs []float32, ms []float32, es []int32) {
	ms = ms[:len(xs)]
	es = es[:len(xs)]
	for i, x := range xs {
		mf, ei := fpbits.Frexp(x)
		ms[i] = mf
		es[i] = int32(ei)
	}
}

// SplitSqrtHost mirrors SplitSqrt; odd reports whether the exponent-
// parity fold ran (the branch the batch cost accounting charges).
func SplitSqrtHost(x float32) (m float32, h int32, odd bool) {
	mf, e := fpbits.Frexp(x)
	if e&1 != 0 {
		mf = fpbits.Ldexp(mf, 1)
		e--
		odd = true
	}
	return mf, int32(e / 2), odd
}
