// Package stats computes the accuracy metrics of §4.1.1: root-mean-
// square absolute error (RMSE), maximum absolute error, and error in
// units of last place (ULP), always against a double-precision host
// reference.
package stats

import (
	"fmt"
	"math"

	"transpimlib/internal/fpbits"
)

// Errors summarizes the deviation of a set of computed values from
// their references. The JSON tags make it directly embeddable in
// accuracy snapshots (the /debug/accuracy endpoint and the offline
// tplaccuracy -json report share this shape, so the numbers are
// bit-comparable).
type Errors struct {
	N       int     `json:"n"`
	RMSE    float64 `json:"rmse"` // √(mean of squared absolute errors)
	MaxAbs  float64 `json:"max_abs"`
	MeanAbs float64 `json:"mean_abs"`
	MaxULP  float64 `json:"max_ulp"` // max |error| / ulp(reference), reference in float32
	// RelRMSE is the root-mean-square of |error|/|reference| over
	// references of meaningful magnitude (|ref| > 1e-30) — the metric
	// of choice for functions whose outputs span decades (tan near its
	// poles, exp over wide ranges).
	RelRMSE float64 `json:"rel_rmse"`
}

// String formats the metrics compactly.
func (e Errors) String() string {
	return fmt.Sprintf("rmse=%.3g max=%.3g mean=%.3g relrmse=%.3g maxulp=%.1f (n=%d)",
		e.RMSE, e.MaxAbs, e.MeanAbs, e.RelRMSE, e.MaxULP, e.N)
}

// Collector accumulates errors incrementally.
type Collector struct {
	n        int
	sumSq    float64
	sumAbs   float64
	maxAbs   float64
	maxULP   float64
	sumRelSq float64
	nRel     int
}

// Deviation is the single error-math kernel every accuracy surface in
// the repo shares — the offline Collector (tplaccuracy, sweeps) and
// the online shadow sampler (internal/accwatch) both call it, so
// their numbers are bit-comparable by construction. It returns the
// absolute error and the error in units of last place of the float32
// reference. exact reports a non-finite pair where both sides agree
// (both +Inf, both NaN): such pairs count as error-free and carry no
// meaningful relative error. Disagreeing non-finite pairs saturate
// the absolute error at MaxFloat32, keeping downstream aggregates
// finite.
func Deviation(got float32, want float64) (abs, ulps float64, exact bool) {
	g := float64(got)
	if math.IsNaN(g) && math.IsNaN(want) {
		return 0, 0, true
	}
	if math.IsInf(g, 1) && math.IsInf(want, 1) || math.IsInf(g, -1) && math.IsInf(want, -1) {
		return 0, 0, true
	}
	abs = math.Abs(g - want)
	if math.IsNaN(abs) || math.IsInf(abs, 0) {
		abs = math.MaxFloat32
	}
	if u := float64(fpbits.ULP(float32(want))); u > 0 && !math.IsNaN(u) {
		ulps = abs / u
	}
	return abs, ulps, false
}

// Add records one (computed, reference) pair using Deviation's error
// math.
func (c *Collector) Add(got float32, want float64) {
	c.n++
	abs, ulps, exact := Deviation(got, want)
	if exact {
		return
	}
	c.sumSq += abs * abs
	c.sumAbs += abs
	if abs > c.maxAbs {
		c.maxAbs = abs
	}
	if ulps > c.maxULP {
		c.maxULP = ulps
	}
	if a := math.Abs(want); a > 1e-30 {
		rel := abs / a
		c.sumRelSq += rel * rel
		c.nRel++
	}
}

// Result returns the accumulated metrics.
func (c *Collector) Result() Errors {
	if c.n == 0 {
		return Errors{}
	}
	e := Errors{
		N:       c.n,
		RMSE:    math.Sqrt(c.sumSq / float64(c.n)),
		MaxAbs:  c.maxAbs,
		MeanAbs: c.sumAbs / float64(c.n),
		MaxULP:  c.maxULP,
	}
	if c.nRel > 0 {
		e.RelRMSE = math.Sqrt(c.sumRelSq / float64(c.nRel))
	}
	return e
}

// Measure evaluates approx against ref on the given inputs.
func Measure(inputs []float32, approx func(float32) float32, ref func(float64) float64) Errors {
	var c Collector
	for _, x := range inputs {
		c.Add(approx(x), ref(float64(x)))
	}
	return c.Result()
}

// UniformInputs returns n evenly spaced float32 samples over [lo, hi].
func UniformInputs(lo, hi float64, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(lo + (hi-lo)*float64(i)/float64(n-1))
	}
	return out
}

// RandomInputs returns n pseudo-random float32 samples uniform over
// [lo, hi), from a fixed-seed xorshift generator so runs reproduce
// (the microbenchmarks use 2¹⁶ random uniform values, §4.1.1).
func RandomInputs(lo, hi float64, n int, seed uint64) []float32 {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	out := make([]float32, n)
	s := seed
	for i := range out {
		// xorshift64*
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		u := float64(s*0x2545F4914F6CDD1D>>11) / float64(1<<53)
		out[i] = float32(lo + (hi-lo)*u)
	}
	return out
}
