package workloads

import (
	"math"
	"time"
)

// Calibration measures the per-call cost of the host's math library on
// *this* machine, in nanoseconds, so the analytic CPUModel can be
// cross-checked against reality (`tplrepro -show fig9 -measured`
// prints it beside the measured CPU baselines; it quantifies how far
// this host is from the paper's 2.1-GHz Xeon).
type Calibration struct {
	ExpNs  float64
	LogNs  float64
	SqrtNs float64
	DivNs  float64
	FlopNs float64
}

// Calibrate times tight loops over the host math library. The sink
// accumulation defeats dead-code elimination; loop overhead is
// subtracted via the Flop measurement.
func Calibrate(iters int) Calibration {
	if iters <= 0 {
		iters = 1 << 20
	}
	xs := make([]float64, 256)
	for i := range xs {
		xs[i] = 0.5 + float64(i)/256*3
	}
	timeIt := func(f func(x float64) float64) float64 {
		var sink float64
		start := time.Now()
		for i := 0; i < iters; i++ {
			sink += f(xs[i&255])
		}
		elapsed := time.Since(start).Seconds()
		if sink == math.Pi {
			panic("unreachable") // keep sink alive
		}
		return elapsed / float64(iters) * 1e9
	}
	flop := timeIt(func(x float64) float64 { return x + 1.000001 })
	return Calibration{
		ExpNs:  timeIt(math.Exp) - flop,
		LogNs:  timeIt(math.Log) - flop,
		SqrtNs: timeIt(math.Sqrt) - flop,
		DivNs:  timeIt(func(x float64) float64 { return 1.0 / x }) - flop,
		FlopNs: flop,
	}
}
