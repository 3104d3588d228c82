// Package workloads implements the paper's three full workloads —
// Blackscholes, Sigmoid, Softmax (§4.1.2, §4.3, Fig. 9) — as PIM
// kernels on the simulated system (with polynomial-baseline, M-LUT,
// L-LUT and fixed-point L-LUT math kits) and as host-CPU baselines: an
// analytic model of the paper's 32-core 2.1-GHz Xeon, so the Fig. 9
// ratios are reproducible anywhere, plus runs measured on this machine.
package workloads

import "transpimlib/internal/core"

// CPUModel is the analytic host-CPU baseline: a multicore x86 running
// a vendor math library, costed per transcendental call. The per-call
// costs are the model host's (core.Xeon*), the same table Fig. 6's
// table generation is priced from; the default parameters follow the
// paper's evaluation host (2-socket Xeon, 32 cores at 2.1 GHz, §4.1).
type CPUModel struct {
	ClockHz    float64
	Threads    int
	Efficiency float64 // parallel-scaling efficiency for streaming kernels
}

// DefaultXeon returns the paper's host with the given thread count.
func DefaultXeon(threads int) CPUModel {
	return CPUModel{ClockHz: core.XeonClockHz, Threads: threads, Efficiency: 0.9}
}

// Seconds converts a per-element cycle cost into wall time for n
// elements across the model's threads.
func (m CPUModel) Seconds(perElemCycles float64, n int) float64 {
	threads := float64(m.Threads)
	if threads < 1 {
		threads = 1
	}
	eff := m.Efficiency
	if m.Threads == 1 {
		eff = 1
	}
	return perElemCycles * float64(n) / (m.ClockHz * threads * eff)
}

// BlackscholesCycles is the modeled per-option CPU cost: one log, one
// sqrt, one exp, two CNDF calls and the surrounding arithmetic.
func BlackscholesCycles() float64 {
	return core.XeonLog + core.XeonSqrt + core.XeonExp + 2*core.XeonCNDF + 30*core.XeonFlop
}

// SigmoidCycles is the modeled per-element CPU cost of 1/(1+e^{−x}).
func SigmoidCycles() float64 { return core.XeonExp + core.XeonDiv + 2*core.XeonFlop }

// SoftmaxCycles is the modeled per-element CPU cost across both passes
// (exp + accumulate, then normalize).
func SoftmaxCycles() float64 { return core.XeonExp + core.XeonDiv + 3*core.XeonFlop }

// Full-scale experiment geometry (§4.1, §4.1.2): 2545 PIM cores; 10M
// options for Blackscholes, 30M elements for Sigmoid and Softmax.
const (
	FullDPUs                 = 2545
	FullBlackscholesElements = 10_000_000
	FullActivationElements   = 30_000_000
)

// ProjectFull rescales a Result measured on a scaled-down system with
// the same per-core load up to the full-scale element count: kernel
// time is unchanged (each core does identical work), transfer time
// scales with total bytes because the host↔PIM bandwidths are
// aggregate figures.
func ProjectFull(r Result, fullElements int) Result {
	if r.Elements > 0 {
		r.TransferSeconds *= float64(fullElements) / float64(r.Elements)
	}
	r.Elements = fullElements
	return r
}
