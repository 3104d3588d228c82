package workloads

import (
	"fmt"
	"math"

	"transpimlib/internal/core"
	"transpimlib/internal/engine"
	"transpimlib/internal/fusion"
	"transpimlib/internal/stats"
)

// This file holds the three end-to-end fused-program workloads of the
// operator-fusion subsystem (internal/fusion): softmax with on-device
// max/sum reductions, a transformer-FFN GELU block, and a logistic-
// regression training step. Each runs twice through the same engine —
// once as a fused program (intermediates device-resident, one batch)
// and once through the per-op baseline (one host↔PIM round trip per
// node) — with bit-identical outputs and the byte/cycle savings
// reported side by side.

// FusedParams is the method configuration every fused workload's
// transcendental nodes run under: interpolated L-LUT, the paper's
// all-function method (Table 2).
func FusedParams() core.Params {
	return core.Params{Method: core.LLUT, Interp: true}
}

// FusedCase is one fused workload: a program builder plus input
// generation and a float64 guide reference for error reporting.
type FusedCase struct {
	Name string
	// Build constructs the program graph.
	Build func() *fusion.Program
	// NumInputs/NumScalars describe the signature; Gen produces
	// deterministic inputs for a given element count.
	Gen func(n int) (inputs [][]float32, scalars []float32)
	// Ref computes the float64-guided host reference of the result
	// (used for error reporting, not bit comparison: the device path
	// is float32 LUT arithmetic).
	Ref func(inputs [][]float32, scalars []float32) []float64
}

// FusedSoftmax is the numerically-stable softmax: on-device max
// reduction, exp of the shifted inputs, on-device sum reduction, and
// normalization by the host-computed reciprocal — three fused phases,
// where the per-op baseline pays five full round trips.
func FusedSoftmax() FusedCase {
	return FusedCase{
		Name: "softmax",
		Build: func() *fusion.Program {
			p := fusion.NewProgram("softmax")
			x := p.Input()
			m := p.ReduceMax(x)
			e := p.Func(core.Exp, p.Sub(x, p.Broadcast(m)))
			s := p.ReduceSum(e)
			p.Return(p.Mul(e, p.Div(p.Const(1), p.Broadcast(s))))
			return p
		},
		Gen: func(n int) ([][]float32, []float32) {
			return [][]float32{stats.RandomInputs(-8, 8, n, 101)}, nil
		},
		Ref: func(inputs [][]float32, _ []float32) []float64 {
			return SoftmaxRef(inputs[0])
		},
	}
}

// FusedFFNGELU is the transformer feed-forward activation block:
// y = gelu(h + bias) · gamma, elementwise over three input vectors —
// one fused phase against three per-op round trips.
func FusedFFNGELU() FusedCase {
	return FusedCase{
		Name: "ffn-gelu",
		Build: func() *fusion.Program {
			p := fusion.NewProgram("ffn-gelu")
			h := p.Input()
			bias := p.Input()
			gamma := p.Input()
			p.Return(p.Mul(p.Func(core.GELU, p.Add(h, bias)), gamma))
			return p
		},
		Gen: func(n int) ([][]float32, []float32) {
			return [][]float32{
				stats.RandomInputs(-4, 4, n, 201),
				stats.RandomInputs(-1, 1, n, 202),
				stats.RandomInputs(0.5, 1.5, n, 203),
			}, nil
		},
		Ref: func(inputs [][]float32, _ []float32) []float64 {
			gelu := core.GELU.Ref()
			out := make([]float64, len(inputs[0]))
			for i := range out {
				u := float64(inputs[0][i]) + float64(inputs[1][i])
				out[i] = gelu(u) * float64(inputs[2][i])
			}
			return out
		},
	}
}

// FusedLogisticStep is one SGD step of logistic regression on a batch
// of per-example logits z with labels y: the sigmoid probabilities,
// the per-example gradient g = σ(z) − y, its batch mean (an on-device
// sum reduction scaled on the host by 1/n), and the mean-centered
// update z ← z − lr·(g − mean(g)). Two fused phases with one scalar
// sync, against six per-op round trips.
func FusedLogisticStep() FusedCase {
	return FusedCase{
		Name: "logistic-step",
		Build: func() *fusion.Program {
			p := fusion.NewProgram("logistic-step")
			z := p.Input()
			y := p.Input()
			lr := p.ScalarInput()
			invN := p.ScalarInput()
			g := p.Sub(p.Func(core.Sigmoid, z), y)
			mu := p.Mul(p.Broadcast(p.ReduceSum(g)), invN) // host scalar
			p.Return(p.Sub(z, p.Mul(p.Sub(g, mu), lr)))
			return p
		},
		Gen: func(n int) ([][]float32, []float32) {
			labels := stats.RandomInputs(0, 1, n, 302)
			for i, v := range labels {
				if v < 0.5 {
					labels[i] = 0
				} else {
					labels[i] = 1
				}
			}
			return [][]float32{stats.RandomInputs(-6, 6, n, 301), labels},
				[]float32{0.1, float32(1) / float32(n)}
		},
		Ref: func(inputs [][]float32, scalars []float32) []float64 {
			z, y := inputs[0], inputs[1]
			lr, invN := float64(scalars[0]), float64(scalars[1])
			g := make([]float64, len(z))
			var sum float64
			for i := range z {
				g[i] = 1/(1+math.Exp(-float64(z[i]))) - float64(y[i])
				sum += g[i]
			}
			mu := sum * invN
			out := make([]float64, len(z))
			for i := range z {
				out[i] = float64(z[i]) - lr*(g[i]-mu)
			}
			return out
		},
	}
}

// FusedCases returns the three fused workloads.
func FusedCases() []FusedCase {
	return []FusedCase{FusedSoftmax(), FusedFFNGELU(), FusedLogisticStep()}
}

// FusedResult is one side-by-side row: the same workload through the
// fused program and the per-op baseline on the same engine.
type FusedResult struct {
	Workload string `json:"workload"`
	Elements int    `json:"elements"`
	Phases   int    `json:"phases"`

	// Modeled pipeline seconds (transfers and compute) and kernel
	// cycles of each path. Table setup is left out of the seconds: a
	// multi-shard engine pays it on whichever shard first serves a
	// spec, so it follows batch placement, not fusion.
	FusedSeconds float64 `json:"fused_seconds"`
	PerOpSeconds float64 `json:"per_op_seconds"`
	FusedCycles  uint64  `json:"fused_cycles"`
	PerOpCycles  uint64  `json:"per_op_cycles"`

	// Host↔PIM bytes moved by each path and the saving (the analytic
	// model, reconciled exactly against the engine's metered transfers
	// by the differential suite).
	FusedBytes int `json:"fused_bytes"`
	PerOpBytes int `json:"per_op_bytes"`
	SavedBytes int `json:"saved_bytes"`
	// SavedTransferCycles is the byte saving as modeled PIM clock
	// cycles of transfer time.
	SavedTransferCycles uint64 `json:"saved_transfer_cycles"`

	// BitIdentical reports the fused outputs matched the per-op
	// outputs bit for bit; Degraded marks a fused run completed on the
	// host mirror (fault injection).
	BitIdentical bool `json:"bit_identical"`
	Degraded     bool `json:"degraded"`

	// MaxAbsErr is the worst absolute deviation of the fused outputs
	// from the float64-guided reference.
	MaxAbsErr float64 `json:"max_abs_err"`
}

// FusedElemsPerSec returns elements per modeled second of the fused
// path (0 when no time was modeled).
func (r FusedResult) FusedElemsPerSec() float64 {
	if r.FusedSeconds <= 0 {
		return 0
	}
	return float64(r.Elements) / r.FusedSeconds
}

// PerOpElemsPerSec returns elements per modeled second of the per-op
// baseline.
func (r FusedResult) PerOpElemsPerSec() float64 {
	if r.PerOpSeconds <= 0 {
		return 0
	}
	return float64(r.Elements) / r.PerOpSeconds
}

// String renders the result as one side-by-side table row.
func (r FusedResult) String() string {
	return fmt.Sprintf("%-14s n=%-7d phases=%d fused=%9.6fs (%8.3g el/s) per-op=%9.6fs (%8.3g el/s) bytes=%d vs %d saved=%d (cycles=%d) bitident=%v maxerr=%.3g",
		r.Workload, r.Elements, r.Phases,
		r.FusedSeconds, r.FusedElemsPerSec(),
		r.PerOpSeconds, r.PerOpElemsPerSec(),
		r.FusedBytes, r.PerOpBytes, r.SavedBytes, r.SavedTransferCycles,
		r.BitIdentical, r.MaxAbsErr)
}

// RunFused evaluates one fused case both ways on the engine and
// compares. verify escalates a bit-identity mismatch to an error.
func RunFused(e *engine.Engine, cs FusedCase, n int, verify bool) (FusedResult, error) {
	prog, err := e.CompileProgram(cs.Build(), FusedParams())
	if err != nil {
		return FusedResult{}, err
	}
	inputs, scalars := cs.Gen(n)

	fusedOut, fst, err := e.EvaluateProgramTenant("bench", prog, inputs, scalars)
	if err != nil {
		return FusedResult{}, fmt.Errorf("%s fused: %w", cs.Name, err)
	}
	perOut, pst, err := e.EvaluateProgramPerOp("bench", prog, inputs, scalars)
	if err != nil {
		return FusedResult{}, fmt.Errorf("%s per-op: %w", cs.Name, err)
	}

	r := FusedResult{
		Workload:            cs.Name,
		Elements:            n,
		Phases:              prog.NumPhases(),
		FusedSeconds:        fst.TransferInSeconds + fst.ComputeSeconds + fst.TransferOutSeconds,
		PerOpSeconds:        pst.TransferInSeconds + pst.ComputeSeconds + pst.TransferOutSeconds,
		FusedCycles:         fst.KernelCycles,
		PerOpCycles:         pst.KernelCycles,
		FusedBytes:          fst.FusedBytes,
		PerOpBytes:          fst.PerOpBytes,
		SavedBytes:          fst.SavedBytes,
		SavedTransferCycles: fst.SavedTransferCycles,
		Degraded:            fst.Degraded,
		BitIdentical:        bitIdentical(fusedOut, perOut),
	}
	ref := cs.Ref(inputs, scalars)
	for i, v := range fusedOut {
		if i < len(ref) {
			if d := math.Abs(float64(v) - ref[i]); d > r.MaxAbsErr {
				r.MaxAbsErr = d
			}
		}
	}
	if verify && !r.BitIdentical {
		return r, fmt.Errorf("%s: fused outputs differ from per-op baseline", cs.Name)
	}
	return r, nil
}

func bitIdentical(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}
