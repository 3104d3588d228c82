package core

import (
	"fmt"

	"transpimlib/internal/pimsim"
	"transpimlib/internal/stats"
)

// Point is one measured configuration of a method: the accuracy it
// reached and what it cost in PIM cycles, modeled setup time, and PIM
// memory — the three axes of Figures 5, 6 and 7.
type Point struct {
	Fn     Function
	Par    Params
	Errors stats.Errors

	CyclesPerElem float64
	// SetupSeconds is BuildSeconds (table generation on the model host)
	// plus the Host→PIM table transfer.
	SetupSeconds float64
	BuildSeconds float64
	TableBytes   int

	// Counters holds the kernel's per-instruction-class op and cycle
	// totals over the whole input sweep (setup loads excluded) — the
	// same classes the modeled-cycle profiler attributes to.
	Counters pimsim.Counters
}

// String renders the point as one table row.
func (p Point) String() string {
	return fmt.Sprintf("%-28s rmse=%10.3g cycles/elem=%9.1f setup=%10.3gs mem=%9dB",
		p.Par.Label(), p.Errors.RMSE, p.CyclesPerElem, p.SetupSeconds, p.TableBytes)
}

// MeasureOperator builds fn(params) on a fresh single-core PIM system,
// streams the inputs through it the way the microbenchmarks do
// (operands DMAed from the DRAM bank in chunks, then evaluated
// element-wise), and returns accuracy plus per-element cycle cost.
func MeasureOperator(fn Function, p Params, inputs []float32) (Point, error) {
	return MeasureOperatorCost(fn, p, inputs, pimsim.Default())
}

// MeasureOperatorCost is MeasureOperator on a machine with the given
// cost model — the architecture-exploration entry point (UPMEM-like
// versus HBM-PIM-like versus future FP32 profiles).
func MeasureOperatorCost(fn Function, p Params, inputs []float32, cost pimsim.CostModel) (Point, error) {
	dpu := pimsim.NewDPU(0, cost, pimsim.DefaultTasklets)
	op, err := Build(fn, p, dpu)
	if err != nil {
		return Point{}, err
	}
	dpu.ResetCycles() // setup loads are not kernel cycles
	ctx := dpu.NewCtx()
	ref := fn.Ref()
	var col stats.Collector
	for _, x := range inputs {
		got := op.Eval(ctx, x)
		col.Add(got, ref(float64(x)))
	}
	return Point{
		Fn:            fn,
		Par:           op.Par,
		Errors:        col.Result(),
		CyclesPerElem: float64(dpu.Cycles()) / float64(len(inputs)),
		SetupSeconds:  op.SetupSeconds(),
		BuildSeconds:  op.BuildSeconds(),
		TableBytes:    op.TableBytes(),
		Counters:      dpu.Counters(),
	}, nil
}

// SweepConfig defines one accuracy sweep of one method (one curve in
// Figures 5–7).
type SweepConfig struct {
	Fn        Function
	Method    Method
	Interp    bool
	Placement pimsim.Placement
	// Sizes are the accuracy knobs: CORDIC iteration counts, LUT
	// SizeLog2 values, or polynomial degrees, per the method.
	Sizes []int
	// Cost selects the machine profile (zero value: the UPMEM-like
	// default).
	Cost pimsim.CostModel
}

// DefaultSizes returns the accuracy knob values the paper-style sweep
// uses for the method (tuned to produce RMSE between ~1e-4 and the
// float32 floor).
func DefaultSizes(m Method) []int {
	switch m {
	case CORDIC:
		return []int{8, 12, 16, 20, 24, 28, 32, 36}
	case CORDICLUT:
		return []int{4, 8, 12, 16, 20, 24}
	case Poly:
		return []int{3, 5, 7, 9, 11, 13}
	default: // LUT SizeLog2
		return []int{6, 8, 10, 12, 14, 16, 18}
	}
}

// Run executes the sweep: one MeasureOperator per size. Configurations
// that fail to build (e.g. a LUT that outgrows the scratchpad) are
// skipped — exactly the WRAM accuracy ceiling of §4.2.1 observation 4.
func (sc SweepConfig) Run(inputs []float32) []Point {
	sizes := sc.Sizes
	if len(sizes) == 0 {
		sizes = DefaultSizes(sc.Method)
	}
	var out []Point
	for _, size := range sizes {
		p := Params{Method: sc.Method, Interp: sc.Interp, Placement: sc.Placement}
		switch sc.Method {
		case CORDIC:
			p.Iterations = size
		case CORDICLUT:
			p.Iterations = size
			p.HeadBits = 8
		case Poly:
			p.Degree = size
		default:
			p.SizeLog2 = size
		}
		cost := sc.Cost
		if cost == (pimsim.CostModel{}) {
			cost = pimsim.Default()
		}
		pt, err := MeasureOperatorCost(sc.Fn, p, inputs, cost)
		if err != nil {
			continue
		}
		out = append(out, pt)
	}
	return out
}

// Fig5Curves returns the method configurations plotted in Figure 5 for
// a function: every TransPimLib method, interpolated and not where
// applicable, with WRAM and MRAM placements for the LUT families.
func Fig5Curves(fn Function) []SweepConfig {
	var out []SweepConfig
	add := func(m Method, interp bool, place pimsim.Placement) {
		if !m.Supports(fn) {
			return
		}
		if interp && !m.SupportsInterp() {
			return
		}
		out = append(out, SweepConfig{Fn: fn, Method: m, Interp: interp, Placement: place})
	}
	for _, m := range []Method{CORDIC, CORDICLUT} {
		add(m, false, pimsim.InWRAM)
	}
	for _, m := range []Method{MLUT, LLUT, LLUTFixed, DLUT, DLLUT} {
		for _, interp := range []bool{false, true} {
			add(m, interp, pimsim.InWRAM)
			add(m, interp, pimsim.InMRAM)
		}
	}
	return out
}
