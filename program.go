package transpimlib

import (
	"transpimlib/internal/engine"
	"transpimlib/internal/fusion"
)

// Program is the fused operator-graph builder: declare vector and
// scalar inputs, chain transcendental Func nodes, elementwise
// arithmetic, reductions and broadcasts, terminate with Return, then
// compile with Engine.CompileProgram. A compiled program evaluates
// end-to-end on the PIM cores — intermediate vectors stay in MRAM/WRAM
// and never cross the host boundary between steps, unlike per-op
// evaluation which pays a full host↔PIM round trip per node.
//
// A fused softmax:
//
//	p := transpimlib.NewProgram("softmax")
//	x := p.Input()
//	m := p.ReduceMax(x)
//	e := p.Func(transpimlib.Exp, p.Sub(x, p.Broadcast(m)))
//	s := p.ReduceSum(e)
//	p.Return(p.Mul(e, p.Div(p.Const(1), p.Broadcast(s))))
type Program = fusion.Program

// ProgramValue is an opaque handle to one node of a Program.
type ProgramValue = fusion.Value

// CompiledProgram is a validated, phase-split fused program ready for
// Engine.EvaluateProgram. Compile once, evaluate many times; safe for
// concurrent use.
type CompiledProgram = fusion.Compiled

// ProgramStats is the cost report of one fused evaluation: request
// costs plus the fused-vs-per-op byte model (moved, baseline, saved
// bytes and the saved transfer cycles).
type ProgramStats = engine.ProgramStats

// PerOpStats aggregates a per-op baseline evaluation — one engine
// round trip per device node of the program.
type PerOpStats = engine.PerOpStats

// NewProgram starts an empty fused program. The name labels its ledger
// rows ("fused:<name>"), traces, and benchmark tables.
func NewProgram(name string) *Program { return fusion.NewProgram(name) }

// CompileProgram validates and compiles a program against this
// engine's cost model. Every Func node evaluates under the method
// configuration in spec.
func (e *Engine) CompileProgram(p *Program, spec Config) (*CompiledProgram, error) {
	return e.e.CompileProgram(p, spec.params())
}

// EvaluateProgram evaluates a compiled fused program: inputs binds the
// program's vector inputs positionally (equal lengths), scalars its
// runtime scalar inputs. Returns the result vector (or a single
// element for a scalar-returning program) and the evaluation's cost
// report. Safe for concurrent use.
func (e *Engine) EvaluateProgram(c *CompiledProgram, inputs [][]float32, scalars []float32) ([]float32, ProgramStats, error) {
	return e.e.EvaluateProgram(c, inputs, scalars)
}

// EvaluateProgramAs is EvaluateProgram with a tenant tag for ledger
// attribution.
func (e *Engine) EvaluateProgramAs(tenant string, c *CompiledProgram, inputs [][]float32, scalars []float32) ([]float32, ProgramStats, error) {
	return e.e.EvaluateProgramTenant(tenant, c, inputs, scalars)
}

// EvaluateProgramPerOp evaluates the same program through the per-op
// baseline — every transcendental, elementwise and reduction node as
// its own engine round trip — with bit-identical outputs to
// EvaluateProgram. It exists for differential testing and for
// measuring what fusion saves.
func (e *Engine) EvaluateProgramPerOp(tenant string, c *CompiledProgram, inputs [][]float32, scalars []float32) ([]float32, PerOpStats, error) {
	return e.e.EvaluateProgramPerOp(tenant, c, inputs, scalars)
}
