package engine

import (
	"errors"
	"fmt"
	"time"

	"transpimlib/internal/core"
	"transpimlib/internal/fusion"
	"transpimlib/internal/pimsim"
)

// This file is the engine's fused-program path: a compiled
// fusion.Program takes the same paths as ordinary requests — run on its
// caller when a shard is idle, or submit → batcher → shard — and the
// same transfer-in → compute → transfer-out stages, but one batch
// carries the whole program. Its intermediate vectors never cross the
// host boundary — transfer-in ships the input vectors (plus the initial
// scalar broadcasts) once, each phase is one fused kernel launch, the
// 4-byte-per-lane reduction syncs are the only mid-program traffic, and
// transfer-out ships only the result. The per-op baseline
// (EvaluateProgramPerOp) pays a full round trip per node through the
// ordinary paths instead; outputs are bit-identical between the two.

// ProgramStats reports one fused program evaluation: the underlying
// request costs plus the byte model the fusion compiler guarantees.
type ProgramStats struct {
	RequestStats

	// FusedBytes is the total host↔PIM bytes this evaluation moved
	// (inputs + scalar broadcasts + reduction syncs + result);
	// PerOpBytes is what the per-op baseline moves for the same
	// program and batch; SavedBytes is the difference. The engine's
	// metered transfers reconcile exactly against these (the
	// differential suite's contract).
	FusedBytes int
	PerOpBytes int
	SavedBytes int

	// SavedTransferSeconds/Cycles convert the byte saving to modeled
	// transfer time under the system's rank-parallel bandwidths (split
	// per direction) and to equivalent PIM clock cycles.
	SavedTransferSeconds float64
	SavedTransferCycles  uint64
}

// PerOpStats aggregates the per-op baseline evaluation of a program:
// one ordinary engine round trip per device node.
type PerOpStats struct {
	// Requests is how many engine round trips the decomposition made.
	Requests int
	// MovedBytes is the total host↔PIM bytes the baseline moved
	// (analytic, reconciled against the engine's byte counters by the
	// differential suite).
	MovedBytes int

	KernelCycles       uint64
	SetupSeconds       float64
	TransferInSeconds  float64
	ComputeSeconds     float64
	TransferOutSeconds float64
}

// ModeledSeconds returns the baseline's total modeled pipeline time.
func (s PerOpStats) ModeledSeconds() float64 {
	return s.SetupSeconds + s.TransferInSeconds + s.ComputeSeconds + s.TransferOutSeconds
}

// progPlanLimit bounds each shard's program plans (shard.progs): every
// CompileProgram call mints a new program ID, so without a bound a
// caller that compiles per request would grow the map forever.
const progPlanLimit = 64

// storeProg records program id's execution plan on shard s, evicting
// the shard's oldest plan once it holds progPlanLimit. Program IDs
// start at 1, so an empty ring slot evicts nothing.
func (s *shard) storeProg(id uint64, ex *fusion.Exec) {
	delete(s.progs, s.progRing[s.progNext])
	s.progRing[s.progNext] = id
	s.progNext = (s.progNext + 1) % progPlanLimit
	s.progs[id] = ex
}

// CompileProgram compiles a fused program against this engine's cost
// model under the given method parameters. The compiled program is
// reusable across evaluations and engines sharing the same cost model.
func (e *Engine) CompileProgram(p *fusion.Program, par core.Params) (*fusion.Compiled, error) {
	return fusion.Compile(p, par, e.sys.Config().Cost)
}

// EvaluateProgram evaluates a compiled fused program over the given
// vector inputs and runtime scalars and returns the result (length n,
// or 1 for a scalar-returning program) with its cost report. Safe for
// concurrent use.
func (e *Engine) EvaluateProgram(c *fusion.Compiled, inputs [][]float32, scalars []float32) ([]float32, ProgramStats, error) {
	return e.EvaluateProgramTenant("", c, inputs, scalars)
}

// EvaluateProgramTenant is EvaluateProgram with a tenant tag for
// ledger attribution (the "fused:<program-name>" method rows).
func (e *Engine) EvaluateProgramTenant(tenant string, c *fusion.Compiled, inputs [][]float32, scalars []float32) ([]float32, ProgramStats, error) {
	n, err := c.CheckArgs(inputs, scalars)
	if err != nil {
		return nil, ProgramStats{}, err
	}
	if n > e.cfg.MaxBatch {
		// A fused program's intermediates live on-device for the whole
		// batch; splitting would break reduction semantics, so the batch
		// bound is a hard ceiling here rather than a split point.
		return nil, ProgramStats{}, fmt.Errorf("engine: program batch %d exceeds MaxBatch %d (fused programs are not split)", n, e.cfg.MaxBatch)
	}
	outLen := n
	if c.ScalarResult() {
		outLen = 1
	}
	r := &request{
		prog:     c,
		pinputs:  inputs,
		pscalars: scalars,
		tenant:   tenant,
		outputs:  make([]float32, outLen),
		enqueued: time.Now(),
	}
	r.stats.CacheHit = true
	if err := e.run(r); err != nil {
		return nil, ProgramStats{}, err
	}
	k := e.cfg.DPUs / e.cfg.Shards
	st := ProgramStats{RequestStats: r.stats}
	st.FusedBytes = c.FusedBytes(n, k)
	st.PerOpBytes = c.PerOpBytes(n, k)
	st.SavedBytes = st.PerOpBytes - st.FusedBytes
	sc := e.sys.Config()
	st.SavedTransferSeconds = c.SavedTransferSeconds(n, k, sc.HostToPIMBandwidth, sc.PIMToHostBandwidth)
	st.SavedTransferCycles = uint64(st.SavedTransferSeconds * sc.ClockHz)
	return r.outputs, st, r.err
}

// EvaluateProgramPerOp evaluates the same program through the per-op
// baseline: every transcendental node goes through the ordinary batch
// path, every vector elementwise and reduction node through a
// single-node mini program — one full host↔PIM round trip per device
// node, with host scalar arithmetic free exactly as in the fused path.
// Outputs are bit-identical to EvaluateProgram.
func (e *Engine) EvaluateProgramPerOp(tenant string, c *fusion.Compiled, inputs [][]float32, scalars []float32) ([]float32, PerOpStats, error) {
	var st PerOpStats
	add := func(rs RequestStats) {
		st.Requests++
		st.KernelCycles += rs.KernelCycles
		st.SetupSeconds += rs.SetupSeconds
		st.TransferInSeconds += rs.TransferInSeconds
		st.ComputeSeconds += rs.ComputeSeconds
		st.TransferOutSeconds += rs.TransferOutSeconds
	}
	out, err := fusion.RunPerOp(c, inputs, scalars,
		func(fn core.Function, xs []float32) ([]float32, error) {
			ys, rs, err := e.EvaluateBatchTenant(tenant, fn, c.Params(), xs)
			if err == nil {
				add(rs)
			}
			return ys, err
		},
		func(mini *fusion.Compiled, ins [][]float32, ss []float32) ([]float32, error) {
			ys, ps, err := e.EvaluateProgramTenant(tenant, mini, ins, ss)
			if err == nil {
				add(ps.RequestStats)
			}
			return ys, err
		})
	if err != nil {
		return nil, PerOpStats{}, err
	}
	st.MovedBytes = c.PerOpBytes(len(inputs[0]), e.cfg.DPUs/e.cfg.Shards)
	return out, st, nil
}

// stageProgramIn is transfer-in for a program batch: charge the
// program's inbound bytes — every input vector rank-padded plus the
// initial scalar broadcasts — in one checked transfer. Programs use
// host staging like ordinary batches: the fused kernels read and write
// host memory while the simulator charges the exact modeled costs.
func (e *Engine) stageProgramIn(s *shard, b *batch) {
	inBytes := b.prog.InBytes(b.n, len(s.dpus))
	e.chargeTransferIn(b, inBytes)
	b.pIn = inBytes
}

// computeProgram is the compute step for a program batch: look up the
// shard's execution plan for the program, or build one on a miss — in
// reference mode on a Reference engine — by resolving every Func node
// through the shard's plans (specOps), then run each phase as one
// shard-wide fused kernel launch with a reduction sync between phases.
// Under fault injection a failed launch retries the whole phase —
// RunLane is idempotent over its bound state — and exhaustion (or a
// failed transfer-in) degrades to the bit-exact host mirror, the same
// last rung as the per-op ladder.
func (e *Engine) computeProgram(s *shard, b *batch) {
	c := b.prog
	r := b.segs[0].req
	if b.tr != nil {
		b.tr.setupStart = time.Now()
	}
	ex := s.progs[c.ID()]
	b.hit = true
	if ex != nil {
		e.met.planHits.Inc()
	} else {
		e.met.planMisses.Inc()
		ex = c.NewExec(len(s.dpus), e.cfg.Reference)
		for i, fn := range c.FuncNodes() {
			ops, hit, setup, err := e.specOps(s, Spec{Fn: fn, Par: c.Params()})
			if err != nil {
				b.hit, b.err = false, err
				if b.tr != nil {
					b.tr.setupEnd = time.Now()
				}
				return
			}
			b.hit = b.hit && hit
			b.setup += setup
			ex.SetOps(i, ops)
		}
		s.storeProg(c.ID(), ex)
	}
	if b.tr != nil {
		b.tr.setupEnd = time.Now()
	}

	var out []float32
	if !c.ScalarResult() {
		out = r.outputs
	}
	ex.Bind(r.pinputs, r.pscalars, out, b.n, b.perDPU)

	if b.tr != nil {
		b.tr.kernStart = time.Now()
	}
	if b.inFailed {
		e.degradeProgram(s, b, ex)
		if b.tr != nil {
			b.tr.kernEnd = time.Now()
		}
		return
	}
	s.ex = ex
	for phi := 0; phi < ex.NumPhases(); phi++ {
		// Each phase is its own launch, labeled so flamegraphs split a
		// fused program's cycles phase by phase.
		stage := phaseStage(phi)
		s.phase = phi
		var launchErr error
		for attempt := uint64(0); ; attempt++ {
			var wall uint64
			wall, launchErr = e.launch(s, b, stage, attempt, s.ids, s.programKernel)
			b.tcomp += float64(wall) / e.sys.Config().ClockHz
			if launchErr == nil {
				break
			}
			var le *pimsim.LaunchError
			if e.inj != nil && errors.As(launchErr, &le) && attempt < maxRetries {
				e.met.launchRetries.Inc()
				b.retries++
				b.tcomp += backoff(attempt + 1)
				continue
			}
			break
		}
		if launchErr != nil {
			var le *pimsim.LaunchError
			if e.inj != nil && errors.As(launchErr, &le) {
				e.degradeProgram(s, b, ex)
			} else {
				b.err = launchErr
			}
			if b.tr != nil {
				b.tr.kernEnd = time.Now()
			}
			return
		}
		// Phase sync: gather the reduction partials, combine on the
		// host, broadcast the scalars the next phases read. These small
		// transfers are never injected with faults — the ladder's
		// retry/degrade rungs guard the bulk transfers and the launches.
		gather, bcast := ex.Sync(phi)
		if gather > 0 {
			b.tout += float64(gather) / e.sys.Config().PIMToHostBandwidth
			b.pOut += gather
		}
		if bcast > 0 {
			b.tin += float64(bcast) / e.sys.Config().HostToPIMBandwidth
			b.pIn += bcast
		}
	}
	if c.ScalarResult() {
		r.outputs[0] = ex.ScalarResult()
	}
	if b.tr != nil {
		b.tr.kernEnd = time.Now()
	}
}

// newProgramKernel builds shard s's program-phase kernel
// (shard.programKernel): the lane on core id runs phase s.phase of the
// bound execution plan s.ex on its own slice of the batch.
func (e *Engine) newProgramKernel(s *shard) func(*pimsim.Ctx, int) error {
	base := s.ids[0]
	return func(ctx *pimsim.Ctx, id int) error {
		ln := id - base
		s.ex.RunLane(ctx, s.phase, ln, s.arena[ln])
		return nil
	}
}

// degradeProgram completes a program batch on the host: the whole
// bound batch re-runs sequentially on the lanes' shadow contexts,
// which charge a throwaway tally, bit-identical to a clean device run
// (the ladder's last rung, extended to programs).
func (e *Engine) degradeProgram(s *shard, b *batch, ex *fusion.Exec) {
	ex.HostEval(s.shadow, s.arena[0])
	if b.prog.ScalarResult() {
		b.segs[0].req.outputs[0] = ex.ScalarResult()
	}
	b.degraded, b.hostEval = true, true
	e.met.degraded.Inc()
}

// drainProgramOut is transfer-out for a program batch: only the result
// vector crosses back (nothing for a scalar result — its value left in
// the final reduction gather), and nothing moves when the host mirror
// produced the outputs.
func (e *Engine) drainProgramOut(s *shard, b *batch) (bytesIn, bytesOut int) {
	if b.err == nil && !b.hostEval {
		ob := b.prog.OutBytes(b.n, len(s.dpus))
		if ob > 0 {
			e.chargeTransferOut(b, ob)
			b.pOut += ob
		}
	}
	return b.pIn, b.pOut
}
