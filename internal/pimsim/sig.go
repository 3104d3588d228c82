package pimsim

// CostSig is the recorded cost of one straight-line trace through a
// device kernel: per-class operation and cycle counts plus the DMA-
// engine busy cycles the trace incurred. Batch evaluators charge a
// signature n times in one call instead of replaying n × per-op
// charges, with bit-identical accounting.
type CostSig struct {
	Ops Counters // per-class ops and cycles; the issue cycles are Ops.TotalCycles()
	DMA uint64   // DMA-engine busy cycles
}

// NewSigRecorder returns a Ctx on a throwaway core used purely to
// record cost signatures: run a representative trace through it, then
// harvest with TakeSig. Its memories start empty, so table loads read
// zeros — harmless for cost recording because charge sequences on the
// supported kernels depend only on the input operand, never on loaded
// table values.
func NewSigRecorder(model CostModel) *Ctx {
	return NewDPU(-1, model, DefaultTasklets).NewCtx()
}

// ShadowCtx returns a Ctx that reads and writes d's memories but
// charges a throwaway core's accounting: a host-side replay of a
// kernel built on d (the recovery ladder's degraded path) reads d's
// tables without charging d. Its charges are never read.
func (d *DPU) ShadowCtx() *Ctx {
	return (&DPU{ID: d.ID, MRAM: d.MRAM, WRAM: d.WRAM, model: d.model, tasklets: d.tasklets}).NewCtx()
}

// TakeSig snapshots everything charged on the context's core since the
// last TakeSig (or creation) as a CostSig and resets the accounting.
func (c *Ctx) TakeSig() CostSig {
	s := CostSig{Ops: c.d.fold(), DMA: c.d.dmaCycles}
	c.d.ResetCycles()
	return s
}

// ChargeOps bulk-merges pre-aggregated per-class counts into the
// core's accounting, exactly as if each op had been charged
// individually.
func (c *Ctx) ChargeOps(ops Counters) { c.d.bulk.Add(&ops) }

// ChargeSig charges a recorded signature n times in one step.
func (c *Ctx) ChargeSig(sig *CostSig, n uint64) {
	if n == 0 {
		return
	}
	cnt := &c.d.bulk
	for i := range cnt.Ops {
		cnt.Ops[i] += sig.Ops.Ops[i] * n
		cnt.Cycles[i] += sig.Ops.Cycles[i] * n
	}
	c.d.dmaCycles += sig.DMA * n
}
