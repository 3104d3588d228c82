package pimsim

// CoreProfile is one PIM core's accounting delta over a single
// kernel launch, as Crew.Launch measures it: issue and DMA cycles,
// the modeled cycles ClosedFormCycles makes of them, and the
// per-instruction-class operation and cycle counters — the same
// decomposition as the paper's Fig. 7 per-method cycle breakdowns
// (mul vs. shift vs. load vs. branch), but captured per core per
// launch on a live system.
type CoreProfile struct {
	DPU         int
	Tasklets    int
	IssueCycles uint64 // pipeline-issue cycles charged
	DMACycles   uint64 // DMA-engine busy cycles
	Cycles      uint64 // ClosedFormCycles(IssueCycles, DMACycles, Tasklets)
	Counters    Counters
}
