package engine

import (
	"transpimlib/internal/core"
	"transpimlib/internal/telemetry"
)

// MethodLabel renders method parameters the way tplrepro keys
// them — "l-lut(i)" for the interpolated variant — so cost-ledger rows,
// online accuracy series and offline reports all key identically.
func MethodLabel(p core.Params) string { return methodLabel(p) }

// Ledger returns a snapshot of the per-tenant cost ledger; empty when
// Config.Ledger is off.
func (e *Engine) Ledger() telemetry.LedgerSnapshot { return e.led.Snapshot() }

// chargeLedger attributes one drained batch to the (tenant, function,
// method) rows of the requests it carried. Each segment's kernel
// cycles are the sum of the shares Engine.launch gave it from each of
// the batch's launches — the shares the profiler took — so the
// ledger's cycle column reconciles ±0 against the profiler and the
// simulator's attributed cycles. Transfer bytes are split by the same
// prefix rule, once per batch:
// segment i takes total·cum_i/n − total·cum_{i−1}/n, so the shares
// always sum to the batch total. Runs on the shard's owner after the
// batch's compute, where every batch field is quiescent.
func (e *Engine) chargeLedger(b *batch, bytesIn, bytesOut int) {
	fn := b.spec.Fn.String()
	method := methodLabel(b.spec.Par)
	if b.prog != nil {
		// Fused programs get their own method-label convention so their
		// rows don't collapse into tpltop's overflow bucket: the
		// function column reads "program" and the method column carries
		// the program's name.
		fn, method = "program", b.prog.Method()
	}
	n := uint64(b.n)
	modeled := b.setup + b.tin + b.tcomp + b.tout
	var cum, binPrev, boutPrev uint64
	for _, sg := range b.segs {
		cum += uint64(sg.n)
		bin := uint64(bytesIn) * cum / n
		bout := uint64(bytesOut) * cum / n
		e.led.Add(telemetry.LedgerKey{
			Tenant:   sg.req.tenant,
			Function: fn,
			Method:   method,
		}, telemetry.LedgerEntry{
			Elements:       uint64(sg.n),
			KernelCycles:   sg.cycles,
			BytesIn:        bin - binPrev,
			BytesOut:       bout - boutPrev,
			ModeledSeconds: modeled * float64(sg.n) / float64(b.n),
		})
		binPrev, boutPrev = bin, bout
	}
}
