package engine

import (
	"errors"
	"time"

	"transpimlib/internal/core"
	"transpimlib/internal/faultsim"
	"transpimlib/internal/pimsim"
)

// This file is the engine's batch compute path and the recovery ladder
// it walks: launch retries with modeled exponential backoff,
// health-driven shard remapping onto the surviving cores, optional
// hedged relaunches for stragglers, MRAM table scrubbing with checksum
// repair, and — when everything else is exhausted — graceful
// degradation onto the bit-exact host mirrors. Only Config.Faults
// (e.inj != nil) can make a launch or transfer fail, so without it no
// rung past the first launch runs.

// engineFaultAgent adapts the faultsim injector to the simulator's
// launch-time FaultAgent hook, counting injected faults into the engine
// metrics. It keeps faultsim free of pimsim imports.
type engineFaultAgent struct {
	inj *faultsim.Injector
	met *metrics
}

func (a *engineFaultAgent) Launch(seq, attempt uint64, lane int) pimsim.LaunchVerdict {
	fail, slow := a.inj.LaunchDecision(seq, uint64(lane), attempt)
	if fail {
		a.met.faults[faultsim.DPUFail].Inc()
		return pimsim.LaunchVerdict{Fail: true}
	}
	if slow > 1 {
		a.met.faults[faultsim.DPUSlow].Inc()
		return pimsim.LaunchVerdict{SlowFactor: slow}
	}
	return pimsim.LaunchVerdict{}
}

// transferFault reports whether the injector fails attempt of batch
// seq's transfer in direction c (TransferIn or TransferOut), counting
// the fault. Without a fault plan no transfer fails.
func (e *Engine) transferFault(c faultsim.Class, seq, attempt uint64) bool {
	if e.inj == nil || !e.inj.TransferDecision(c, seq, attempt) {
		return false
	}
	e.met.faults[c].Inc()
	return true
}

// chargeTransferIn books a rank-parallel host→PIM transfer of padded
// bytes into the batch's transfer-in seconds, with bounded retry under
// injected transfer faults: every attempt (failed ones included) costs
// the transfer time, each retry adds the modeled backoff. Exhaustion
// marks the batch so the compute path degrades it to the host mirror —
// the inputs are still in host staging, so no result is lost.
func (e *Engine) chargeTransferIn(b *batch, padded int) {
	bw := e.sys.Config().HostToPIMBandwidth
	for attempt := uint64(0); ; attempt++ {
		b.tin += float64(padded) / bw
		if !e.transferFault(faultsim.TransferIn, b.seq, attempt) {
			return
		}
		e.met.transferRetries.Inc()
		if attempt >= maxRetries {
			b.inFailed = true
			return
		}
		b.retries++
		b.tin += backoff(attempt + 1)
	}
}

// chargeTransferOut mirrors chargeTransferIn for PIM→host. On
// exhaustion the results — already gathered into host staging and
// bit-exact by construction — stand in for a host-mirror re-evaluation
// and the batch is marked degraded.
func (e *Engine) chargeTransferOut(b *batch, padded int) {
	bw := e.sys.Config().PIMToHostBandwidth
	for attempt := uint64(0); ; attempt++ {
		b.tout += float64(padded) / bw
		if !e.transferFault(faultsim.TransferOut, b.seq, attempt) {
			return
		}
		e.met.transferRetries.Inc()
		if attempt >= maxRetries {
			if !b.degraded {
				b.degraded = true
				e.met.degraded.Inc()
			}
			return
		}
		b.retries++
		b.tout += backoff(attempt + 1)
	}
}

// fnv1a is the per-lane table checksum (FNV-1a 64).
func fnv1a(p []byte) uint64 {
	h := uint64(0xCBF29CE484222325)
	for _, b := range p {
		h = (h ^ uint64(b)) * 0x1099511628211
	}
	return h
}

// captureGolden refreshes each lane's golden table image — the MRAM
// region below the allocation brk, i.e. every table resident on the
// core — whenever a build grew it. The golden copy plus its checksum
// are the scrub reference.
func (e *Engine) captureGolden(s *shard) {
	for k, d := range s.dpus {
		end := d.MRAM.Used()
		if end == s.goldenEnd[k] {
			continue
		}
		if cap(s.golden[k]) < end {
			s.golden[k] = make([]byte, end)
		}
		s.golden[k] = s.golden[k][:end]
		d.MRAM.Read(0, s.golden[k])
		s.goldenSum[k] = fnv1a(s.golden[k])
		s.goldenEnd[k] = end
	}
}

// flipAndRepair injects this batch's scheduled MRAM bit-flips into the
// lanes' table regions, then scrubs every lane: a checksum mismatch
// rewrites the golden image, charged into the batch's setup time as a
// serial host→PIM re-stage — one bank's rewrite is not rank-parallel
// (§2.1). Tables are verified-clean when it returns, so kernels and
// mirror-nil fallbacks never read corrupted entries.
func (e *Engine) flipAndRepair(s *shard, b *batch) {
	bw := e.sys.Config().SerialBandwidth
	for k, d := range s.dpus {
		region := s.golden[k]
		if off, bit, ok := e.inj.FlipBit(b.seq, uint64(k), len(region)); ok {
			e.met.faults[faultsim.BitFlip].Inc()
			var one [1]byte
			d.MRAM.Read(off, one[:])
			one[0] ^= 1 << bit
			d.MRAM.Write(off, one[:])
		}
		if len(region) == 0 {
			continue
		}
		if cap(s.scratch) < len(region) {
			s.scratch = make([]byte, len(region))
		}
		cur := s.scratch[:len(region)]
		d.MRAM.Read(0, cur)
		if fnv1a(cur) == s.goldenSum[k] {
			continue
		}
		e.met.corruptions.Inc()
		d.MRAM.Write(0, region)
		b.setup += float64(len(region)) / bw
		e.met.repairs.Inc()
	}
}

// healthyLanes returns the shard-local indices of the cores allowed to
// serve seq (probation re-admissions happen inside Available). Without
// fault injection there is no health tracker and every core serves.
func (e *Engine) healthyLanes(s *shard, seq uint64) []int {
	lanes := s.lanesScratch[:0]
	for k, id := range s.ids {
		if e.health == nil || e.health.Available(id, seq) {
			lanes = append(lanes, k)
		}
	}
	s.lanesScratch = lanes
	return lanes
}

// computeBatch is the compute step for an ordinary batch: resolve the
// spec's operators, scrub the tables when bit-flips are injected, then
// launch the streamed kernel on the shard's healthy lanes and walk the
// recovery ladder — retry (fresh injector draws per attempt), remap
// onto healthy lanes, hedge stragglers, and finally degrade to the host
// mirror. Without a fault plan every lane is healthy and no launch
// fails or times out, so the first launch is the only rung that runs.
func (e *Engine) computeBatch(s *shard, b *batch) {
	if b.tr != nil {
		b.tr.setupStart = time.Now()
	}
	ops, err := e.batchOps(s, b)
	if b.tr != nil {
		b.tr.setupEnd = time.Now()
	}
	if err != nil {
		b.err = err
		return
	}

	if b.tr != nil {
		b.tr.kernStart = time.Now()
		defer func() { b.tr.kernEnd = time.Now() }()
	}
	if e.inj != nil && e.inj.Active(faultsim.BitFlip) {
		e.captureGolden(s)
		e.flipAndRepair(s, b)
	}
	if b.inFailed {
		// Transfer-in never delivered the inputs to the cores; host
		// memory still has them.
		e.degradeBatch(s, b, ops)
		return
	}

	minLanes := (b.n + s.capPerDPU - 1) / s.capPerDPU
	staged := -1 // lanes the last charged input layout targets; -1 = the original full layout
	clear(s.failedLane)
	for attempt := uint64(0); ; attempt++ {
		lanes := e.healthyLanes(s, b.seq)
		if len(lanes) < minLanes {
			e.degradeBatch(s, b, ops)
			return
		}
		per := (b.n + len(lanes) - 1) / len(lanes)
		remapped := len(lanes) < len(s.ids)
		if remapped && len(lanes) != staged {
			// Re-send the inputs to the healthy lanes under the
			// remapped ceil(n/len(lanes)) layout.
			padded := per * 4 * len(lanes)
			b.tin += float64(padded) / e.sys.Config().HostToPIMBandwidth
			staged = len(lanes)
			if !b.remapped {
				b.remapped = true
				e.met.remaps.Inc()
			}
		}

		ids := s.launchIDs[:0]
		for i := range s.chunkOf {
			s.chunkOf[i] = -1
		}
		for j, k := range lanes {
			ids = append(ids, s.ids[k])
			s.chunkOf[k] = j
		}
		s.launchIDs = ids

		stage := "kernel"
		if remapped {
			stage = "remap"
		}
		s.cur, s.ops, s.per = b, ops, per
		mx, err := e.launch(s, b, stage, attempt, ids, s.batchKernel)

		// Failed attempts still burned the surviving lanes' cycles:
		// launch charged them to b.cycles, and every exit below charges
		// b.tcomp.
		slowest := 0
		for j := range lanes {
			if s.lanes[j].Cycles > s.lanes[slowest].Cycles {
				slowest = j
			}
		}

		retry := false
		switch {
		case err != nil:
			// Declared here, not at loop scope: errors.As makes le escape,
			// and only a failed launch should pay for its allocation.
			var le *pimsim.LaunchError
			if !errors.As(err, &le) {
				// A genuine kernel error is not recoverable by retry.
				b.tcomp += float64(mx) / e.sys.Config().ClockHz
				b.err = err
				return
			}
			for _, p := range le.Lanes {
				s.failedLane[lanes[p]] = true
				e.health.RecordFailure(s.ids[lanes[p]], b.seq)
			}
			retry = true
		case e.rel.LaunchTimeout > 0 && float64(mx)/e.sys.Config().ClockHz > e.rel.LaunchTimeout:
			e.met.timeouts.Inc()
			s.failedLane[lanes[slowest]] = true
			e.health.RecordFailure(s.ids[lanes[slowest]], b.seq)
			retry = true
		}

		if retry {
			b.tcomp += float64(mx) / e.sys.Config().ClockHz
			e.met.quarantined.Set(int64(e.health.QuarantinedCount()))
			if attempt >= maxRetries {
				e.degradeBatch(s, b, ops)
				return
			}
			b.retries++
			e.met.launchRetries.Inc()
			b.tcomp += backoff(attempt + 1)
			continue
		}

		crit := e.maybeHedge(s, b, lanes, per, slowest, mx)
		b.tcomp += float64(crit) / e.sys.Config().ClockHz
		if e.health != nil {
			for _, k := range lanes {
				// A lane that failed earlier in this batch keeps its
				// streak: a retry succeeding elsewhere says nothing good
				// about it.
				if !s.failedLane[k] {
					e.health.RecordSuccess(s.ids[k])
				}
			}
			e.met.quarantined.Set(int64(e.health.QuarantinedCount()))
		}
		if b.remapped {
			b.lanes, b.perDPU = len(lanes), per
		}
		return
	}
}

// newBatchKernel builds shard s's batch kernel (shard.batchKernel): the
// lane on core id serves chunk s.chunkOf[id−base] of the batch s.cur,
// s.per elements per chunk, under its operator s.ops[id−base].
func (e *Engine) newBatchKernel(s *shard) func(*pimsim.Ctx, int) error {
	base := s.ids[0]
	return func(ctx *pimsim.Ctx, id int) error {
		ln := id - base
		j, per := s.chunkOf[ln], s.per
		if count := min(s.cur.n-j*per, per); count > 0 {
			e.computeLane(ctx, s, s.cur, s.ops[ln], ln, j, per, count)
		}
		return nil
	}
}

// maybeHedge relaunches the slowest lane of a successful launch when
// its cycle delta exceeds HedgeRatio × the lane median, keeping the
// cheaper of the two runs (the kernel is idempotent: the relaunch
// rewrites the same outputs). Both launches count in the batch's
// kernel cycles; the return value is the batch's critical path for
// its compute seconds.
func (e *Engine) maybeHedge(s *shard, b *batch, lanes []int, per, slowest int, mx uint64) uint64 {
	if e.rel.HedgeRatio <= 1 || len(lanes) < 2 {
		return mx
	}
	recs := s.lanes[:len(lanes)]
	med := medianCycles(recs, s.medScratch)
	if med == 0 || float64(recs[slowest].Cycles) < e.rel.HedgeRatio*float64(med) {
		return mx
	}
	if b.n-slowest*per <= 0 {
		return mx // the straggler's chunk is empty
	}
	// The batch's critical path is the slower of the other lanes and
	// the better of the two runs of the straggler's chunk. Read the
	// lanes now: the hedge's launch overwrites s.lanes.
	straggler := recs[slowest].Cycles
	var rest uint64
	for jj := range recs {
		if jj != slowest {
			rest = max(rest, recs[jj].Cycles)
		}
	}
	// A large attempt bias gives the hedge a fresh, independent draw
	// stream that ordinary retries never reach. The shard's batch kernel
	// still holds the launch's layout, so the straggler's core reruns
	// its own chunk.
	k := lanes[slowest]
	hedged, err := e.launch(s, b, "hedge", maxRetries+1000, s.ids[k:k+1], s.batchKernel)
	e.met.hedges.Inc()
	b.hedged = true
	if err != nil {
		// The hedge itself failed; the original run's outputs stand.
		return mx
	}
	return max(rest, min(straggler, hedged))
}

// medianCycles computes the lower median of the lanes' cycles using
// scratch for the sort (insertion sort: lane counts are small). Lower
// median so a single straggler among few lanes cannot drag the
// reference up to itself and mask the comparison.
func medianCycles(lanes []pimsim.CoreProfile, scratch []uint64) uint64 {
	sc := scratch[:0]
	for i := range lanes {
		sc = append(sc, lanes[i].Cycles)
	}
	for i := 1; i < len(sc); i++ {
		for j := i; j > 0 && sc[j] < sc[j-1]; j-- {
			sc[j], sc[j-1] = sc[j-1], sc[j]
		}
	}
	return sc[(len(sc)-1)/2]
}

// degradeBatch is the ladder's last rung: evaluate the batch on the
// host through lane 0's operator — its host kernel, bit-exact with the
// device by the differential contract, or without one (WideRange trig,
// and every operator of a Reference engine) its interpreted path
// reading lane 0's tables — on lane 0's shadow context, so no device
// cycles are accounted. Results land directly in the batch's host
// output vector and the batch is marked degraded.
func (e *Engine) degradeBatch(s *shard, b *batch, ops []*core.Operator) {
	xs, ys := s.vectors(b)
	ops[0].EvalBatchWith(s.shadow[0], xs, ys, s.arena[0])
	b.degraded, b.hostEval = true, true
	e.met.degraded.Inc()
}

// computeLane runs one lane's share of a batch: the streamed kernel of
// Fig. 3(a) — input DMA, per-element evaluation, output DMA — on
// serving lane ln (its operator and scratch) over batch chunk j, the
// count elements from j·per. An ordinary launch has ln == j; remapped
// and hedged launches decouple them. The lane evaluates the batch's
// host vectors through its operator's EvalBatchWith — the host kernel,
// or the per-element interpreted loop for an operator without one
// (WideRange trig, and every operator of a Reference engine) — and
// bulk-charges the per-element streaming overhead; a recorded signature
// charged count times equals count per-element charges, so accounting
// is identical either way. Allocation-free in steady state.
func (e *Engine) computeLane(ctx *pimsim.Ctx, s *shard, b *batch, op *core.Operator, ln, j, per, count int) {
	xs, ys := s.vectors(b)
	lo := j * per
	ctx.Charge(4)
	ctx.ChargeDMA(count * 4)
	op.EvalBatchWith(ctx, xs[lo:lo+count], ys[lo:lo+count], s.arena[ln])
	ctx.ChargeSig(&e.streamSig, uint64(count))
	ctx.ChargeDMA(count * 4)
}

// FaultEvents returns the canonical injected-fault log (nil when
// injection is disabled). For a single-shard engine fed sequentially,
// re-running the same workload under the same plan reproduces the log
// byte for byte; with concurrent shards the retry attempt counts can
// depend on batch routing.
func (e *Engine) FaultEvents() []faultsim.Event {
	if e.inj == nil {
		return nil
	}
	return e.inj.Events()
}

// Health returns the per-DPU health scoreboard (nil when fault
// injection is disabled).
func (e *Engine) Health() []LaneHealth {
	if e.health == nil {
		return nil
	}
	return e.health.Snapshot()
}
