package engine

import (
	"sync"
	"time"

	"transpimlib/internal/fusion"
)

// request is one in-flight EvaluateBatch call. A request may be split
// into several batches (when larger than MaxBatch) and may share a
// batch with other requests (when coalesced); it completes when its
// last segment drains.
type request struct {
	spec Spec
	// tenant attributes the request's shadow samples to a
	// per-(function, method, tenant) accuracy series; "" is the
	// anonymous series. It does not affect batching or results.
	tenant   string
	inputs   []float32
	outputs  []float32
	enqueued time.Time
	// done is closed when a queued request completes; nil for a
	// request its caller runs (Engine.run).
	done chan struct{}

	// Fused-program request fields (program.go): prog is the compiled
	// program and pinputs/pscalars its bound arguments; spec/inputs are
	// unused when prog is set. outputs holds the program result (the
	// batch size, or 1 for a scalar-returning program).
	prog     *fusion.Compiled
	pinputs  [][]float32
	pscalars []float32

	mu        sync.Mutex
	remaining int // segments not yet drained
	err       error
	stats     RequestStats

	// rec is the request's trace record, created when its first traced
	// batch drains (see record); nil unless tracing is enabled.
	// finishRequest completes and publishes it.
	rec *reqRecord

	// extID, when nonzero, is an externally minted trace ID (the
	// cluster router's) that replaces the tracer's own (see
	// EvaluateBatchTraced). It is written before submit and read only
	// after the request is quiescent.
	extID uint64
}

// size is the request's element count: its input length, or a fused
// program's batch size.
func (r *request) size() int {
	if r.prog != nil {
		return len(r.pinputs[0])
	}
	return len(r.inputs)
}

// complete records one drained batch against the request. It reports
// whether this was the request's last outstanding segment; the caller
// (the shard's owner that drained it) finishes the request — latency
// observation, trace assembly, closing done — outside the lock.
func (r *request) complete(b *batch, shardID int) (last bool) {
	r.mu.Lock()
	if b.err != nil && r.err == nil {
		r.err = b.err
	}
	r.stats.ShardID = shardID
	r.stats.Batches++
	r.stats.BatchElements += b.n
	if !b.hit {
		r.stats.CacheHit = false
	}
	r.stats.SetupSeconds += b.setup
	r.stats.TransferInSeconds += b.tin
	r.stats.ComputeSeconds += b.tcomp
	r.stats.TransferOutSeconds += b.tout
	r.stats.KernelCycles += b.cycles
	if b.degraded {
		r.stats.Degraded = true
	}
	r.stats.Retries += b.retries
	if b.remapped {
		r.stats.Remaps++
	}
	if b.hedged {
		r.stats.Hedges++
	}
	if b.tr != nil {
		r.record(b)
	}
	r.remaining--
	last = r.remaining == 0
	if last {
		r.stats.Latency = time.Since(r.enqueued)
	}
	r.mu.Unlock()
	return last
}

// seg is a contiguous slice of one request packed into a batch.
type seg struct {
	req    *request
	off    int // offset into req.inputs / req.outputs
	n      int
	cycles uint64 // its shares of the batch's launches (Engine.launch)
}

// batch is the engine's unit of work: same-spec segments coalesced up
// to MaxBatch elements, dispatched to one shard, and run there through
// transfer-in → compute → transfer-out.
type batch struct {
	spec Spec
	segs []seg
	n    int // total elements

	// seq is the batch's sequence number — the deterministic clock
	// fault-injection decisions key on (see Engine.number).
	seq uint64

	// Set by the serving shard.
	perDPU int     // elements per core after shard planning (or remapping)
	hit    bool    // tables were resident on the serving shard
	setup  float64 // modeled setup charged (cache miss only)
	tin    float64 // modeled host→PIM seconds
	tcomp  float64 // modeled kernel seconds (critical path)
	tout   float64 // modeled PIM→host seconds
	cycles uint64  // modeled kernel cycles (every launch's slowest core)
	err    error

	// Fused-program batch fields (program.go): prog carries the whole
	// program as one single-segment batch; pIn/pOut accumulate its
	// metered host↔PIM bytes across transfer-in, the phase syncs, and
	// transfer-out (they reconcile exactly against the compiler's
	// analytic byte model).
	prog      *fusion.Compiled
	pIn, pOut int

	// Reliability outcomes (fault injection only; see reliability.go).
	lanes    int  // healthy lanes that served a remapped batch
	retries  int  // launch + transfer retries spent on this batch
	remapped bool // served by a subset of the shard's cores
	hedged   bool // slowest lane relaunched
	degraded bool // completed via the recovery ladder's last rung
	hostEval bool // outputs produced by the host mirror
	inFailed bool // transfer-in exhausted its retries

	// tr points at trace, the wall-clock stage stamps, when tracing is
	// enabled; nil otherwise, so the disabled path skips every
	// time.Now call.
	tr    *batchTrace
	trace batchTrace
}

// batchPool recycles drained batches (and their segment slices) so the
// steady state allocates nothing per batch. A drained batch's
// trace stamps are copied into its requests' records, so traced
// batches are recycled too.
var batchPool = sync.Pool{New: func() any { return new(batch) }}

// newBatch takes a recycled batch from the pool, reset for spec but
// keeping its segment slice capacity.
func newBatch(spec Spec) *batch {
	b := batchPool.Get().(*batch)
	segs := b.segs[:0]
	*b = batch{spec: spec, segs: segs}
	return b
}

// releaseBatch returns a fully drained batch to the pool.
func releaseBatch(b *batch) { batchPool.Put(b) }

// soloBatch puts request r whole into one batch: a fused program,
// which is never split or coalesced, or a request its caller runs.
func soloBatch(r *request) *batch {
	b := newBatch(r.spec)
	b.prog = r.prog
	b.n = r.size()
	b.segs = append(b.segs, seg{req: r, n: b.n})
	r.remaining = 1
	return b
}

// planBatches packs same-spec requests into batches of at most
// maxBatch elements, splitting oversized requests across several
// batches, appends them to out, and records each request's outstanding
// segment count. Pure packing logic, separated from the batcher
// goroutine for testing; the batcher passes a slice it reuses.
func planBatches(out []*batch, spec Spec, reqs []*request, maxBatch int) []*batch {
	b := newBatch(spec)
	for _, r := range reqs {
		segments := 0
		for off := 0; off < len(r.inputs); {
			space := maxBatch - b.n
			if space == 0 {
				out = append(out, b)
				b = newBatch(spec)
				space = maxBatch
			}
			n := len(r.inputs) - off
			if n > space {
				n = space
			}
			b.segs = append(b.segs, seg{req: r, off: off, n: n})
			b.n += n
			off += n
			segments++
		}
		r.mu.Lock()
		r.remaining += segments
		r.mu.Unlock()
	}
	if b.n > 0 {
		out = append(out, b)
	} else {
		releaseBatch(b)
	}
	return out
}

// shardPlan distributes n batch elements over k cores: equal
// ceil(n/k)-element chunks, padded so every bank receives the same
// buffer size and the host↔PIM interface stays in its parallel mode
// (unequal per-bank buffers would degrade to the serial bandwidth,
// §2.1). Returns elements per core and the padded rank-wide byte
// count per direction.
func shardPlan(n, k int) (perDPU, paddedBytes int) {
	perDPU = (n + k - 1) / k
	return perDPU, perDPU * 4 * k
}
