package engine

import (
	"sync"
	"time"

	"transpimlib/internal/fusion"
	"transpimlib/internal/telemetry"
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
	done     chan struct{}

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

	// sloBreached is set by the drain stage's shadow-sampling hook
	// when this request's samples closed a window that failed an
	// accuracy SLO; buildTrace annotates the root span with it. The
	// request is quiescent when it is written (see finishRequest).
	sloBreached bool

	// batchTraces collects the stage stamps of every batch the request
	// rode in, in completion order; nil unless tracing is enabled.
	batchTraces []batchRef

	// extID, when nonzero, is an externally minted trace ID (the
	// cluster router's) that replaces the tracer's own; wantTrace asks
	// finishRequest to store the assembled span tree in trace before
	// releasing the caller (see EvaluateBatchTraced). Both are written
	// before submit and read only after the request is quiescent.
	extID     uint64
	wantTrace bool
	trace     *telemetry.Trace
}

// batchRef pairs a drained batch with its wall-clock stage stamps for
// trace assembly.
type batchRef struct {
	b  *batch
	tr *batchTrace
}

// complete records one drained batch against the request. It reports
// whether this was the request's last outstanding segment; the caller
// (the drain stage) finishes the request — latency observation, trace
// assembly, closing done — outside the lock.
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
		r.batchTraces = append(r.batchTraces, batchRef{b: b, tr: b.tr})
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

// batch is the pipeline's unit of work: same-spec segments coalesced
// up to MaxBatch elements, dispatched to one shard, and carried
// through transfer-in → compute → transfer-out.
type batch struct {
	spec Spec
	segs []seg
	n    int // total elements

	// seq is the batch's dispatch sequence number — the deterministic
	// clock fault-injection decisions key on. Assigned by the batcher.
	seq uint64

	// Set by the pipeline stages.
	slot   int     // shard buffer slot held while in flight
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

	// tr holds the wall-clock stage stamps when tracing is enabled;
	// nil otherwise, so the disabled path skips every time.Now call.
	tr *batchTrace
}

// batchPool recycles drained batches (and their segment slices) so the
// steady-state pipeline allocates nothing per batch. Traced batches
// are retained by request span trees and bypass the pool.
var batchPool = sync.Pool{New: func() any { return new(batch) }}

// newBatch takes a recycled batch from the pool, reset for spec but
// keeping its segment slice capacity.
func newBatch(spec Spec) *batch {
	b := batchPool.Get().(*batch)
	segs := b.segs[:0]
	*b = batch{spec: spec, segs: segs}
	return b
}

// releaseBatch returns a fully drained batch to the pool. Batches with
// trace stamps are kept alive by their requests' traces and must not
// be recycled.
func releaseBatch(b *batch) {
	if b.tr != nil {
		return
	}
	batchPool.Put(b)
}

// planBatches packs same-spec requests into batches of at most
// maxBatch elements, splitting oversized requests across several
// batches, and records each request's outstanding segment count. Pure
// packing logic, separated from the batcher goroutine for testing.
func planBatches(spec Spec, reqs []*request, maxBatch int) []*batch {
	var out []*batch
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
