package engine

import (
	"fmt"
	"time"

	"transpimlib/internal/faultsim"
	"transpimlib/internal/telemetry"
)

// RequestStats reports what one EvaluateBatch call cost. Modeled
// quantities are simulator time (PIM cycles, transfer-bandwidth
// seconds); Latency is host wall-clock.
type RequestStats struct {
	// Latency is the wall-clock time from enqueue to completion,
	// including queueing, coalescing and all pipeline stages.
	Latency time.Duration
	// ShardID is the shard that served the request (the last one, for
	// requests split across several batches).
	ShardID int
	// Batches is how many pipeline batches carried the request: 1 for
	// a small request, more when it was split, and shared with other
	// requests when it was coalesced.
	Batches int
	// BatchElements is the total element count of those batches —
	// larger than the request's own length when coalescing packed it
	// with neighbours.
	BatchElements int
	// CacheHit reports whether no batch paid its spec's setup: the
	// engine had already charged it (the Fig.-6 setup cost was
	// skipped), though a shard may still have built its own copy.
	CacheHit bool
	// SetupSeconds is the modeled setup time charged to this request's
	// batches: table generation plus a broadcast to every core of the
	// engine on a cache miss, exactly zero on a hit.
	SetupSeconds float64
	// Per-stage modeled seconds of the batches the request rode in.
	// ComputeSeconds is each batch's kernel critical path: when a hedge
	// relaunches a straggler lane, only the faster of the lane's two
	// runs counts.
	TransferInSeconds  float64
	ComputeSeconds     float64
	TransferOutSeconds float64
	// KernelCycles is the modeled PIM cycle count of those batches:
	// the sum of the wall cycles (slowest core) of every kernel launch
	// they made, including retries and both runs of a hedged lane. It
	// is the quantity the cost ledger, the profiler and the simulator's
	// attributed cycles count.
	KernelCycles uint64
	// TraceID identifies this request's span tree in the engine's
	// trace ring (Engine.TraceLast / /debug/trace). Zero when tracing
	// is disabled.
	TraceID uint64

	// Degraded marks a request whose outputs (in part) came from the
	// recovery ladder's last rung — host-mirror evaluation after
	// retries and remapping were exhausted. The values are bit-exact
	// with a healthy device run; the marker records that the PIM side
	// did not produce them. Only set under fault injection.
	Degraded bool
	// Retries is the launch + transfer retries spent on the request's
	// batches; Remaps/Hedges count its batches that were remapped onto
	// a core subset or had a straggler lane hedged.
	Retries int
	Remaps  int
	Hedges  int
}

// ModeledSeconds returns the total modeled pipeline time of the
// request: transfer-in + compute + transfer-out + any setup.
func (s RequestStats) ModeledSeconds() float64 {
	return s.SetupSeconds + s.TransferInSeconds + s.ComputeSeconds + s.TransferOutSeconds
}

// Stats is the engine-wide accumulated view.
type Stats struct {
	Requests uint64 // EvaluateBatch calls accepted
	Batches  uint64 // pipeline batches dispatched
	Elements uint64 // elements evaluated
	Errors   uint64 // batches that failed
	// RequestErrors counts accepted EvaluateBatch calls that completed
	// with an error — the per-request view of Errors, which counts per
	// batch (one failed batch shared by three coalesced requests is 1
	// batch error but 3 request errors).
	RequestErrors uint64

	// CoalescedBatches counts batches that carried more than one
	// request — the amortization the batcher exists for.
	CoalescedBatches uint64

	// CacheHits/CacheMisses count batches; a miss is the batch that
	// paid its spec's setup, once per spec per engine.
	CacheHits   uint64
	CacheMisses uint64

	// PlanHits/PlanMisses count per-batch plan lookups on the serving
	// shard: a hit reuses the shard's operators (or program plan); a
	// miss builds them on the shard.
	PlanHits   uint64
	PlanMisses uint64

	// SetupSeconds is the total modeled setup time paid (all misses).
	SetupSeconds float64

	// Modeled per-stage totals across all batches.
	TransferInSeconds  float64
	ComputeSeconds     float64
	TransferOutSeconds float64
	KernelCycles       uint64

	BytesIn  uint64 // host→PIM payload bytes (padded, rank-parallel)
	BytesOut uint64 // PIM→host payload bytes

	// QueueDepth is the coalescing-batcher backlog at snapshot time:
	// requests accepted but not yet pulled into a batching round. A
	// point-in-time gauge, not a counter — the cluster router's
	// least-loaded placement reads the same backlog.
	QueueDepth int

	// Reliability counters (all zero unless fault injection is on).
	FaultsInjected   uint64 // faults fired across all classes
	LaunchRetries    uint64 // kernel launch attempts beyond the first
	TransferRetries  uint64 // transfer attempts beyond the first
	LaunchTimeouts   uint64 // launches failed by the straggler cutoff
	Remaps           uint64 // batches remapped onto a healthy core subset
	Hedges           uint64 // straggler lanes relaunched
	DegradedBatches  uint64 // batches completed on the host mirror
	TableCorruptions uint64 // checksum mismatches found by scrubbing
	TableRepairs     uint64 // table regions rewritten from golden copies
	QuarantinedDPUs  uint64 // cores currently quarantined
}

// metrics is the atomic-counter accumulator behind Stats, registered
// on the engine's telemetry registry so the same numbers serve both
// the Stats() API and the /metrics Prometheus exposition. Every hot
// update is a single atomic op (the old statsCollector serialized
// every batch completion on one mutex).
type metrics struct {
	requests      *telemetry.Counter
	requestErrors *telemetry.Counter
	batches       *telemetry.Counter
	batchErrors   *telemetry.Counter
	elements      *telemetry.Counter
	coalesced     *telemetry.Counter
	cacheHits     *telemetry.Counter
	cacheMisses   *telemetry.Counter
	planHits      *telemetry.Counter
	planMisses    *telemetry.Counter

	setupSeconds *telemetry.FloatCounter
	tinSeconds   *telemetry.FloatCounter
	tcompSeconds *telemetry.FloatCounter
	toutSeconds  *telemetry.FloatCounter

	kernelCycles *telemetry.Counter
	bytesIn      *telemetry.Counter
	bytesOut     *telemetry.Counter

	// Reliability series (registered unconditionally; they only move
	// when fault injection is on).
	faults          [faultsim.NumClasses]*telemetry.Counter
	launchRetries   *telemetry.Counter
	transferRetries *telemetry.Counter
	timeouts        *telemetry.Counter
	remaps          *telemetry.Counter
	hedges          *telemetry.Counter
	degraded        *telemetry.Counter
	corruptions     *telemetry.Counter
	repairs         *telemetry.Counter
	quarantined     *telemetry.Gauge

	cachedSpecs *telemetry.Gauge
	queueDepth  *telemetry.Gauge

	latency    *telemetry.Histogram
	batchElems *telemetry.Histogram

	// Per-shard attribution: who is the straggler, which shard's
	// tables are cold, where the bytes went.
	shard []shardMetrics
}

type shardMetrics struct {
	batches      *telemetry.Counter
	kernelCycles *telemetry.Counter
	bytesIn      *telemetry.Counter
	bytesOut     *telemetry.Counter
	cacheHits    *telemetry.Counter
	cacheMisses  *telemetry.Counter
}

func newMetrics(reg *telemetry.Registry, shards int) *metrics {
	m := &metrics{
		requests:      reg.Counter("engine_requests_total", "EvaluateBatch calls accepted into the pipeline"),
		requestErrors: reg.Counter("engine_request_errors_total", "accepted requests that completed with an error"),
		batches:       reg.Counter("engine_batches_total", "pipeline batches dispatched"),
		batchErrors:   reg.Counter("engine_batch_errors_total", "pipeline batches that failed"),
		elements:      reg.Counter("engine_elements_total", "elements evaluated"),
		coalesced:     reg.Counter("engine_coalesced_batches_total", "batches carrying more than one request"),
		cacheHits:     reg.Counter("engine_cache_hits_total", "batches whose spec's setup was already paid"),
		cacheMisses:   reg.Counter("engine_cache_misses_total", "batches that paid their spec's setup, once per spec"),
		planHits:      reg.Counter("engine_plan_hits_total", "batches served by a compiled batch plan"),
		planMisses:    reg.Counter("engine_plan_misses_total", "batches that compiled or recompiled their plan"),
		setupSeconds:  reg.FloatCounter("engine_setup_seconds_total", "modeled table generation + broadcast seconds"),
		tinSeconds:    reg.FloatCounter("engine_transfer_in_seconds_total", "modeled host-to-PIM transfer seconds"),
		tcompSeconds:  reg.FloatCounter("engine_compute_seconds_total", "modeled kernel seconds (slowest core per batch)"),
		toutSeconds:   reg.FloatCounter("engine_transfer_out_seconds_total", "modeled PIM-to-host transfer seconds"),
		kernelCycles:  reg.Counter("engine_kernel_cycles_total", "modeled kernel cycles (slowest core per batch)"),
		bytesIn:       reg.Counter("engine_bytes_in_total", "host-to-PIM payload bytes (padded, rank-parallel)"),
		bytesOut:      reg.Counter("engine_bytes_out_total", "PIM-to-host payload bytes"),
		cachedSpecs:   reg.Gauge("engine_cached_specs", "configurations whose setup has been paid"),
		queueDepth:    reg.Gauge("engine_queue_depth", "requests waiting in the submit queue"),
		latency:       reg.Histogram("engine_request_latency_seconds", "wall-clock request latency", telemetry.LatencyBuckets()),
		batchElems:    reg.Histogram("engine_batch_elements", "elements per dispatched batch", telemetry.SizeBuckets()),

		launchRetries:   reg.Counter("engine_launch_retries_total", "kernel launch attempts beyond the first"),
		transferRetries: reg.Counter("engine_transfer_retries_total", "host-PIM transfer attempts beyond the first"),
		timeouts:        reg.Counter("engine_launch_timeouts_total", "launches failed by the modeled straggler cutoff"),
		remaps:          reg.Counter("engine_remaps_total", "batches remapped onto a healthy core subset"),
		hedges:          reg.Counter("engine_hedges_total", "straggler lanes relaunched"),
		degraded:        reg.Counter("engine_degraded_total", "batches completed on the bit-exact host mirror"),
		corruptions:     reg.Counter("engine_table_corruptions_total", "table checksum mismatches found by scrubbing"),
		repairs:         reg.Counter("engine_table_repairs_total", "table regions rewritten from golden copies"),
		quarantined:     reg.Gauge("engine_quarantined_dpus", "cores currently quarantined by the health tracker"),
	}
	for c := 0; c < faultsim.NumClasses; c++ {
		lb := fmt.Sprintf("{class=%q}", faultsim.Class(c).String())
		m.faults[c] = reg.Counter("engine_faults_injected_total"+lb, "injected faults fired, by class")
	}
	for s := 0; s < shards; s++ {
		lb := fmt.Sprintf("{shard=%q}", fmt.Sprint(s))
		m.shard = append(m.shard, shardMetrics{
			batches:      reg.Counter("engine_shard_batches_total"+lb, "batches served per shard"),
			kernelCycles: reg.Counter("engine_shard_kernel_cycles_total"+lb, "modeled kernel cycles per shard"),
			bytesIn:      reg.Counter("engine_shard_bytes_in_total"+lb, "host-to-PIM bytes per shard"),
			bytesOut:     reg.Counter("engine_shard_bytes_out_total"+lb, "PIM-to-host bytes per shard"),
			cacheHits:    reg.Counter("engine_shard_cache_hits_total"+lb, "setup-cache hits per shard"),
			cacheMisses:  reg.Counter("engine_shard_cache_misses_total"+lb, "setup-cache misses per shard"),
		})
	}
	return m
}

// addBatch accounts one drained batch. bytesIn/bytesOut are zero for
// failed batches.
func (m *metrics) addBatch(b *batch, shardID, bytesIn, bytesOut int) {
	m.batches.Inc()
	m.elements.Add(uint64(b.n))
	m.batchElems.Observe(float64(b.n))
	if len(b.segs) > 1 {
		m.coalesced.Inc()
	}
	if b.err != nil {
		m.batchErrors.Inc()
	}
	if b.hit {
		m.cacheHits.Inc()
	} else {
		m.cacheMisses.Inc()
	}
	m.setupSeconds.Add(b.setup)
	m.tinSeconds.Add(b.tin)
	m.tcompSeconds.Add(b.tcomp)
	m.toutSeconds.Add(b.tout)
	m.kernelCycles.Add(b.cycles)
	m.bytesIn.Add(uint64(bytesIn))
	m.bytesOut.Add(uint64(bytesOut))
	if shardID >= 0 && shardID < len(m.shard) {
		sm := &m.shard[shardID]
		sm.batches.Inc()
		sm.kernelCycles.Add(b.cycles)
		sm.bytesIn.Add(uint64(bytesIn))
		sm.bytesOut.Add(uint64(bytesOut))
		if b.hit {
			sm.cacheHits.Inc()
		} else {
			sm.cacheMisses.Inc()
		}
	}
}

// snapshot assembles the Stats view from the individual atomics. Each
// field load is atomic; the struct as a whole is not a consistent cut
// under concurrent traffic — the standard metrics contract, and the
// price of taking no lock on the batch path.
func (m *metrics) snapshot() Stats {
	return Stats{
		Requests:           m.requests.Load(),
		Batches:            m.batches.Load(),
		Elements:           m.elements.Load(),
		Errors:             m.batchErrors.Load(),
		RequestErrors:      m.requestErrors.Load(),
		CoalescedBatches:   m.coalesced.Load(),
		CacheHits:          m.cacheHits.Load(),
		CacheMisses:        m.cacheMisses.Load(),
		PlanHits:           m.planHits.Load(),
		PlanMisses:         m.planMisses.Load(),
		SetupSeconds:       m.setupSeconds.Load(),
		TransferInSeconds:  m.tinSeconds.Load(),
		ComputeSeconds:     m.tcompSeconds.Load(),
		TransferOutSeconds: m.toutSeconds.Load(),
		KernelCycles:       m.kernelCycles.Load(),
		BytesIn:            m.bytesIn.Load(),
		BytesOut:           m.bytesOut.Load(),

		FaultsInjected:   m.faultsTotal(),
		LaunchRetries:    m.launchRetries.Load(),
		TransferRetries:  m.transferRetries.Load(),
		LaunchTimeouts:   m.timeouts.Load(),
		Remaps:           m.remaps.Load(),
		Hedges:           m.hedges.Load(),
		DegradedBatches:  m.degraded.Load(),
		TableCorruptions: m.corruptions.Load(),
		TableRepairs:     m.repairs.Load(),
		QuarantinedDPUs:  uint64(m.quarantined.Load()),
	}
}

func (m *metrics) faultsTotal() uint64 {
	var n uint64
	for _, c := range m.faults {
		n += c.Load()
	}
	return n
}
