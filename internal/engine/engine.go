// Package engine is a batched, multi-tenant serving runtime on top of
// the PIM simulator — the step from the paper's one-shot
// setup→transfer→launch→retrieve benchmarks (Figs. 5–9) to a
// long-lived inference-style service.
//
// Each shard keeps the operators it has built, one plan per (function,
// method, LUT size, placement), and the engine charges each spec's
// Fig.-6 setup once, so repeated requests skip it entirely (see
// specOps). The engine coalesces concurrent small requests into batches
// and shards each batch across a group of PIM cores with equal-size
// (padded) per-bank buffers, preserving the parallel-transfer
// semantics of §2.1. Like the paper's host program, each shard runs a
// batch to completion — transfer-in, compute, transfer-out — before it
// takes the next; the shards run in parallel, and a full submit queue
// blocks the caller. A lone request on an idle engine skips the queue:
// its caller takes an idle shard and runs the batch itself, as the
// paper's host program does (see Engine.run). Every request reports its
// wall-clock latency plus the modeled per-stage costs; the engine
// accumulates fleet-wide counters.
//
// Concurrency discipline (see pimsim.System): whoever holds a shard's
// lock owns the shard's cores, all their MRAM access (table builds and
// scrubbing) and the crew of lane workers its launches run on — the
// shard's goroutine for a dispatched batch, or a caller running its
// own. Each batch books its own modeled transfer seconds, so shards
// share no transfer clock.
package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"transpimlib/internal/accwatch"
	"transpimlib/internal/core"
	"transpimlib/internal/faultsim"
	"transpimlib/internal/fusion"
	"transpimlib/internal/lut"
	"transpimlib/internal/pimsim"
	"transpimlib/internal/profiler"
	"transpimlib/internal/telemetry"
)

// ErrEngineClosed is returned by submit paths after Close.
var ErrEngineClosed = errors.New("engine: closed")

// Config describes an engine.
type Config struct {
	// DPUs is the total number of simulated PIM cores (default 8).
	DPUs int
	// Shards is the number of independent core groups the cores are
	// divided into; batches are load-balanced across shards. DPUs
	// must be divisible by Shards. Default: 2 when DPUs is even and
	// >1, else 1.
	Shards int
	// MaxBatch is the largest number of elements dispatched as one
	// batch (default 4096). Larger requests are split; smaller
	// concurrent same-spec requests are coalesced up to this bound.
	MaxBatch int
	// BatchWindow is how long the batcher holds the first request of a
	// round to let more arrive and coalesce. Zero (the default) only
	// coalesces requests that are already queued, and lets a request
	// that fits in one batch run on its caller when a shard is idle and
	// nothing waits for one.
	BatchWindow time.Duration
	// TraceDepth retains the span trees of the last N completed
	// requests (Engine.TraceLast, /debug/trace). Zero disables
	// tracing: no stage timestamps are taken and no spans allocated.
	TraceDepth int
	// Profiler enables the continuous modeled-cycle profiler: every
	// kernel launch is attributed to (tenant, function, method,
	// pipeline stage / program phase, instruction class) frames with
	// per-DPU utilization heatmaps, exported at /debug/profile and
	// /debug/heatmap (see internal/profiler). The simulator measures
	// every launch once either way; the profiler reads those records.
	// Disabled (the zero value), no collector is built.
	Profiler profiler.Config
	// Reference builds every operator without its host kernel
	// (core.Operator.DisableFastPath) and every fused-program plan in
	// reference mode, so each lane, retry, hedge and degrade rung
	// evaluates through the per-element interpreted kernel — the escape
	// hatch for differential debugging. Cycle accounting and outputs are
	// bit-identical either way (the contract the differential tests
	// enforce); only host-side wall time differs.
	Reference bool
	// Faults, when non-nil and enabled, installs a deterministic fault
	// injector (see internal/faultsim) and activates the engine's
	// recovery ladder: retry with modeled backoff, health-aware shard
	// remapping, optional hedged launches, and host-mirror degradation.
	// Nil (or a plan that never fires) leaves the pipeline bit-identical
	// to the fault-free engine.
	Faults *faultsim.Plan
	// Reliability tunes the recovery ladder; zero value = defaults.
	// Only consulted when Faults is enabled.
	Reliability ReliabilityConfig
	// Accuracy enables the online accuracy observability layer: a
	// deterministic shadow-sampler re-evaluates a fraction of each
	// request's elements against the float64 host reference and feeds
	// per-(function, method, tenant) error/coverage series with SLO
	// gating (see internal/accwatch). Disabled (the zero value), the
	// serving path is bit-identical to an engine without it — one nil
	// check per completed request, no allocation.
	Accuracy accwatch.Config
	// Ledger enables the per-tenant cost ledger: every drained batch
	// charges its modeled kernel cycles, transfer bytes and elements to
	// the (tenant, function, method) row of the requests it carried,
	// with exact integer partitioning — the ledger's cycle total
	// reconciles ±0 against the simulator's attributed cycles. Disabled
	// (the default), the drain path pays one nil check per batch and
	// the serving path is bit-identical.
	Ledger bool
	// ProcName, when set, names this engine's process lane on every
	// exported trace span tree ("replica/2" under a cluster). Empty,
	// each trace renders in its own per-trace lane.
	ProcName string
}

func (c Config) withDefaults() Config {
	if c.DPUs <= 0 {
		c.DPUs = 8
	}
	if c.Shards <= 0 {
		if c.DPUs > 1 && c.DPUs%2 == 0 {
			c.Shards = 2
		} else {
			c.Shards = 1
		}
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 4096
	}
	return c
}

// shard is one group of cores: a contiguous range that runs one batch
// at a time, for whoever holds mu — its goroutine (serveShard) for a
// dispatched batch, or a caller running its own (Engine.run). The
// fields below mu belong to the holder.
type shard struct {
	mu   sync.Mutex
	id   int
	ids  []int // global core ids (contiguous)
	dpus []*pimsim.DPU
	// crew runs the shard's launches on lane workers started once.
	crew *pimsim.Crew

	capPerDPU int // elements per core

	// inBuf/outBuf are flat host staging buffers in chunk-major order
	// (chunk j owns [j·per, (j+1)·per)), sized capPerDPU·cores: a
	// coalesced batch's segments pack into them with contiguous copies.
	inBuf  []float32
	outBuf []float32
	// arena is per-local-core classifier scratch for the fused batch
	// kernels' SoA lanes, pre-grown to capPerDPU at construction so
	// steady-state batches allocate nothing. Indexed by serving lane,
	// so remapped and hedged launches never share an arena.
	arena []*lut.Scratch
	// lanes receives each launch's per-lane records from the simulator,
	// indexed by position in the launch's core list: the recovery
	// ladder reads their cycles and the profiler their counters. lctx
	// carries the profiler's labels (unused when profiling is off).
	// Both persist so steady-state launches allocate nothing.
	lanes []pimsim.CoreProfile
	lctx  profiler.LaunchContext

	// batchKernel and programKernel are the shard's launch kernels,
	// built once so that a launch allocates nothing (see newBatchKernel
	// and newProgramKernel). They read the batch in flight from cur, ops
	// and per, or ex and phase, which the compute path sets before each
	// launch and runBatch clears after the batch.
	batchKernel, programKernel func(*pimsim.Ctx, int) error
	cur                        *batch
	ops                        []*core.Operator
	per                        int
	ex                         *fusion.Exec
	phase                      int

	// plans holds each spec's operators on this shard's cores, the
	// shard's only record of which tables are resident (see specOps).
	// progs holds each fused program's execution plan, keyed by program
	// ID; progRing lists its keys oldest first, so the map keeps at most
	// progPlanLimit plans (see storeProg). A plan carries per-batch
	// state, but a shard runs one batch at a time. Only the holder of
	// the shard's lock touches these maps.
	plans    map[Spec][]*core.Operator
	progs    map[uint64]*fusion.Exec
	progRing [progPlanLimit]uint64
	progNext int

	// Per-launch lane scratch for computeBatch's recovery ladder.
	lanesScratch []int
	launchIDs    []int
	chunkOf      []int  // local lane -> chunk index in the current launch
	failedLane   []bool // lanes that failed within the current batch
	medScratch   []uint64

	// Fault-injection state, allocated only when injection is on (see
	// reliability.go). shadow[k] is a Ctx on lane k's memories that
	// charges a throwaway tally, for degraded host evaluation; lane k's
	// tables fill its MRAM from address 0, so [0, MRAM.Used()) is the
	// resident-table region that golden/goldenSum scrub against.
	shadow    []*pimsim.Ctx
	goldenEnd []int
	golden    [][]byte
	goldenSum []uint64
	scratch   []byte
}

// Engine is the serving runtime. Create with New, submit with
// EvaluateBatch (safe for concurrent use), and Close when done.
type Engine struct {
	cfg    Config
	sys    *pimsim.System
	shards []*shard

	// charged is the set of specs whose setup has been paid, the only
	// engine-wide setup state (see specOps); chargedMu guards it.
	chargedMu sync.Mutex
	charged   map[Spec]struct{}

	submit   chan *request
	dispatch chan *batch
	// waiting counts the requests and batches on the queued path that
	// no shard has taken yet: a caller runs its own request only while
	// it is zero, so a queued batch never waits behind a later caller.
	waiting atomic.Int64

	mu     sync.RWMutex // guards closed / submit send / a caller taking a shard
	closed bool
	wg     sync.WaitGroup

	tel    *telemetry.Telemetry // registry always present; Tracer nil unless TraceDepth > 0
	met    *metrics
	tracer *telemetry.Tracer // alias of tel.Tracer, nil when tracing is off

	// streamSig is the per-element streaming overhead of the kernel
	// loop (WRAM load + store + loop control), recorded once at
	// construction and bulk-charged by every lane.
	streamSig pimsim.CostSig

	// Reliability subsystem, nil unless Config.Faults enables
	// injection. seq is the batch sequence counter, shared by the
	// batcher and the callers that run their own batch (see number) —
	// the deterministic clock every injection decision keys on.
	inj    *faultsim.Injector
	rel    ReliabilityConfig
	health *HealthTracker
	seq    atomic.Uint64

	// acc is the accuracy watcher, nil unless Config.Accuracy.Enabled
	// — the disabled serving path pays one nil check per request.
	acc *accwatch.Watcher

	// led is the per-tenant cost ledger, nil unless Config.Ledger.
	led *telemetry.Ledger

	// prof is the modeled-cycle profiler's collector, nil unless
	// Config.Profiler.Enabled.
	prof *profiler.Collector
}

// New builds and starts an engine: the PIM system, the per-shard
// staging buffers and lane workers, the batcher, and one goroutine per
// shard.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if cfg.DPUs%cfg.Shards != 0 {
		return nil, fmt.Errorf("engine: %d DPUs not divisible into %d shards", cfg.DPUs, cfg.Shards)
	}
	e := &Engine{
		cfg:      cfg,
		sys:      pimsim.NewSystem(pimsim.Config{DPUs: cfg.DPUs}),
		charged:  make(map[Spec]struct{}),
		submit:   make(chan *request, queueDepth),
		dispatch: make(chan *batch, cfg.Shards),
	}
	reg := telemetry.NewRegistry()
	e.met = newMetrics(reg, cfg.Shards)
	if cfg.TraceDepth > 0 {
		e.tracer = telemetry.NewTracer(cfg.TraceDepth)
	}
	e.tel = &telemetry.Telemetry{Registry: reg, Tracer: e.tracer}
	if cfg.Profiler.Enabled {
		e.prof = profiler.New(cfg.DPUs)
		srcName := cfg.ProcName
		if srcName == "" {
			srcName = "engine"
		}
		sources := func() []profiler.Source {
			return []profiler.Source{{Name: srcName, C: e.prof}}
		}
		e.tel.ProfileHandler = profiler.ProfileHandler(sources)
		e.tel.HeatmapHandler = profiler.HeatmapHandler(sources)
	}
	// One streamed input and one output per element, as in Fig. 3(a).
	e.streamSig = core.RecordStreamSig(e.sys.Config().Cost, 1, 1)

	if cfg.Faults != nil && cfg.Faults.Enabled() {
		e.inj = faultsim.NewInjector(*cfg.Faults)
		e.rel = cfg.Reliability
		e.health = NewHealthTracker(cfg.DPUs, laneProbation)
		e.sys.SetFaultAgent(&engineFaultAgent{inj: e.inj, met: e.met})
	}
	if cfg.Accuracy.Enabled {
		e.acc = accwatch.New(cfg.Accuracy, reg)
		e.tel.AccuracyJSON = func() any { return e.acc.Snapshot() }
	}
	if cfg.Ledger {
		e.led = telemetry.NewLedger(reg)
		e.tel.LedgerJSON = func() any { return e.led.Snapshot() }
	}

	perShard := cfg.DPUs / cfg.Shards
	capPerDPU := (cfg.MaxBatch + perShard - 1) / perShard
	for sID := 0; sID < cfg.Shards; sID++ {
		s := &shard{
			id:        sID,
			capPerDPU: capPerDPU,
			inBuf:     make([]float32, capPerDPU*perShard),
			outBuf:    make([]float32, capPerDPU*perShard),
			lanes:     make([]pimsim.CoreProfile, perShard),
			plans:     make(map[Spec][]*core.Operator),
			progs:     make(map[uint64]*fusion.Exec),

			lanesScratch: make([]int, 0, perShard),
			launchIDs:    make([]int, 0, perShard),
			chunkOf:      make([]int, perShard),
			failedLane:   make([]bool, perShard),
			medScratch:   make([]uint64, 0, perShard),
		}
		for k := 0; k < perShard; k++ {
			id := sID*perShard + k
			s.ids = append(s.ids, id)
			s.dpus = append(s.dpus, e.sys.DPU(id))
			sc := new(lut.Scratch)
			sc.Grow(capPerDPU)
			sc.GrowQ(capPerDPU)
			sc.GrowT(capPerDPU)
			s.arena = append(s.arena, sc)
		}
		s.crew = e.sys.NewCrew(perShard)
		s.batchKernel = e.newBatchKernel(s)
		s.programKernel = e.newProgramKernel(s)
		if e.inj != nil {
			s.goldenEnd = make([]int, perShard)
			s.golden = make([][]byte, perShard)
			s.goldenSum = make([]uint64, perShard)
			for _, d := range s.dpus {
				s.shadow = append(s.shadow, d.ShadowCtx())
			}
		}
		e.shards = append(e.shards, s)
	}
	e.wg.Add(1 + len(e.shards))
	go e.batcher()
	for _, s := range e.shards {
		go e.serveShard(s)
	}
	return e, nil
}

// System exposes the underlying simulated PIM system (for inspection;
// do not launch kernels on it while the engine is serving).
func (e *Engine) System() *pimsim.System { return e.sys }

// Stats returns a snapshot of the engine-wide counters. Individual
// fields are read atomically; the struct is not a consistent cut
// under concurrent traffic.
func (e *Engine) Stats() Stats {
	s := e.met.snapshot()
	s.QueueDepth = len(e.submit)
	return s
}

// QueueDepth returns the current coalescing-batcher backlog: requests
// accepted but not yet pulled into a batching round. It is the load
// signal the cluster router's least-loaded placement reads.
func (e *Engine) QueueDepth() int { return len(e.submit) }

// Observe returns the engine's telemetry handle: the metrics registry
// behind Stats and /metrics, plus the request tracer when TraceDepth
// is set. The handle is valid for the engine's lifetime.
func (e *Engine) Observe() *telemetry.Telemetry { return e.tel }

// TraceLast returns the span tree of the most recently completed
// request, or false when tracing is disabled or nothing has completed.
func (e *Engine) TraceLast() (*telemetry.Trace, bool) { return e.tracer.Last() }

// Traces returns the retained request traces, oldest first (nil when
// tracing is disabled).
func (e *Engine) Traces() []*telemetry.Trace { return e.tracer.Traces() }

// CachedSpecs returns how many (function, method) configurations have
// paid their setup: those built successfully on at least one shard.
func (e *Engine) CachedSpecs() int {
	e.chargedMu.Lock()
	defer e.chargedMu.Unlock()
	return len(e.charged)
}

// Accuracy returns a point-in-time snapshot of the accuracy watcher's
// shadow-sample statistics; ok is false when accuracy monitoring is
// disabled (Config.Accuracy.Enabled false).
func (e *Engine) Accuracy() (accwatch.Snapshot, bool) {
	if e.acc == nil {
		return accwatch.Snapshot{}, false
	}
	return e.acc.Snapshot(), true
}

// AccuracyViolations evaluates the configured accuracy SLOs against
// the cumulative shadow-sample statistics and returns the failures
// (nil when monitoring is disabled or every series is within bounds).
// This is the batch-gate check: unlike the rolling-window breach
// counter it judges the whole session, so CI can fail a run whose
// final error exceeds the bounds even if no single window tripped.
func (e *Engine) AccuracyViolations() []accwatch.Violation {
	if e.acc == nil {
		return nil
	}
	return e.acc.CheckSLOs()
}

// EvaluateBatch evaluates fn(x) for every x under the given method
// parameters and returns the outputs with the request's cost report.
// It blocks until the result is complete (internally the work is
// batched and sharded with concurrent callers). Safe for concurrent
// use.
func (e *Engine) EvaluateBatch(fn core.Function, p core.Params, xs []float32) ([]float32, RequestStats, error) {
	return e.EvaluateBatchTenant("", fn, p, xs)
}

// EvaluateBatchTenant is EvaluateBatch with a tenant tag: the
// accuracy watcher attributes the request's shadow samples to the
// (function, method, tenant) series, so per-client quality is
// separable in /debug/accuracy. The tag does not affect batching,
// coalescing, or results; an empty tenant is the anonymous series.
func (e *Engine) EvaluateBatchTenant(tenant string, fn core.Function, p core.Params, xs []float32) ([]float32, RequestStats, error) {
	out, st, _, err := e.evaluate(tenant, 0, fn, p, xs)
	return out, st, err
}

// EvaluateBatchTraced is EvaluateBatchTenant with an externally minted
// trace identity: the request's trace takes traceID instead of an
// engine-local one, and its record is returned to the caller (in
// addition to the engine's own trace ring) so a router can graft its
// span tree under its placement spans — one connected trace across
// layers. With tracing disabled (TraceDepth 0) the returned record is
// nil and the call behaves exactly like EvaluateBatchTenant.
func (e *Engine) EvaluateBatchTraced(tenant string, traceID uint64, fn core.Function, p core.Params, xs []float32) ([]float32, RequestStats, telemetry.Record, error) {
	return e.evaluate(tenant, traceID, fn, p, xs)
}

// evaluate is the shared submit path behind the EvaluateBatch
// variants. extID, when nonzero, overrides the trace ring's minted ID.
// The returned record is nil unless tracing is enabled.
func (e *Engine) evaluate(tenant string, extID uint64, fn core.Function, p core.Params, xs []float32) ([]float32, RequestStats, telemetry.Record, error) {
	spec := makeSpec(fn, p)
	if !spec.Par.Method.Supports(fn) {
		return nil, RequestStats{}, nil, fmt.Errorf("engine: %v does not support %v (see Table 2)", spec.Par.Method, fn)
	}
	if len(xs) == 0 {
		return nil, RequestStats{}, nil, nil
	}
	r := &request{
		spec:     spec,
		tenant:   tenant,
		inputs:   xs,
		outputs:  make([]float32, len(xs)),
		extID:    extID,
		enqueued: time.Now(),
	}
	r.stats.CacheHit = true // cleared by the first miss
	if err := e.run(r); err != nil {
		return nil, RequestStats{}, nil, err
	}
	if r.rec == nil {
		return r.outputs, r.stats, nil, r.err
	}
	return r.outputs, r.stats, r.rec, r.err
}

// run serves request r and returns once it has completed. When the
// engine has no batch window, the request fits in one batch and a shard
// is idle with nothing waiting for one, the caller runs the batch
// itself on that shard, as the paper's host program copies, launches
// and reads back on the thread that asked. Otherwise r takes the queued
// path: the submit queue, the batcher and a shard's goroutine. Both
// paths number the batch from one counter and run it through runBatch.
func (e *Engine) run(r *request) error {
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		return ErrEngineClosed
	}
	e.met.requests.Inc()
	if s := e.idleShard(r.size()); s != nil {
		// The shard's lock, taken before Close could start, keeps its
		// crew running until the batch has drained (see serveShard).
		e.mu.RUnlock()
		b := soloBatch(r)
		e.number(b)
		e.runBatch(s, b)
		s.mu.Unlock()
		return nil
	}
	r.done = make(chan struct{})
	e.waiting.Add(1)
	e.submit <- r
	e.met.queueDepth.Set(int64(len(e.submit)))
	e.mu.RUnlock()
	<-r.done
	return nil
}

// idleShard returns a shard, locked, on which the caller may run an
// n-element request itself, or nil when the request must queue: a batch
// window is set, the request spans several batches, a queued request or
// batch waits for a shard, or every shard is busy.
func (e *Engine) idleShard(n int) *shard {
	if e.cfg.BatchWindow > 0 || n > e.cfg.MaxBatch || e.waiting.Load() != 0 {
		return nil
	}
	for _, s := range e.shards {
		if s.mu.TryLock() {
			return s
		}
	}
	return nil
}

// number gives b the next batch sequence number and, when tracing is
// on, its stage stamps.
func (e *Engine) number(b *batch) {
	b.seq = e.seq.Add(1)
	if e.tracer != nil {
		b.tr = &b.trace
	}
}

// Close drains in-flight work and stops the shards, each once any
// caller running its own batch there has finished. Subsequent
// EvaluateBatch calls fail.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	close(e.submit)
	e.mu.Unlock()
	e.wg.Wait()
}

// batcher collects queued requests, groups them by spec, and emits
// packed batches. One round: take the first request (blocking), then
// coalesce whatever else is immediately queued — plus whatever
// arrives within BatchWindow, when configured — and flush.
func (e *Engine) batcher() {
	defer e.wg.Done()
	defer close(e.dispatch)
	// The round-grouping map and its per-spec request slices persist
	// across rounds (reset in place, requests nil'd so completed work
	// isn't retained): a steady-state round allocates nothing.
	bySpec := make(map[Spec][]*request)
	var order []Spec
	// Program requests are never coalesced or split: one batch carries
	// the whole program so its intermediates stay device-resident.
	var progs []*request
	// planned holds one spec's batches from planning to dispatch; like
	// bySpec's slices it persists, nil'd once its batches are sent.
	var planned []*batch
	// taken counts the round's requests, which leave e.waiting once
	// their batches are dispatched.
	var taken int64
	add := func(r *request) {
		taken++
		if r.prog != nil {
			progs = append(progs, r)
			return
		}
		lst := bySpec[r.spec]
		if len(lst) == 0 {
			order = append(order, r.spec)
		}
		bySpec[r.spec] = append(lst, r)
	}
	dispatch := func(b *batch) {
		e.number(b)
		e.waiting.Add(1)
		e.dispatch <- b
	}
	for {
		r, ok := <-e.submit
		if !ok {
			return
		}
		for _, sp := range order {
			lst := bySpec[sp]
			for i := range lst {
				lst[i] = nil
			}
			bySpec[sp] = lst[:0]
		}
		order = order[:0]
		for i := range progs {
			progs[i] = nil
		}
		progs = progs[:0]
		taken = 0
		add(r)
		closed := false
		if e.cfg.BatchWindow > 0 {
			timer := time.NewTimer(e.cfg.BatchWindow)
		window:
			for {
				select {
				case r2, ok := <-e.submit:
					if !ok {
						closed = true
						break window
					}
					add(r2)
				case <-timer.C:
					break window
				}
			}
			timer.Stop()
		}
	drain:
		for {
			select {
			case r2, ok := <-e.submit:
				if !ok {
					closed = true
					break drain
				}
				add(r2)
			default:
				break drain
			}
		}
		e.met.queueDepth.Set(int64(len(e.submit)))
		for _, spec := range order {
			planned = planBatches(planned[:0], spec, bySpec[spec], e.cfg.MaxBatch)
			for i, b := range planned {
				dispatch(b)
				planned[i] = nil
			}
		}
		for _, pr := range progs {
			dispatch(soloBatch(pr))
		}
		e.waiting.Add(-taken)
		if closed {
			return
		}
	}
}

// serveShard is a shard's goroutine. It takes batches from the shared
// dispatch channel, so any idle shard goroutine takes the next one, and
// runs each under the shard's lock. When the batcher closes the channel
// it stops the shard's lane workers, once a caller that took the shard
// before Close has released it.
func (e *Engine) serveShard(s *shard) {
	defer e.wg.Done()
	for b := range e.dispatch {
		s.mu.Lock()
		e.waiting.Add(-1)
		e.runBatch(s, b)
		s.mu.Unlock()
	}
	s.mu.Lock()
	s.crew.Close()
	s.mu.Unlock()
}

// runBatch runs batch b to completion on shard s, whose lock the
// calling goroutine holds: transfer-in, compute, transfer-out.
func (e *Engine) runBatch(s *shard, b *batch) {
	e.transferIn(s, b)
	if b.prog != nil {
		e.computeProgram(s, b)
	} else {
		e.computeBatch(s, b)
	}
	// Drop the kernels' view of the batch, so the shard does not pin it
	// after it drains.
	s.cur, s.ops, s.ex = nil, nil, nil
	e.transferOut(s, b)
}

// transferIn packs a coalesced batch's segments into the shard's flat
// staging buffer with contiguous copies and charges the rank-parallel
// host→PIM transfer. It touches no MRAM: lanes read their chunk from
// host memory (see computeLane).
func (e *Engine) transferIn(s *shard, b *batch) {
	if b.tr != nil {
		b.tr.shard = s.id
		b.tr.inStart = time.Now()
	}
	per, padded := shardPlan(b.n, len(s.dpus))
	b.perDPU = per
	if b.prog != nil {
		e.stageProgramIn(s, b)
	} else {
		if len(b.segs) > 1 {
			idx := 0
			for _, sg := range b.segs {
				copy(s.inBuf[idx:idx+sg.n], sg.req.inputs[sg.off:sg.off+sg.n])
				idx += sg.n
			}
		}
		e.chargeTransferIn(b, padded)
	}
	if b.tr != nil {
		b.tr.inEnd = time.Now()
	}
}

// launch runs kernel on the cores ids of shard s for batch b. Every
// engine kernel launch takes this path — batch compute, fused-program
// phases, recovery retries and remaps, hedges — so each is accounted
// once: its wall cycles (the slowest lane's closed-form cycles, as the
// simulator measures and attributes them) go to b.cycles and are split
// across the batch's tenant segments by exact integer prefix
// partitioning (segment i takes wall·cum_i/n − wall·cum_{i−1}/n, so
// the shares sum to the wall). The ledger charges each segment the sum
// of its shares and the profiler takes the same shares, so ledger ≡
// profiler ≡ simulator by construction. The simulator leaves each
// lane's record in s.lanes for the recovery ladder and the profiler.
// Callers charge b.tcomp themselves: it is the critical path, not the
// sum, when a hedge overlaps a straggler. Steady state allocates
// nothing: the shard's kernels are built once (see shard.batchKernel).
func (e *Engine) launch(s *shard, b *batch, stage string, attempt uint64, ids []int, kernel func(*pimsim.Ctx, int) error) (uint64, error) {
	lanes := s.lanes[:len(ids)]
	wall, err := s.crew.Launch(b.seq, attempt, ids, lanes, kernel)
	b.cycles += wall

	profiled := e.prof != nil
	lc := &s.lctx
	if profiled {
		if b.prog != nil {
			lc.Function, lc.Method = "program", b.prog.Method()
		} else {
			lc.Function, lc.Method = b.spec.Fn.String(), methodLabel(b.spec.Par)
		}
		lc.Stage, lc.Wall, lc.N = stage, wall, b.n
		lc.Segs = lc.Segs[:0]
	}
	n := uint64(b.n)
	var cum, prev uint64
	for i := range b.segs {
		sg := &b.segs[i]
		cum += uint64(sg.n)
		c := wall * cum / n
		sg.cycles += c - prev
		if profiled {
			lc.Segs = append(lc.Segs, profiler.Seg{Tenant: sg.req.tenant, N: sg.n, Wall: c - prev})
		}
		prev = c
	}
	if profiled {
		e.prof.Observe(lc, lanes)
	}
	return wall, err
}

// vectors returns a batch's input and output vectors in host memory:
// a single-segment batch's are its request's own slices, a coalesced
// batch's are the shard's staging buffers.
func (s *shard) vectors(b *batch) (xs, ys []float32) {
	if len(b.segs) == 1 {
		sg := b.segs[0]
		return sg.req.inputs[sg.off : sg.off+sg.n], sg.req.outputs[sg.off : sg.off+sg.n]
	}
	return s.inBuf[:b.n], s.outBuf[:b.n]
}

// transferOut gathers a batch's results, charges the PIM→host
// transfer, and completes the batch's requests. A coalesced batch's
// results are copied out of the shard's staging buffer to its segments
// with contiguous copies; a single-segment batch's lanes already wrote
// its request's outputs.
func (e *Engine) transferOut(s *shard, b *batch) {
	if b.tr != nil {
		b.tr.outStart = time.Now()
	}
	var bytesIn, bytesOut int
	switch {
	case b.prog != nil:
		// Program outputs are already in the request's slices (host
		// staging); only the result transfer remains to charge.
		bytesIn, bytesOut = e.drainProgramOut(s, b)
	case b.err == nil:
		if len(b.segs) > 1 {
			idx := 0
			for _, sg := range b.segs {
				copy(sg.req.outputs[sg.off:sg.off+sg.n], s.outBuf[idx:idx+sg.n])
				idx += sg.n
			}
		}
		_, padded := shardPlan(b.n, len(s.dpus))
		bytesIn = padded
		// Degraded results come from host memory: nothing to
		// transfer back from the cores.
		if !b.hostEval {
			if b.remapped {
				padded = b.perDPU * 4 * b.lanes
			}
			e.chargeTransferOut(b, padded)
			bytesOut = padded
		}
	}
	if b.tr != nil {
		b.tr.outEnd = time.Now()
	}
	e.met.addBatch(b, s.id, bytesIn, bytesOut)
	if e.led != nil {
		e.chargeLedger(b, bytesIn, bytesOut)
	}
	for _, sg := range b.segs {
		if sg.req.complete(b, s.id) {
			e.finishRequest(sg.req)
		}
	}
	releaseBatch(b)
}

// finishRequest runs on the shard's owner after a request's last
// segment completed and before its caller is released: observe the
// latency, count request-level errors (the per-request view the batch
// counter can't give), shadow-sample the outputs for accuracy
// monitoring, complete and publish the trace record, then close done
// (a queued request's; a caller running its own batch has none). The
// request is quiescent here — every batch that carried it has drained
// and the caller is parked on done or is this goroutine — so the reads
// and the TraceID write need no lock.
func (e *Engine) finishRequest(r *request) {
	rec := r.rec // nil unless tracing is on
	if rec != nil {
		rec.end = time.Now()
	}
	e.met.latency.Observe(r.stats.Latency.Seconds())
	if r.err != nil {
		e.met.requestErrors.Inc()
	}
	var traceID uint64
	if e.tracer != nil {
		if r.extID != 0 {
			traceID = r.extID // propagated from the router's mint
		} else {
			traceID = e.tracer.NextID()
		}
		r.stats.TraceID = traceID
	}
	if e.led != nil {
		d := telemetry.LedgerEntry{Requests: 1}
		if r.stats.Degraded {
			d.Degraded = 1
		}
		key := telemetry.LedgerKey{
			Tenant:   r.tenant,
			Function: r.spec.Fn.String(),
			Method:   methodLabel(r.spec.Par),
		}
		if r.prog != nil {
			key.Function, key.Method = "program", r.prog.Method()
		}
		e.led.Add(key, d)
	}
	var breached bool
	// The shadow sampler compares outputs[i] against fn(inputs[i]); a
	// fused program's output is a whole-graph composite with no single
	// reference function, so programs skip accuracy sampling.
	if e.acc != nil && r.err == nil && r.prog == nil {
		// The shadow sampler only reads inputs/outputs; it never
		// touches the pipeline, so modeled cycles and outputs are
		// untouched whether it runs or not.
		lo, hi := r.spec.Fn.Domain()
		out := e.acc.Sample(accwatch.Request{
			Key: accwatch.Key{
				Function: r.spec.Fn.String(),
				Method:   methodLabel(r.spec.Par),
				Tenant:   r.tenant,
			},
			Ref: r.spec.Fn.Ref(),
			Lo:  lo, Hi: hi,
			Shard:   r.stats.ShardID,
			TraceID: traceID,
		}, r.inputs, r.outputs)
		breached = out.Breached
	}
	if rec != nil {
		rec.id = traceID
		rec.proc = e.cfg.ProcName
		rec.start = r.enqueued
		rec.shard = r.stats.ShardID
		rec.spec, rec.prog, rec.tenant = r.spec, r.prog, r.tenant
		rec.elements = r.size()
		rec.cacheHit = r.stats.CacheHit
		rec.sloBreached = breached
		rec.err = r.err
		e.tracer.Push(rec)
	}
	if r.done != nil {
		close(r.done)
	}
}

// interpLabels holds each method's interpolated label, built once so
// the per-request ledger and accuracy keys and the per-launch profiler
// labels allocate nothing.
var interpLabels = func() []string {
	out := make([]string, len(core.Methods()))
	for i, m := range core.Methods() {
		out[i] = m.String() + "(i)"
	}
	return out
}()

// methodLabel renders a request's method the way tplrepro keys
// it — "l-lut(i)" for the interpolated variant — so online series and
// offline reports key identically.
func methodLabel(p core.Params) string {
	if !p.Interp {
		return p.Method.String()
	}
	if m := int(p.Method); m >= 0 && m < len(interpLabels) {
		return interpLabels[m]
	}
	return p.Method.String() + "(i)"
}
