package transpimlib

import (
	"fmt"
	"time"

	"transpimlib/internal/accwatch"
	"transpimlib/internal/engine"
	"transpimlib/internal/faultsim"
	"transpimlib/internal/profiler"
	"transpimlib/internal/telemetry"
)

// ErrEngineClosed is returned by Engine.EvaluateBatch after Close.
var ErrEngineClosed = engine.ErrEngineClosed

// EngineConfig configures a serving Engine. The zero value is an
// 8-core system split into 2 shards, each running one batch at a time
// to completion.
type EngineConfig struct {
	// DPUs is the number of simulated PIM cores (default 8).
	DPUs int
	// Shards is the number of independent core groups; DPUs must be
	// divisible by Shards (default: 2 when DPUs is even, else 1).
	Shards int
	// MaxBatch bounds the elements dispatched as one batch (default
	// 4096); larger requests split, smaller concurrent ones coalesce.
	MaxBatch int
	// BatchWindow is how long the batcher holds a request to let more
	// arrive and coalesce. The default 0 coalesces only what is queued,
	// and a request that fits in one batch runs on its caller when a
	// shard is idle and nothing waits for one.
	BatchWindow time.Duration
	// TraceDepth retains the span trees of the last N completed
	// requests, readable via TraceLast/Traces and servable at
	// /debug/trace (default 0: tracing disabled, no per-stage
	// timestamps are taken).
	TraceDepth int
	// Ledger enables the per-tenant cost ledger: every served request
	// is charged to its (tenant, function, method) row — elements,
	// modeled kernel cycles, host↔PIM bytes, degraded serves — with
	// exact integer partitioning of coalesced batches, so the ledger's
	// cycle total reconciles ±0 with the simulator's. Read it via
	// Engine.Ledger, /debug/ledger, or the tenant_* metric series.
	// Off (the default) the serving path is bit-identical to an
	// unledgered engine.
	Ledger bool
	// Profiler enables the continuous modeled-cycle profiler: every
	// launch's cycles are attributed to a (tenant, function, method,
	// stage, instruction class) stack in a lock-cheap aggregation
	// tree, with cumulative per-DPU issue/DMA/idle heatmap accounting.
	// Read it via Engine.Profile*, /debug/profile
	// (folded flamegraph text, pprof profile.proto, or JSON), and
	// /debug/heatmap. The simulator measures every launch once either
	// way; the profiler reads those records, so enabling it adds no
	// counter reads. Profiler.Enabled false (the default) builds no
	// collector.
	Profiler ProfilerConfig
	// Reference forces the per-element interpreted compute kernel
	// instead of the fused batch fast path, on every lane, retry, hedge
	// and degrade rung, for batches and fused programs alike. Outputs
	// and modeled cycles are bit-identical either way; only host wall
	// time differs. Default off (fast path).
	Reference bool
	// Faults, when non-empty, enables deterministic fault injection
	// with the engine's recovery ladder (retry → remap → hedge →
	// host-mirror degrade). The syntax is the faultsim plan language,
	// e.g. "seed=42,dpufail=0.05,dpuslow=0.1x4,bitflip=0.01,transfer=0.02"
	// or deterministic triggers "failat=3:1;4:1". Empty (the default)
	// disables injection entirely — the pipeline is then bit-identical
	// to earlier releases.
	Faults string
	// Reliability tunes the recovery ladder (zero value: no launch
	// timeout, no hedging); only consulted when Faults is set.
	Reliability ReliabilityConfig
	// Accuracy enables the online accuracy watcher: a deterministic
	// shadow sampler re-evaluates a configurable fraction of each
	// request's elements against the float64 host reference and keeps
	// per-(function, method, tenant) ULP/absolute-error statistics,
	// input-domain coverage, and rolling-window SLO/drift checks.
	// Disabled (the default) the serving path is untouched — outputs,
	// modeled cycles, and allocation behavior are bit-identical to an
	// engine without the watcher.
	Accuracy AccuracyConfig
}

// ReliabilityConfig tunes the engine's recovery ladder under fault
// injection: the straggler launch timeout and the hedge ratio. Retry
// counts, backoff and quarantine thresholds are fixed.
type ReliabilityConfig = engine.ReliabilityConfig

// AccuracyConfig tunes the online accuracy watcher: whether it runs,
// its shadow-sampling rate, and the accuracy SLOs to enforce. Each
// series checks its SLOs, and drift beyond 8× its cumulative MAE, once
// per window of 4096 samples; the stride phase hashes a fixed seed
// with the request sequence, so a sequential replay samples the same
// elements. The watcher keeps at most 64 series; further (function,
// method, tenant) triples share one overflow series.
type AccuracyConfig = accwatch.Config

// AccuracySLO is one accuracy service-level objective: bounds on mean
// absolute error and mean ULP error, scoped by function / method /
// tenant patterns ("" or "*" match anything).
type AccuracySLO = accwatch.SLO

// AccuracySnapshot is a point-in-time view of the watcher's
// shadow-sample statistics, one series per observed
// (function, method, tenant) triple. It is what /debug/accuracy
// serves as JSON.
type AccuracySnapshot = accwatch.Snapshot

// AccuracyViolation is one failed SLO check from
// Engine.AccuracyViolations — the cumulative (whole-session) gate.
type AccuracyViolation = accwatch.Violation

// FaultEvent is one injected fault, identified by its deterministic
// coordinates (class, batch sequence, lane, attempt) so identical
// seeds yield identical logs.
type FaultEvent = faultsim.Event

// LaneHealth is one PIM core's row of the engine's health scoreboard.
type LaneHealth = engine.LaneHealth

// RequestStats is the per-request cost report of Engine.EvaluateBatch:
// wall-clock latency plus modeled per-stage (transfer-in / compute /
// transfer-out) and setup costs.
type RequestStats = engine.RequestStats

// EngineStats is the engine-wide accumulated counter view.
type EngineStats = engine.Stats

// Telemetry is an engine's observability handle: the metrics registry
// behind Stats (Prometheus text exposition via WritePrometheus or the
// Handler's /metrics endpoint) and, when EngineConfig.TraceDepth is
// set, the request tracer behind /debug/trace.
type Telemetry = telemetry.Telemetry

// Trace is one request's completed span tree.
type Trace = telemetry.Trace

// Span is one timed region of a request's journey through the
// pipeline, carrying both wall-clock and modeled-seconds durations.
type Span = telemetry.Span

// TimelineConfig tunes the windowed metrics store: sampling window
// width, retained window count, and which histogram quantiles the
// snapshots carry.
type TimelineConfig = telemetry.TimelineConfig

// TimelineWindow is one closed window of the metrics timeline:
// derived series values (counter rates, gauge values, histogram
// quantiles) sampled over [Start, End).
type TimelineWindow = telemetry.TimelineWindow

// TimelineSnapshot is a point-in-time view of the windowed metrics
// store — per-series aligned windows with values, rates, and
// histogram quantiles. It is what /debug/timeline serves as JSON.
type TimelineSnapshot = telemetry.TimelineSnapshot

// LedgerKey identifies one cost-ledger row: the (tenant, function,
// method) triple charges accrue to.
type LedgerKey = telemetry.LedgerKey

// LedgerEntry is the accumulated charges of one ledger row: requests,
// elements, modeled kernel cycles, host↔PIM bytes, modeled seconds,
// and degrade/shed/failover counts.
type LedgerEntry = telemetry.LedgerEntry

// LedgerRow is one key's entry in a ledger snapshot.
type LedgerRow = telemetry.LedgerRow

// LedgerSnapshot is a point-in-time view of the cost ledger, one row
// per observed (tenant, function, method) triple plus an overflow row
// when the cardinality cap was hit. It is what /debug/ledger serves
// as JSON.
type LedgerSnapshot = telemetry.LedgerSnapshot

// ProfilerConfig switches the modeled-cycle profiler on. The profiler
// keeps at most 4096 frames; further stacks share one "~other" frame.
type ProfilerConfig = profiler.Config

// CycleProfile is a point-in-time view of the modeled-cycle profiler:
// cumulative totals plus one frame per observed (tenant, function,
// method, stage, instruction class) stack. It is what /debug/profile
// serves as JSON; use profiler's folded/pprof writers for the
// flamegraph formats.
type CycleProfile = profiler.Profile

// CycleFrame is one aggregation-tree leaf of a CycleProfile: a fully
// labeled stack with its attributed ops, instruction-class cycles,
// and exact wall-cycle share.
type CycleFrame = profiler.Frame

// CycleHeatmap is the per-DPU utilization view: cumulative
// issue/DMA/idle cycles and shares per core. It is what
// /debug/heatmap serves per source.
type CycleHeatmap = profiler.Heatmap

// Engine is a long-lived serving runtime over a multi-core PIM
// system: each configuration (function, method, LUT size, placement)
// pays its table setup once per engine, then request coalescing and
// sharding, and a pipelined
// transfer/compute/drain datapath per shard. Unlike Lib — one
// statically compiled configuration on one core — an Engine serves
// any supported (function, method) mix on demand and is safe for
// concurrent use.
type Engine struct {
	e *engine.Engine
}

// internal converts the public EngineConfig to the internal engine
// configuration, parsing the fault plan. Shared by NewEngine and
// NewCluster (which stamps one internal config per replica).
func (cfg EngineConfig) internal() (engine.Config, error) {
	var plan *faultsim.Plan
	if cfg.Faults != "" {
		p, err := faultsim.ParsePlan(cfg.Faults)
		if err != nil {
			return engine.Config{}, err
		}
		plan = &p
	}
	return engine.Config{
		DPUs:        cfg.DPUs,
		Shards:      cfg.Shards,
		MaxBatch:    cfg.MaxBatch,
		BatchWindow: cfg.BatchWindow,
		TraceDepth:  cfg.TraceDepth,
		Ledger:      cfg.Ledger,
		Profiler:    cfg.Profiler,
		Reference:   cfg.Reference,
		Faults:      plan,
		Reliability: cfg.Reliability,
		Accuracy:    cfg.Accuracy,
	}, nil
}

// NewEngine builds and starts a serving engine.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	icfg, err := cfg.internal()
	if err != nil {
		return nil, fmt.Errorf("transpimlib: %w", err)
	}
	e, err := engine.New(icfg)
	if err != nil {
		return nil, fmt.Errorf("transpimlib: %w", err)
	}
	return &Engine{e: e}, nil
}

// EvaluateBatch evaluates fn over xs with the method configuration in
// spec and returns the outputs plus the request's cost report. The
// first request for a configuration pays one table generation plus one
// broadcast to every core of the engine; later ones, on any shard, are
// setup-cache hits. Safe for concurrent use.
func (e *Engine) EvaluateBatch(fn Function, spec Config, xs []float32) ([]float32, RequestStats, error) {
	return e.e.EvaluateBatch(fn, spec.params(), xs)
}

// EvaluateBatchAs is EvaluateBatch with a tenant tag: the accuracy
// watcher attributes the request's shadow samples to the
// (function, method, tenant) series, so per-client quality is
// separable in /debug/accuracy. The tag does not affect batching,
// coalescing, or results; an empty tenant is the anonymous series.
func (e *Engine) EvaluateBatchAs(tenant string, fn Function, spec Config, xs []float32) ([]float32, RequestStats, error) {
	return e.e.EvaluateBatchTenant(tenant, fn, spec.params(), xs)
}

// Stats returns a snapshot of the engine-wide counters.
func (e *Engine) Stats() EngineStats { return e.e.Stats() }

// Observe returns the engine's telemetry handle — the metrics
// registry plus the request tracer. Observe().Handler() is an
// http.Handler serving /metrics (Prometheus text format) and
// /debug/trace (span trees as JSON, or ?format=chrome for a Chrome
// trace_event document).
func (e *Engine) Observe() *Telemetry { return e.e.Observe() }

// TraceLast returns the span tree of the most recently completed
// request, or false when tracing is disabled (TraceDepth 0) or no
// request has completed yet.
func (e *Engine) TraceLast() (*Trace, bool) { return e.e.TraceLast() }

// Traces returns the retained request traces, oldest first (nil when
// tracing is disabled).
func (e *Engine) Traces() []*Trace { return e.e.Traces() }

// Ledger returns a point-in-time snapshot of the per-tenant cost
// ledger (empty when EngineConfig.Ledger is off).
func (e *Engine) Ledger() LedgerSnapshot { return e.e.Ledger() }

// ProfileSnapshot returns a point-in-time modeled-cycle profile; ok
// is false when EngineConfig.Profiler is disabled. The profile's wall
// cycles reconcile ±0 with the simulator's attributed kernel cycles
// and with the ledger's per-tenant rows.
func (e *Engine) ProfileSnapshot() (CycleProfile, bool) { return e.e.ProfileSnapshot() }

// Heatmap returns the per-DPU utilization heatmap (zero value when
// EngineConfig.Profiler is disabled).
func (e *Engine) Heatmap() CycleHeatmap {
	if c := e.e.Profiler(); c != nil {
		return c.HeatmapSnapshot()
	}
	return CycleHeatmap{}
}

// CachedSpecs returns how many (function, method) configurations
// have paid their setup: those built on at least one shard.
func (e *Engine) CachedSpecs() int { return e.e.CachedSpecs() }

// FaultEvents returns the canonically sorted injected-fault log (nil
// when fault injection is disabled). For a single-shard engine fed
// sequentially, identical seeds reproduce identical logs.
func (e *Engine) FaultEvents() []FaultEvent { return e.e.FaultEvents() }

// Health returns the per-DPU health scoreboard (nil when fault
// injection is disabled).
func (e *Engine) Health() []LaneHealth { return e.e.Health() }

// Accuracy returns a point-in-time snapshot of the accuracy watcher's
// shadow-sample statistics; ok is false when accuracy monitoring is
// disabled.
func (e *Engine) Accuracy() (AccuracySnapshot, bool) { return e.e.Accuracy() }

// AccuracyViolations evaluates the configured accuracy SLOs against
// the cumulative shadow-sample statistics, returning the failures
// (nil when monitoring is disabled or every series is within bounds).
// Use it as an end-of-session accuracy gate.
func (e *Engine) AccuracyViolations() []AccuracyViolation { return e.e.AccuracyViolations() }

// Close drains in-flight work and stops the engine.
func (e *Engine) Close() { e.e.Close() }
