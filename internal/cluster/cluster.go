// Package cluster is the horizontal-scale serving layer: a front-end
// Cluster owns N engine replicas — each a full serving engine with its
// own simulated PIM system — and routes (function, method, tenant)
// keys onto them with consistent hashing, falling back to the
// least-loaded healthy candidate when the primary is quarantined or
// backlogged. Hot table state replicates to a key's K-replica
// candidate set through each engine's own setup: the first request a
// replica sees for a spec pays the spec's setup there, and the
// replica's other shards build their copies free (Prewarm pays it
// eagerly). Admission control sheds load with typed
// ErrOverloaded — per-tenant token-bucket quotas in elements, plus a
// backlog bound — and a replica-granularity health tracker (the PR-4
// engine tracker reused one level up) quarantines replicas that keep
// failing or degrading, re-routing their work to the survivors.
//
// With one replica, no quotas, and no faults, the cluster is a
// pass-through: outputs, modeled cycles, and the engine's
// zero-allocation steady state are bit-identical to calling the
// engine directly — the differential tests pin this.
package cluster

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"transpimlib/internal/core"
	"transpimlib/internal/engine"
	"transpimlib/internal/profiler"
	"transpimlib/internal/telemetry"
)

// ErrClusterClosed is returned by submit paths after Close.
var ErrClusterClosed = errors.New("cluster: closed")

// replicaProbation is how many routing sequence numbers a quarantined
// replica sits out before it is re-admitted on probation; the doubling
// and the other thresholds are the engine health tracker's.
const replicaProbation = 64

// virtualNodes is the number of ring points per replica; more points
// smooth the key distribution.
const virtualNodes = 64

// Config describes a cluster.
type Config struct {
	// Engines configures one engine replica each; len(Engines) is the
	// replica count N (1 ≤ N ≤ 64). Replicas may differ — e.g. a fault
	// plan injected into one replica only.
	Engines []engine.Config
	// Replication is K, the size of each key's candidate set on the
	// ring: the replicas a key's tables may become resident on and the
	// fallback targets for least-loaded placement. Default min(2, N),
	// capped at 16.
	Replication int
	// Seed perturbs the ring and key hashes (default 1). Identical
	// seeds and request sequences yield identical placements.
	Seed uint64
	// Quotas are per-tenant token buckets in elements; nil disables
	// quota admission entirely. DefaultQuota, when non-nil, applies to
	// tenants absent from Quotas.
	Quotas       map[string]Quota
	DefaultQuota *Quota
	// MaxQueue, when > 0, is the backlog bound: a request is shed when
	// every healthy candidate replica's queue depth is at or above it.
	MaxQueue int
	// TraceDepth retains the span trees of the last N requests routed
	// through the cluster front-end (Cluster.TraceLast, /debug/trace).
	// Each trace is minted at the cluster boundary and shows the whole
	// placement ladder — primary attempt, spill, shed, failover — with
	// the serving replica's engine pipeline spans grafted underneath,
	// one connected tree per request. Replicas whose engine config
	// leaves TraceDepth unset inherit this value (and a "replica/<i>"
	// process lane name) so their pipeline spans join the tree. Zero
	// disables tracing: no spans allocated, no timestamps taken.
	TraceDepth int
	// Ledger enables per-tenant cost accounting cluster-wide: every
	// replica engine charges its batches to (tenant, function, method)
	// rows, the router adds shed and failover counts, and
	// Cluster.Ledger() merges it all into one snapshot. Off (the
	// default), the routing path is unchanged.
	Ledger bool
	// Timeline enables the cluster registry's windowed metrics store
	// (served at /debug/timeline). Zero value: disabled.
	Timeline telemetry.TimelineConfig
	// Profiler enables the modeled-cycle profiler on every replica
	// engine (all-or-nothing, like the ledger, so the merged profile
	// covers the whole fleet). The cluster serves the merged
	// /debug/profile and a per-replica /debug/heatmap. Zero value:
	// disabled, replica launch paths unchanged.
	Profiler profiler.Config
	// Clock supplies the token buckets' notion of now (default
	// time.Now); tests inject a deterministic clock.
	Clock func() time.Time
	// OnPlace, when non-nil, observes every routing decision (including
	// sheds) — the hook the determinism tests record through. It is
	// called on the request goroutine; keep it cheap.
	OnPlace func(placement)
}

func (c Config) withDefaults() Config {
	if c.Replication <= 0 {
		c.Replication = 2
	}
	if n := len(c.Engines); c.Replication > n {
		c.Replication = n
	}
	if c.Replication > maxReplication {
		c.Replication = maxReplication
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// ReplicaHealth is one replica's row of the cluster health scoreboard.
type ReplicaHealth struct {
	Replica     int
	Errors      uint64 // lifetime failures (errors, degrades)
	Consecutive int    // current consecutive-failure streak
	Quarantined bool   // excluded from routing until the penalty lapses
	Probation   bool   // re-admitted, needs clean requests to clear
}

// Cluster is the replicated serving front end. Create with New (or
// NewWithExecutors for tests), submit with EvaluateBatchTenant, and
// Close when done. Safe for concurrent use.
type Cluster struct {
	cfg     Config
	execs   []engine.Executor
	engines []*engine.Engine // parallel to execs; nil for injected fakes
	ring    *ring
	adm     *admission // nil when no quotas are configured
	health  *engine.HealthTracker
	met     *metrics
	tel     *telemetry.Telemetry

	// tracer mints cluster-boundary trace IDs and retains the routed
	// span trees; nil when TraceDepth is 0. led is the router's own
	// ledger rows (sheds, failovers); timeline the windowed store.
	// All nil when their config is off.
	tracer   *telemetry.Tracer
	led      *telemetry.Ledger
	timeline *telemetry.Timeline

	seq    atomic.Uint64
	closed atomic.Bool
}

// New builds and starts a cluster: one engine per Config.Engines
// entry, each with its own simulated PIM system.
func New(cfg Config) (*Cluster, error) {
	if len(cfg.Engines) == 0 {
		return nil, fmt.Errorf("cluster: no replicas configured")
	}
	if len(cfg.Engines) > 64 {
		return nil, fmt.Errorf("cluster: %d replicas exceeds the 64-replica cap", len(cfg.Engines))
	}
	engines := make([]*engine.Engine, len(cfg.Engines))
	execs := make([]engine.Executor, len(cfg.Engines))
	for i, ecfg := range cfg.Engines {
		// Cluster-level observability inherits down: replicas without
		// their own trace depth take the cluster's (and a per-replica
		// process lane name, so grafted pipeline spans render in their
		// own row), and the ledger is all-or-nothing — merged totals
		// only reconcile when every replica charges.
		if cfg.TraceDepth > 0 {
			if ecfg.TraceDepth <= 0 {
				ecfg.TraceDepth = cfg.TraceDepth
			}
			if ecfg.ProcName == "" {
				ecfg.ProcName = fmt.Sprintf("replica/%d", i)
			}
		}
		if cfg.Ledger {
			ecfg.Ledger = true
		}
		if cfg.Profiler.Enabled {
			ecfg.Profiler = cfg.Profiler
		}
		e, err := engine.New(ecfg)
		if err != nil {
			for j := 0; j < i; j++ {
				engines[j].Close()
			}
			return nil, fmt.Errorf("cluster: replica %d: %w", i, err)
		}
		engines[i] = e
		execs[i] = e
	}
	c, err := NewWithExecutors(cfg, execs)
	if err != nil {
		for _, e := range engines {
			e.Close()
		}
		return nil, err
	}
	c.engines = engines
	if cfg.Profiler.Enabled {
		// Merged profile and per-replica heatmaps over the replica
		// collectors (injected executors have none and are skipped).
		c.tel.ProfileHandler = profiler.ProfileHandler(c.profilerSources)
		c.tel.HeatmapHandler = profiler.HeatmapHandler(c.profilerSources)
	}
	return c, nil
}

// profilerSources lists the replica collectors for the merged debug
// endpoints, one named source per profiling replica.
func (c *Cluster) profilerSources() []profiler.Source {
	out := make([]profiler.Source, 0, len(c.engines))
	for i, e := range c.engines {
		if e == nil || e.Profiler() == nil {
			continue
		}
		out = append(out, profiler.Source{Name: fmt.Sprintf("replica/%d", i), C: e.Profiler()})
	}
	return out
}

// ProfileSnapshot returns the merged modeled-cycle profile across the
// replicas; ok is false when profiling is disabled everywhere.
func (c *Cluster) ProfileSnapshot() (profiler.Profile, bool) {
	var snaps []profiler.Profile
	for _, e := range c.engines {
		if e == nil {
			continue
		}
		if p, ok := e.ProfileSnapshot(); ok {
			snaps = append(snaps, p)
		}
	}
	if len(snaps) == 0 {
		return profiler.Profile{}, false
	}
	return profiler.Merge(snaps...), true
}

// NewWithExecutors builds a cluster over caller-supplied execution
// stages — the seam the router tests feed fake replicas through. The
// cluster takes ownership: Close closes every executor.
func NewWithExecutors(cfg Config, execs []engine.Executor) (*Cluster, error) {
	if len(execs) == 0 {
		return nil, fmt.Errorf("cluster: no executors")
	}
	if len(execs) > 64 {
		return nil, fmt.Errorf("cluster: %d executors exceeds the 64-replica cap", len(execs))
	}
	cfg.Engines = cfg.Engines[:0:0]
	for range execs {
		cfg.Engines = append(cfg.Engines, engine.Config{})
	}
	cfg = cfg.withDefaults()
	reg := telemetry.NewRegistry()
	c := &Cluster{
		cfg:    cfg,
		execs:  execs,
		ring:   newRing(len(execs), virtualNodes, cfg.Seed),
		health: engine.NewHealthTracker(len(execs), replicaProbation),
		met:    newMetrics(reg, len(execs)),
	}
	if cfg.Quotas != nil || cfg.DefaultQuota != nil {
		c.adm = newAdmission(cfg.Quotas, cfg.DefaultQuota)
	}
	if cfg.TraceDepth > 0 {
		c.tracer = telemetry.NewTracer(cfg.TraceDepth)
	}
	if cfg.Ledger {
		c.led = telemetry.NewLedger(reg)
	}
	if cfg.Timeline.Enabled {
		c.timeline = telemetry.NewTimeline(reg, cfg.Timeline)
		c.timeline.Start()
	}
	c.tel = &telemetry.Telemetry{Registry: reg, Tracer: c.tracer, Timeline: c.timeline}
	if cfg.Ledger {
		c.tel.LedgerJSON = func() any { return c.Ledger() }
	}
	return c, nil
}

// Replicas returns the replica count N.
func (c *Cluster) Replicas() int { return len(c.execs) }

// EvaluateBatch is EvaluateBatchTenant with the anonymous tenant.
func (c *Cluster) EvaluateBatch(fn core.Function, p core.Params, xs []float32) ([]float32, engine.RequestStats, error) {
	return c.EvaluateBatchTenant("", fn, p, xs)
}

// EvaluateBatchTenant routes one request: admission (quota shed),
// placement (consistent hash, least-loaded fallback, backlog shed),
// execution on the chosen replica, and failover — a replica that
// fails at the infrastructure level is penalized on the health
// tracker and the request re-placed among the survivors. A replica
// that serves the request but had to degrade to its host mirror
// returns correct bits (the engine contract) and is penalized so
// sustained degradation quarantines it.
func (c *Cluster) EvaluateBatchTenant(tenant string, fn core.Function, p core.Params, xs []float32) ([]float32, engine.RequestStats, error) {
	if c.closed.Load() {
		return nil, engine.RequestStats{}, ErrClusterClosed
	}
	seq := c.seq.Add(1)
	c.met.requests.Inc()
	tr := c.beginTrace(tenant, fn, p, len(xs)) // nil when tracing is off

	if c.adm != nil && !c.adm.admit(tenant, len(xs), c.cfg.Clock()) {
		c.met.shedQuota.Inc()
		c.chargeRoute(tenant, fn, p, telemetry.LedgerEntry{Shed: 1})
		if c.cfg.OnPlace != nil {
			c.cfg.OnPlace(placement{Seq: seq, Primary: -1, Replica: -1, Shed: true})
		}
		err := overloadQuota(tenant)
		if tr != nil {
			tr.shed("quota")
			tr.finish(c, err)
		}
		return nil, engine.RequestStats{}, err
	}

	h := keyHash(c.cfg.Seed, fn, p.Normalized(), tenant)
	var tried uint64
	var lastErr error
	for attempt := 0; attempt < len(c.execs); attempt++ {
		pl := c.place(h, seq, tried)
		if c.cfg.OnPlace != nil {
			c.cfg.OnPlace(pl)
		}
		if pl.Shed {
			c.met.shedQueue.Inc()
			c.chargeRoute(tenant, fn, p, telemetry.LedgerEntry{Shed: 1})
			err := overloadQueue()
			if tr != nil {
				tr.shed("queue")
				tr.finish(c, err)
			}
			return nil, engine.RequestStats{}, err
		}
		if pl.Replica < 0 {
			break // every replica tried and failed
		}
		if pl.Spilled {
			c.met.spills.Inc()
		}
		var at *attemptRecord // valid until the next attempt
		if tr != nil {
			at = tr.attempt(pl)
		}
		out, st, rec, err := c.execute(tr, pl.Replica, tenant, fn, p, xs)
		if at != nil {
			at.end, at.err, at.rec = time.Now(), err, rec
		}
		switch {
		case err == nil:
			c.met.routed[pl.Replica].Inc()
			if st.Degraded {
				c.met.degraded.Inc()
				c.noteFailure(pl.Replica, seq)
			} else {
				c.health.RecordSuccess(pl.Replica)
			}
			if tr != nil {
				st.TraceID = tr.id
				at.served, at.cacheHit = true, st.CacheHit
				tr.finish(c, nil)
			}
			return out, st, nil
		case errors.Is(err, engine.ErrEngineClosed):
			// Infrastructure failure: penalize, mark tried, re-place.
			c.noteFailure(pl.Replica, seq)
			c.met.failovers.Inc()
			c.chargeRoute(tenant, fn, p, telemetry.LedgerEntry{Failovers: 1})
			if at != nil {
				at.failover = true
			}
			tried |= 1 << uint(pl.Replica)
			lastErr = err
		default:
			// Deterministic request error (unsupported method, table too
			// large): every replica would answer the same — no failover,
			// no health penalty.
			if tr != nil {
				tr.finish(c, err)
			}
			return nil, engine.RequestStats{}, err
		}
	}
	if lastErr == nil {
		lastErr = ErrClusterClosed
	}
	err := fmt.Errorf("cluster: all replicas failed: %w", lastErr)
	if tr != nil {
		tr.finish(c, err)
	}
	return nil, engine.RequestStats{}, err
}

// execute runs the request on one replica. On a traced request it
// prefers the executor's traced entry point, propagating the
// cluster-minted trace ID into the replica's pipeline and returning
// the replica's trace record, which the caller stores on the current
// attempt so the cluster tree grafts the engine spans (rendered in the
// replica's own process lane) under it — one connected tree across
// layers. The record is shared with the replica's own trace ring; it
// is immutable once pushed.
func (c *Cluster) execute(tr *reqTrace, replica int, tenant string, fn core.Function, p core.Params, xs []float32) ([]float32, engine.RequestStats, telemetry.Record, error) {
	if tr != nil {
		if te, ok := c.execs[replica].(engine.TracedExecutor); ok {
			return te.EvaluateBatchTraced(tenant, tr.id, fn, p, xs)
		}
	}
	out, st, err := c.execs[replica].EvaluateBatchTenant(tenant, fn, p, xs)
	return out, st, nil, err
}

// chargeRoute adds router-level ledger deltas (sheds, failovers) to
// the (tenant, function, method) row. No-op when the ledger is off.
func (c *Cluster) chargeRoute(tenant string, fn core.Function, p core.Params, d telemetry.LedgerEntry) {
	if c.led == nil {
		return
	}
	c.led.Add(telemetry.LedgerKey{
		Tenant:   tenant,
		Function: fn.String(),
		Method:   engine.MethodLabel(p),
	}, d)
}

// noteFailure records a replica-level failure, gauging a quarantine
// transition.
func (c *Cluster) noteFailure(replica int, seq uint64) {
	if c.health.RecordFailure(replica, seq) {
		c.met.quarantined.Set(int64(c.health.QuarantinedCount()))
		c.updateHealthGauges()
	}
}

// updateHealthGauges refreshes the per-replica health gauges from the
// tracker scoreboard.
func (c *Cluster) updateHealthGauges() {
	for _, row := range c.health.Snapshot() {
		v := int64(0)
		switch {
		case row.Quarantined:
			v = 2
		case row.Probation:
			v = 1
		}
		c.met.replicaHealth[row.DPU].Set(v)
	}
	c.met.quarantined.Set(int64(c.health.QuarantinedCount()))
}

// Prewarm eagerly replicates a spec's tables to every replica in its
// key's candidate set by evaluating one in-domain element there — the
// explicit form of the hot-table replication that least-loaded
// fallback performs lazily. That request pays the spec's setup on the
// replica, so every later request for the key is a cache hit there,
// whichever shard serves it. It bypasses admission and health
// bookkeeping; use it before opening traffic.
func (c *Cluster) Prewarm(fn core.Function, p core.Params, tenant string) error {
	if c.closed.Load() {
		return ErrClusterClosed
	}
	lo, hi := fn.Domain()
	x := []float32{float32((lo + hi) / 2)}
	h := keyHash(c.cfg.Seed, fn, p.Normalized(), tenant)
	var scratch [maxReplication]int
	for _, rep := range c.ring.candidates(h, c.cfg.Replication, scratch[:0]) {
		if _, _, err := c.execs[rep].EvaluateBatchTenant(tenant, fn, p, x); err != nil {
			return fmt.Errorf("cluster: prewarm replica %d: %w", rep, err)
		}
	}
	return nil
}

// Stats snapshots the cluster-wide routing counters.
func (c *Cluster) Stats() Stats { return c.met.snapshot(len(c.execs)) }

// Ledger merges the router's own cost rows (sheds, failovers) with
// every replica engine's per-tenant charges into one cluster-wide
// snapshot. Empty when Config.Ledger is off.
func (c *Cluster) Ledger() telemetry.LedgerSnapshot {
	snaps := make([]telemetry.LedgerSnapshot, 0, len(c.engines)+1)
	snaps = append(snaps, c.led.Snapshot())
	for _, e := range c.engines {
		if e != nil {
			snaps = append(snaps, e.Ledger())
		}
	}
	return telemetry.MergeLedgers(snaps...)
}

// TraceLast returns the span tree of the most recently routed request,
// or false when tracing is disabled or nothing has completed.
func (c *Cluster) TraceLast() (*telemetry.Trace, bool) { return c.tracer.Last() }

// Traces returns the retained cluster traces, oldest first (nil when
// tracing is disabled).
func (c *Cluster) Traces() []*telemetry.Trace { return c.tracer.Traces() }

// ReplicaStats snapshots each replica's engine counters.
func (c *Cluster) ReplicaStats() []engine.Stats {
	out := make([]engine.Stats, len(c.execs))
	for i, e := range c.execs {
		out[i] = e.Stats()
	}
	return out
}

// CachedSpecs sums the replicas' configurations that have paid their
// setup — replication means one spec can count on several replicas.
// Injected executors without an engine contribute zero.
func (c *Cluster) CachedSpecs() int {
	n := 0
	for _, e := range c.engines {
		if e != nil {
			n += e.CachedSpecs()
		}
	}
	return n
}

// Health returns the replica health scoreboard.
func (c *Cluster) Health() []ReplicaHealth {
	rows := c.health.Snapshot()
	out := make([]ReplicaHealth, len(rows))
	for i, r := range rows {
		out[i] = ReplicaHealth{
			Replica:     r.DPU,
			Errors:      r.Errors,
			Consecutive: r.Consecutive,
			Quarantined: r.Quarantined,
			Probation:   r.Probation,
		}
	}
	return out
}

// Observe returns the cluster's telemetry handle: the registry behind
// Stats and the cluster /metrics exposition. Per-replica engine
// telemetry is reachable through ReplicaObserve.
func (c *Cluster) Observe() *telemetry.Telemetry { return c.tel }

// ReplicaObserve returns replica i's engine telemetry handle, or nil
// when the replica is an injected executor without one.
func (c *Cluster) ReplicaObserve(i int) *telemetry.Telemetry {
	if i < 0 || i >= len(c.engines) || c.engines[i] == nil {
		return nil
	}
	return c.engines[i].Observe()
}

// Replica returns replica i's engine, or nil for injected executors —
// the per-replica view the root API's Cluster.Replica wraps (accuracy,
// fault logs, lane health).
func (c *Cluster) Replica(i int) *engine.Engine {
	if i < 0 || i >= len(c.engines) {
		return nil
	}
	return c.engines[i]
}

// Close drains and stops every replica. Subsequent calls fail with
// ErrClusterClosed.
func (c *Cluster) Close() {
	if c.closed.Swap(true) {
		return
	}
	for _, e := range c.execs {
		e.Close()
	}
	c.timeline.Close()
}
