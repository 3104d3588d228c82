package transpimlib

import (
	"fmt"

	"transpimlib/internal/cluster"
	"transpimlib/internal/engine"
)

// ErrOverloaded is the cluster's typed load-shedding error: the
// request was refused before any work happened, either because the
// tenant's token bucket was empty or because every candidate replica's
// backlog exceeded ClusterConfig.MaxQueue. Detect it with errors.Is
// and back off before retrying.
var ErrOverloaded = cluster.ErrOverloaded

// ErrClusterClosed is returned by cluster submit paths after Close.
var ErrClusterClosed = cluster.ErrClusterClosed

// TenantQuota is one tenant's admission token bucket, denominated in
// elements: a request for n elements consumes n tokens. Rate refills
// per second; Burst caps the bucket (default: one second of Rate).
type TenantQuota = cluster.Quota

// ClusterStats is the cluster-wide routing counter snapshot: requests,
// sheds by reason, failovers, spills off the primary, degraded serves,
// and the per-replica routed counts.
type ClusterStats = cluster.Stats

// ReplicaHealth is one replica's row of the cluster health scoreboard.
type ReplicaHealth = cluster.ReplicaHealth

// ClusterConfig configures a replicated serving cluster. The zero
// value (with Replicas defaulted to 1) behaves exactly like a single
// Engine: no quotas, no backlog bound, no faults — the differential
// tests pin bit-identity with the single-engine path.
type ClusterConfig struct {
	// Replicas is the engine replica count N (default 1, max 64). Each
	// replica is a full Engine with its own simulated PIM system.
	Replicas int
	// Engine is the per-replica engine template.
	Engine EngineConfig
	// ReplicaFaults overrides the template's fault plan for specific
	// replicas (index → faultsim plan string) — the knob the cluster
	// smoke tests use to fail one replica out of N. An entry with an
	// empty string disables injection on that replica.
	ReplicaFaults map[int]string
	// Replication is K, the size of each key's candidate set on the
	// consistent-hash ring: the replicas its tables may become resident
	// on and the fallback targets for least-loaded placement. Default
	// min(2, Replicas), capped at 16.
	Replication int
	// Seed perturbs the ring and key hashes (default 1). Identical
	// seeds and request sequences yield identical placements.
	Seed uint64
	// Quotas are per-tenant admission token buckets; nil disables quota
	// admission. DefaultQuota, when non-nil, applies to tenants absent
	// from Quotas.
	Quotas       map[string]TenantQuota
	DefaultQuota *TenantQuota
	// MaxQueue, when > 0, sheds a request (ErrOverloaded) when every
	// healthy candidate replica's batcher backlog is at or above it.
	MaxQueue int
	// TraceDepth retains the span trees of the last N routed requests,
	// readable via TraceLast/Traces and served at the cluster handler's
	// /debug/trace. Each trace is one connected tree: the cluster root
	// span, a child per placement-ladder step (attempts, sheds,
	// failovers), and the serving replica's engine pipeline spans
	// grafted underneath. Replica engines whose template leaves
	// TraceDepth unset inherit it, along with a "replica/<i>" process
	// name for Chrome exports. Default 0: tracing disabled.
	TraceDepth int
	// Ledger enables cluster-wide per-tenant cost accounting: each
	// replica engine charges served requests to (tenant, function,
	// method) rows and the router charges sheds and failovers;
	// Cluster.Ledger() merges everything into one snapshot whose cycle
	// totals reconcile ±0 with the simulators'. Off by default.
	Ledger bool
	// Timeline enables the cluster registry's windowed metrics store,
	// served at the cluster handler's /debug/timeline. It covers the
	// cluster_* and tenant_* series; replica engines keep no timeline.
	// Timeline.Enabled false (the default) disables it.
	Timeline TimelineConfig
	// Profiler enables the modeled-cycle profiler on every replica
	// (all-or-nothing, like Ledger). The cluster handler serves the
	// merged /debug/profile and a per-replica /debug/heatmap;
	// Cluster.ProfileSnapshot merges the replica profiles. Off by
	// default.
	Profiler ProfilerConfig
}

// Cluster is a replicated serving front end: N engine replicas behind
// a consistent-hash router with least-loaded fallback, per-tenant
// admission control, load shedding, and replica-granularity failover.
// Safe for concurrent use.
type Cluster struct {
	c *cluster.Cluster
}

// NewCluster builds and starts a cluster of cfg.Replicas engines.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	n := cfg.Replicas
	if n <= 0 {
		n = 1
	}
	engines := make([]engine.Config, n)
	for i := range engines {
		per := cfg.Engine
		if plan, ok := cfg.ReplicaFaults[i]; ok {
			per.Faults = plan
		}
		icfg, err := per.internal()
		if err != nil {
			return nil, fmt.Errorf("transpimlib: replica %d: %w", i, err)
		}
		engines[i] = icfg
	}
	c, err := cluster.New(cluster.Config{
		Engines:      engines,
		TraceDepth:   cfg.TraceDepth,
		Ledger:       cfg.Ledger,
		Timeline:     cfg.Timeline,
		Profiler:     cfg.Profiler,
		Replication:  cfg.Replication,
		Seed:         cfg.Seed,
		Quotas:       cfg.Quotas,
		DefaultQuota: cfg.DefaultQuota,
		MaxQueue:     cfg.MaxQueue,
	})
	if err != nil {
		return nil, fmt.Errorf("transpimlib: %w", err)
	}
	return &Cluster{c: c}, nil
}

// EvaluateBatch routes fn over xs through the cluster with the
// anonymous tenant. See EvaluateBatchAs.
func (c *Cluster) EvaluateBatch(fn Function, spec Config, xs []float32) ([]float32, RequestStats, error) {
	return c.EvaluateBatchAs("", fn, spec, xs)
}

// EvaluateBatchAs routes one tenant-tagged request: admission (quota
// shed with ErrOverloaded), consistent-hash placement with
// least-loaded fallback and backlog shedding, execution on the chosen
// replica, and failover — a replica that fails is penalized on the
// cluster health tracker and the request re-placed among the
// survivors. Results are bit-identical regardless of which replica
// serves (the engine differential contract).
func (c *Cluster) EvaluateBatchAs(tenant string, fn Function, spec Config, xs []float32) ([]float32, RequestStats, error) {
	return c.c.EvaluateBatchTenant(tenant, fn, spec.params(), xs)
}

// Prewarm eagerly pays the spec's setup on every replica in the
// (function, method, tenant) key's candidate set, so every later
// request for the key is a setup-cache hit wherever the router places
// it, on any of the replica's shards.
func (c *Cluster) Prewarm(fn Function, spec Config, tenant string) error {
	return c.c.Prewarm(fn, spec.params(), tenant)
}

// Replicas returns the replica count N.
func (c *Cluster) Replicas() int { return c.c.Replicas() }

// Stats snapshots the cluster-wide routing counters.
func (c *Cluster) Stats() ClusterStats { return c.c.Stats() }

// ReplicaStats snapshots each replica's engine-wide counters.
func (c *Cluster) ReplicaStats() []EngineStats { return c.c.ReplicaStats() }

// CachedSpecs sums the replicas' configurations that have paid their
// setup; with replication one spec can count on several replicas.
func (c *Cluster) CachedSpecs() int { return c.c.CachedSpecs() }

// Health returns the replica health scoreboard: lifetime errors,
// consecutive-failure streaks, and quarantine/probation state.
func (c *Cluster) Health() []ReplicaHealth { return c.c.Health() }

// TraceLast returns the span tree of the most recently routed request
// — cluster placement spans with the serving replica's pipeline spans
// grafted underneath — or false when tracing is disabled
// (TraceDepth 0) or no request has completed yet.
func (c *Cluster) TraceLast() (*Trace, bool) { return c.c.TraceLast() }

// Traces returns the retained request traces, oldest first (nil when
// tracing is disabled).
func (c *Cluster) Traces() []*Trace { return c.c.Traces() }

// Ledger merges the router's cost rows (sheds, failovers) with every
// replica engine's ledger into one cluster-wide per-tenant snapshot
// (empty when ClusterConfig.Ledger is off).
func (c *Cluster) Ledger() LedgerSnapshot { return c.c.Ledger() }

// ProfileSnapshot merges every replica's modeled-cycle profile into
// one cluster-wide view; ok is false when ClusterConfig.Profiler is
// off.
func (c *Cluster) ProfileSnapshot() (CycleProfile, bool) { return c.c.ProfileSnapshot() }

// Observe returns the cluster's telemetry handle: the registry behind
// Stats with the cluster_* series (per-replica routed counts, queue
// depths, health gauges). Per-replica engine telemetry is reachable
// through ReplicaObserve.
func (c *Cluster) Observe() *Telemetry { return c.c.Observe() }

// ReplicaObserve returns replica i's engine telemetry handle (nil for
// an out-of-range index).
func (c *Cluster) ReplicaObserve(i int) *Telemetry { return c.c.ReplicaObserve(i) }

// Replica returns replica i's engine (nil for an out-of-range index)
// for per-replica views: accuracy snapshots and SLO violations, the
// fault log and lane health. The cluster owns the engine and closes it
// in Close.
func (c *Cluster) Replica(i int) *Engine {
	e := c.c.Replica(i)
	if e == nil {
		return nil
	}
	return &Engine{e: e}
}

// Close drains and stops every replica.
func (c *Cluster) Close() { c.c.Close() }
