package engine

import (
	"transpimlib/internal/core"
	"transpimlib/internal/telemetry"
)

// This file names the engine's execution stage as the interface a
// front-end router feeds: internal/cluster treats each engine replica
// as one Executor and never reaches below this surface.

// Executor is the execution stage seen from above: something that can
// evaluate a batch for a tenant, report its backlog and counters, and
// shut down. *Engine is the canonical implementation; the cluster
// router feeds requests to a set of Executors and a test can feed it
// fakes.
type Executor interface {
	// EvaluateBatchTenant evaluates fn(x) for every x under p,
	// attributing the request to tenant. Safe for concurrent use.
	EvaluateBatchTenant(tenant string, fn core.Function, p core.Params, xs []float32) ([]float32, RequestStats, error)
	// QueueDepth is the current coalescing-batcher backlog — the
	// router's least-loaded placement signal.
	QueueDepth() int
	// Stats snapshots the executor-wide counters.
	Stats() Stats
	// Close drains in-flight work and stops the executor.
	Close()
}

var _ Executor = (*Engine)(nil)

// TracedExecutor is an Executor that accepts an externally minted
// trace identity and returns the request's trace record, so a router
// can graft the execution-side spans under its own placement spans —
// one connected trace across layers. Executors without tracing enabled
// return a nil record.
type TracedExecutor interface {
	Executor
	EvaluateBatchTraced(tenant string, traceID uint64, fn core.Function, p core.Params, xs []float32) ([]float32, RequestStats, telemetry.Record, error)
}

var _ TracedExecutor = (*Engine)(nil)
