package cluster

import (
	"fmt"
	"time"

	"transpimlib/internal/core"
	"transpimlib/internal/engine"
	"transpimlib/internal/telemetry"
)

// reqTrace is one routed request's trace record: the plain fields the
// placement ladder stamps, from which Materialize builds the span tree
// when a reader asks. It exists only when tracing is enabled (nil
// otherwise, so the disabled path takes no timestamps and allocates
// nothing) and lives entirely on the request goroutine until finish
// pushes it into the tracer ring, after which it is immutable.
type reqTrace struct {
	id         uint64
	start, end time.Time
	fn         core.Function
	par        core.Params
	n          int
	tenant     string
	err        error

	// shedReason is the terminal shed span's reason ("quota" or
	// "queue"), empty when the request was not shed.
	shedReason string
	shedAt     time.Time

	// attempts holds one record per placement-ladder rung. It starts on
	// inline, which covers one failover without a second allocation.
	attempts []attemptRecord
	inline   [2]attemptRecord
}

// attemptRecord is one placement-ladder rung: the routing decision
// and, on a served attempt, the chosen replica's own trace record,
// grafted by reference.
type attemptRecord struct {
	pl         placement
	start, end time.Time
	err        error
	failover   bool
	served     bool // cacheHit is set
	cacheHit   bool
	rec        telemetry.Record // the replica's record; nil if none
}

// beginTrace mints the cluster-boundary trace identity and stamps the
// root's start. Returns nil when tracing is disabled.
func (c *Cluster) beginTrace(tenant string, fn core.Function, p core.Params, n int) *reqTrace {
	if c.tracer == nil {
		return nil
	}
	t := &reqTrace{start: time.Now(), fn: fn, par: p, n: n, tenant: tenant}
	t.attempts = t.inline[:0]
	t.id = c.tracer.NextID()
	return t
}

// shed records a terminal shed (admission quota or backlog bound).
func (t *reqTrace) shed(reason string) {
	t.shedReason, t.shedAt = reason, time.Now()
}

// attempt opens the next placement-ladder rung, which covers the
// routing decision and, on a served attempt, the execution on the
// chosen replica. The returned pointer is valid until the next attempt.
func (t *reqTrace) attempt(pl placement) *attemptRecord {
	t.attempts = append(t.attempts, attemptRecord{pl: pl, start: time.Now()})
	return &t.attempts[len(t.attempts)-1]
}

// finish stamps the root's end and publishes the record. err, when
// non-nil, marks the whole trace failed.
func (t *reqTrace) finish(c *Cluster, err error) {
	t.end = time.Now()
	t.err = err
	c.tracer.Push(t)
}

// Materialize builds the routed request's span tree: the
// cluster_request root, one attempt[k] span per ladder rung with the
// serving replica's request subtree (in its own process lane) under
// it, then the shed span if the request was shed.
func (t *reqTrace) Materialize() *telemetry.Trace {
	root := &telemetry.Span{Name: "cluster_request", Proc: "cluster", Start: t.start, End: t.end}
	root.SetAttr("fn", t.fn.String())
	root.SetAttr("method", engine.MethodLabel(t.par))
	root.SetAttr("elements", fmt.Sprint(t.n))
	if t.tenant != "" {
		root.SetAttr("tenant", t.tenant)
	}
	for i := range t.attempts {
		a := &t.attempts[i]
		s := &telemetry.Span{Name: fmt.Sprintf("attempt[%d]", i), Start: a.start, End: a.end}
		s.SetAttr("primary", fmt.Sprint(a.pl.Primary))
		s.SetAttr("replica", fmt.Sprint(a.pl.Replica))
		if a.pl.Spilled {
			s.SetAttr("spilled", "true")
		}
		if a.rec != nil {
			s.AddChild(a.rec.Materialize().Root)
		}
		if a.err != nil {
			s.Err = a.err.Error()
		}
		if a.failover {
			s.SetAttr("failover", "true")
		}
		if a.served {
			// Prewarm/replication visibility: had the serving replica
			// already paid the spec's setup?
			s.SetAttr("cache_hit", fmt.Sprint(a.cacheHit))
		}
		root.AddChild(s)
	}
	if t.shedReason != "" {
		s := &telemetry.Span{Name: "shed", Start: t.shedAt, End: t.shedAt, Err: "overloaded"}
		s.SetAttr("reason", t.shedReason)
		root.AddChild(s)
	}
	if t.err != nil {
		root.Err = t.err.Error()
	}
	return &telemetry.Trace{ID: t.id, Root: root}
}
