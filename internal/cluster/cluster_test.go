package cluster

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"transpimlib/internal/core"
	"transpimlib/internal/engine"
)

func testParams() core.Params {
	return core.Params{Method: core.LLUT, Interp: true, SizeLog2: 10}
}

// TestQuotaShedTyped: a tenant over its token bucket is refused with
// ErrOverloaded, counted as a quota shed, and never reaches a replica.
func TestQuotaShedTyped(t *testing.T) {
	fakes, execs := newFakes(2)
	var now atomic.Int64
	c, err := NewWithExecutors(Config{
		Quotas: map[string]Quota{"metered": {Rate: 10, Burst: 100}},
		Clock:  func() time.Time { return time.Unix(0, now.Load()) },
	}, execs)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	xs := make([]float32, 60)
	// Burst 100 admits one 60-element request; the second (same
	// instant) finds 40 tokens and is shed.
	if _, _, err := c.EvaluateBatchTenant("metered", core.Exp, testParams(), xs); err != nil {
		t.Fatalf("first request: %v", err)
	}
	_, _, err = c.EvaluateBatchTenant("metered", core.Exp, testParams(), xs)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second request: got %v, want ErrOverloaded", err)
	}
	if !strings.Contains(err.Error(), "metered") {
		t.Fatalf("shed error does not name the tenant: %v", err)
	}
	// An unmetered tenant is unaffected.
	if _, _, err := c.EvaluateBatchTenant("free", core.Exp, testParams(), xs); err != nil {
		t.Fatalf("unmetered tenant: %v", err)
	}
	// Advancing the clock 6s refills 60 tokens: admitted again.
	now.Store(int64(6 * time.Second))
	if _, _, err := c.EvaluateBatchTenant("metered", core.Exp, testParams(), xs); err != nil {
		t.Fatalf("after refill: %v", err)
	}
	st := c.Stats()
	if st.ShedQuota != 1 || st.ShedQueue != 0 || st.Shed != 1 {
		t.Fatalf("shed counters: %+v", st)
	}
	if got := fakes[0].calls.Load() + fakes[1].calls.Load(); got != 3 {
		t.Fatalf("replicas saw %d calls, want 3 (shed request must not execute)", got)
	}
}

// TestQueueShedTyped: when every candidate replica's backlog is at the
// bound, the request is shed with ErrOverloaded (queue reason).
func TestQueueShedTyped(t *testing.T) {
	fakes, execs := newFakes(3)
	c, err := NewWithExecutors(Config{Replication: 3, MaxQueue: 4}, execs)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, f := range fakes {
		f.depth.Store(4)
	}
	xs := make([]float32, 8)
	_, _, err = c.EvaluateBatchTenant("t", core.Exp, testParams(), xs)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("got %v, want ErrOverloaded", err)
	}
	if st := c.Stats(); st.ShedQueue != 1 || st.ShedQuota != 0 {
		t.Fatalf("shed counters: %+v", st)
	}
	// One replica dropping under the bound is enough to serve again.
	fakes[2].depth.Store(0)
	if _, _, err := c.EvaluateBatchTenant("t", core.Exp, testParams(), xs); err != nil {
		t.Fatalf("after backlog drained: %v", err)
	}
}

// TestFailoverExhaustion: when every replica fails at the
// infrastructure level the caller gets a wrapped replica error, not
// ErrOverloaded, and every replica was tried exactly once.
func TestFailoverExhaustion(t *testing.T) {
	fakes, execs := newFakes(3)
	c, err := NewWithExecutors(Config{Replication: 2}, execs)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, f := range fakes {
		f.failing.Store(true)
	}
	xs := make([]float32, 8)
	_, _, err = c.EvaluateBatchTenant("t", core.Exp, testParams(), xs)
	if err == nil || errors.Is(err, ErrOverloaded) {
		t.Fatalf("got %v, want replica failure", err)
	}
	if !errors.Is(err, engine.ErrEngineClosed) {
		t.Fatalf("exhaustion error should wrap the last replica error, got %v", err)
	}
	for i, f := range fakes {
		if f.calls.Load() != 1 {
			t.Fatalf("replica %d tried %d times, want exactly 1", i, f.calls.Load())
		}
	}
	if st := c.Stats(); st.Failovers != 3 {
		t.Fatalf("failovers = %d, want 3", st.Failovers)
	}
}

// TestDeterministicErrorNoFailover: a request error every replica
// would reproduce (unsupported method for the function) returns
// immediately — no retry on another replica, no health penalty.
func TestDeterministicErrorNoFailover(t *testing.T) {
	cfg := engine.Config{DPUs: 2, Shards: 1, MaxBatch: 256}
	c, err := New(Config{Engines: []engine.Config{cfg, cfg}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// CORDIC does not implement GELU.
	p := core.Params{Method: core.CORDIC, Iterations: 16}
	xs := make([]float32, 8)
	_, _, err = c.EvaluateBatchTenant("t", core.GELU, p, xs)
	if err == nil {
		t.Fatal("expected an unsupported-spec error")
	}
	if st := c.Stats(); st.Failovers != 0 {
		t.Fatalf("deterministic error caused %d failovers", st.Failovers)
	}
	for _, h := range c.Health() {
		if h.Errors != 0 {
			t.Fatalf("deterministic error penalized replica health: %+v", h)
		}
	}
}

// TestPrewarmReplicates: Prewarm builds a spec's tables on every
// replica in the key's candidate set, so the first real request hits a
// warm cache wherever the router places it.
func TestPrewarmReplicates(t *testing.T) {
	cfg := engine.Config{DPUs: 2, Shards: 1, MaxBatch: 256}
	c, err := New(Config{
		Engines:     []engine.Config{cfg, cfg, cfg, cfg},
		Replication: 2,
		Seed:        9,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Prewarm(core.Sigmoid, testParams(), "warmed"); err != nil {
		t.Fatal(err)
	}
	warm := 0
	for i := 0; i < c.Replicas(); i++ {
		if c.Replica(i).CachedSpecs() > 0 {
			warm++
		}
	}
	if warm != 2 {
		t.Fatalf("tables resident on %d replicas, want exactly the K=2 candidate set", warm)
	}
	// The real request must be a cache hit.
	xs := make([]float32, 32)
	_, st, err := c.EvaluateBatchTenant("warmed", core.Sigmoid, testParams(), xs)
	if err != nil {
		t.Fatal(err)
	}
	if !st.CacheHit {
		t.Fatal("request after Prewarm missed the setup cache")
	}
}

// TestPrewarmWarmsEveryShard: on default replicas (two shards each),
// Prewarm pays a spec's setup once per replica, so every later request
// for the key is a cache hit whichever shard serves it.
func TestPrewarmWarmsEveryShard(t *testing.T) {
	c, err := New(Config{Engines: []engine.Config{{}, {}}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Prewarm(core.Sigmoid, testParams(), "warmed"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				_, st, err := c.EvaluateBatchTenant("warmed", core.Sigmoid, testParams(), make([]float32, 32))
				if err != nil {
					t.Error(err)
					return
				}
				if !st.CacheHit || st.SetupSeconds != 0 {
					t.Errorf("request after Prewarm missed the setup cache: %+v", st)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestClusterClosed: submits after Close fail with ErrClusterClosed.
func TestClusterClosed(t *testing.T) {
	_, execs := newFakes(2)
	c, err := NewWithExecutors(Config{}, execs)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	c.Close() // idempotent
	if _, _, err := c.EvaluateBatchTenant("t", core.Exp, testParams(), make([]float32, 4)); !errors.Is(err, ErrClusterClosed) {
		t.Fatalf("got %v, want ErrClusterClosed", err)
	}
	if err := c.Prewarm(core.Exp, testParams(), "t"); !errors.Is(err, ErrClusterClosed) {
		t.Fatalf("prewarm after close: %v", err)
	}
}

// TestClusterMetricsExposition: the cluster telemetry registry carries
// the cluster_* series with per-replica labels.
func TestClusterMetricsExposition(t *testing.T) {
	fakes, execs := newFakes(2)
	c, err := NewWithExecutors(Config{MaxQueue: 1}, execs)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.EvaluateBatchTenant("t", core.Exp, testParams(), make([]float32, 4)); err != nil {
		t.Fatal(err)
	}
	fakes[0].depth.Store(5)
	fakes[1].depth.Store(5)
	if _, _, err := c.EvaluateBatchTenant("t", core.Exp, testParams(), make([]float32, 4)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("expected queue shed, got %v", err)
	}
	var sb strings.Builder
	if err := c.Observe().Registry.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"cluster_requests_total 2",
		`cluster_shed_total{reason="queue"} 1`,
		`cluster_routed_total{replica="0"}`,
		`cluster_routed_total{replica="1"}`,
		`cluster_replica_queue_depth{replica="0"}`,
		"cluster_quarantined_replicas 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}
