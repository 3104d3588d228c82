package transpimlib

import (
	"errors"
	"math"
	"testing"

	"transpimlib/internal/stats"
)

// TestClusterPublicAPI drives the public Cluster through its paces:
// N=1 pass-through bit-identity with a bare Engine, tenant quotas with
// ErrOverloaded, and a per-replica fault plan exercising failover
// without incorrect results.
func TestClusterPublicAPI(t *testing.T) {
	spec := Config{Method: LLUT, Interpolated: true, SizeLog2: 12}
	xs := make([]float32, 300)
	for i := range xs {
		xs[i] = -6 + 12*float32(i)/float32(len(xs)-1)
	}

	t.Run("single-replica passthrough", func(t *testing.T) {
		eng, err := NewEngine(EngineConfig{DPUs: 4, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		cl, err := NewCluster(ClusterConfig{Engine: EngineConfig{DPUs: 4, Shards: 1}})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if cl.Replicas() != 1 {
			t.Fatalf("default replica count = %d, want 1", cl.Replicas())
		}
		want, st1, err := eng.EvaluateBatch(Sigmoid, spec, xs)
		if err != nil {
			t.Fatal(err)
		}
		got, st2, err := cl.EvaluateBatch(Sigmoid, spec, xs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
				t.Fatalf("elem %d: engine %x cluster %x", i,
					math.Float32bits(want[i]), math.Float32bits(got[i]))
			}
		}
		if st1.KernelCycles != st2.KernelCycles {
			t.Fatalf("kernel cycles diverge: %d vs %d", st1.KernelCycles, st2.KernelCycles)
		}
	})

	t.Run("quota shed", func(t *testing.T) {
		cl, err := NewCluster(ClusterConfig{
			Replicas: 2,
			Engine:   EngineConfig{DPUs: 2, Shards: 1},
			Quotas:   map[string]TenantQuota{"metered": {Rate: 1, Burst: float64(len(xs))}},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if _, _, err := cl.EvaluateBatchAs("metered", Sigmoid, spec, xs); err != nil {
			t.Fatalf("first request within burst: %v", err)
		}
		_, _, err = cl.EvaluateBatchAs("metered", Sigmoid, spec, xs)
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("got %v, want ErrOverloaded", err)
		}
		if st := cl.Stats(); st.ShedQuota != 1 {
			t.Fatalf("stats: %+v", st)
		}
	})

	t.Run("replica fault plan", func(t *testing.T) {
		cl, err := NewCluster(ClusterConfig{
			Replicas:      3,
			Engine:        EngineConfig{DPUs: 2, Shards: 1},
			ReplicaFaults: map[int]string{1: "seed=7,dpufail=1"},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		ref, err := NewEngine(EngineConfig{DPUs: 2, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer ref.Close()
		want, _, err := ref.EvaluateBatch(Exp, spec, xs)
		if err != nil {
			t.Fatal(err)
		}
		for _, tenant := range []string{"a", "b", "c", "d", "e", "f"} {
			got, _, err := cl.EvaluateBatchAs(tenant, Exp, spec, xs)
			if err != nil {
				t.Fatalf("tenant %s: %v", tenant, err)
			}
			for i := range want {
				if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
					t.Fatalf("tenant %s elem %d: %x vs %x", tenant, i,
						math.Float32bits(want[i]), math.Float32bits(got[i]))
				}
			}
		}
		if len(cl.Health()) != 3 {
			t.Fatalf("health rows: %d", len(cl.Health()))
		}
	})

	t.Run("bad fault plan", func(t *testing.T) {
		_, err := NewCluster(ClusterConfig{
			Replicas:      2,
			ReplicaFaults: map[int]string{0: "nonsense=plan"},
		})
		if err == nil {
			t.Fatal("bad per-replica fault plan accepted")
		}
	})
}

// TestObservedRequestAllocs bounds what the observers add to one warm
// request: with cluster-small's five observers on, a 64-element
// request makes at most 3 more allocations than with all of them off.
// The simulator measures every launch once whether or not anyone
// observes it, so the observers pay only for what they record.
// The warm-up takes trace ids to four digits, so a span or label
// formatter whose cost grows with the id shows here.
func TestObservedRequestAllocs(t *testing.T) {
	xs := stats.RandomInputs(-6, 6, 64, 1)
	perRequest := func(all bool) float64 {
		cl := newObserverCluster(t, all)
		defer cl.Close()
		for i := 0; i < 2000; i++ {
			if _, _, err := cl.EvaluateBatchAs(observerTenants[i%len(observerTenants)], Sigmoid, observerSpec, xs); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(1000, func() {
			if _, _, err := cl.EvaluateBatchAs(observerTenants[0], Sigmoid, observerSpec, xs); err != nil {
				t.Fatal(err)
			}
		})
	}
	off, all := perRequest(false), perRequest(true)
	t.Logf("allocs per request: observers off %.0f, all on %.0f", off, all)
	if all > off+3 {
		t.Fatalf("observers add %.0f allocs per request (off %.0f, all on %.0f), want at most 3", all-off, off, all)
	}
}
