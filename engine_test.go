package transpimlib

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

func TestEngineEvaluateBatch(t *testing.T) {
	// One shard: table residency is per shard, so a single-shard engine
	// makes the hit/miss sequence deterministic.
	eng, err := NewEngine(EngineConfig{DPUs: 4, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	xs := make([]float32, 257)
	for i := range xs {
		xs[i] = -6 + 12*float32(i)/float32(len(xs)-1)
	}
	spec := Config{Method: LLUT, Interpolated: true, SizeLog2: 12}

	ys, st, err := eng.EvaluateBatch(Sigmoid, spec, xs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ys) != len(xs) {
		t.Fatalf("got %d outputs for %d inputs", len(ys), len(xs))
	}
	for i, x := range xs {
		want := 1 / (1 + math.Exp(-float64(x)))
		if math.Abs(float64(ys[i])-want) > 1e-2 {
			t.Fatalf("sigmoid(%v) = %v, want ≈ %v", x, ys[i], want)
		}
	}
	if st.CacheHit {
		t.Fatal("first request must be a cache miss")
	}
	if st.SetupSeconds <= 0 {
		t.Fatal("cold request must charge setup time")
	}

	_, st2, err := eng.EvaluateBatch(Sigmoid, spec, xs)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.CacheHit || st2.SetupSeconds != 0 {
		t.Fatalf("second request must hit the cache with zero setup, got hit=%v setup=%v",
			st2.CacheHit, st2.SetupSeconds)
	}
	if eng.CachedSpecs() != 1 {
		t.Fatalf("CachedSpecs = %d, want 1", eng.CachedSpecs())
	}
	if s := eng.Stats(); s.Requests != 2 || s.Elements != uint64(2*len(xs)) {
		t.Fatalf("stats = %+v", s)
	}
}

func TestEngineConcurrentPublicAPI(t *testing.T) {
	eng, err := NewEngine(EngineConfig{DPUs: 4, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	specs := []struct {
		fn   Function
		cfg  Config
		want func(float64) float64
	}{
		{Sigmoid, Config{Method: LLUT, Interpolated: true, SizeLog2: 12},
			func(x float64) float64 { return 1 / (1 + math.Exp(-x)) }},
		{Exp, Config{Method: LLUTFixed, Interpolated: true, SizeLog2: 12},
			math.Exp},
		{Tanh, Config{Method: DLLUT, Interpolated: true, SizeLog2: 12},
			math.Tanh},
	}
	var wg sync.WaitGroup
	errs := make(chan error, 12)
	for g := 0; g < 6; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := specs[g%len(specs)]
			xs := make([]float32, 96)
			for i := range xs {
				xs[i] = -2 + 4*float32(i)/float32(len(xs))
			}
			ys, _, err := eng.EvaluateBatch(sp.fn, sp.cfg, xs)
			if err != nil {
				errs <- err
				return
			}
			for i, x := range xs {
				if math.Abs(float64(ys[i])-sp.want(float64(x))) > 5e-2 {
					errs <- fmt.Errorf("%v(%v) = %v, want ≈ %v", sp.fn, x, ys[i], sp.want(float64(x)))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
