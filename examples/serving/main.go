// Serving: drive the long-lived Engine runtime with a mixed
// sigmoid/GELU/exp workload and watch the setup cache do its job —
// the first request per configuration pays the paper's Fig.-6 setup
// cost (table generation + Host→PIM transfer), every later one, on
// either shard, is a cache hit and only pays the pipelined
// transfer-in/compute/transfer-out datapath.
package main

import (
	"fmt"
	"math"
	"sync"

	"transpimlib"
)

func main() {
	// The default engine: eight cores in two shards.
	eng, err := transpimlib.NewEngine(transpimlib.EngineConfig{})
	if err != nil {
		panic(err)
	}
	defer eng.Close()

	mix := []struct {
		name string
		fn   transpimlib.Function
		cfg  transpimlib.Config
	}{
		{"sigmoid", transpimlib.Sigmoid,
			transpimlib.Config{Method: transpimlib.LLUT, Interpolated: true, SizeLog2: 12}},
		{"gelu", transpimlib.GELU,
			transpimlib.Config{Method: transpimlib.DLLUT, Interpolated: true, SizeLog2: 12}},
		{"exp", transpimlib.Exp,
			transpimlib.Config{Method: transpimlib.LLUTFixed, Interpolated: true, SizeLog2: 12}},
	}

	xs := make([]float32, 1024)
	for i := range xs {
		xs[i] = -2 + 4*float32(i)/float32(len(xs))
	}

	// Round 1: every configuration is cold — tables are generated and
	// broadcast to the serving cores.
	fmt.Println("cold round:")
	for _, m := range mix {
		ys, st, err := eng.EvaluateBatch(m.fn, m.cfg, xs)
		if err != nil {
			panic(err)
		}
		fmt.Printf("  %-8s %4d elems  setup %.3gs  modeled %.3gs  (%s(0.5) = %.4f)\n",
			m.name, len(ys), st.SetupSeconds, st.ModeledSeconds(), m.name, ys[len(xs)*5/8])
	}

	// Round 2: same mix, now concurrently — every request is a cache
	// hit whichever shard serves it, so setup is zero and only the
	// datapath is charged.
	fmt.Println("warm round (concurrent):")
	var wg sync.WaitGroup
	warm := make([]transpimlib.RequestStats, len(mix))
	for i, m := range mix {
		i, m := i, m
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, st, err := eng.EvaluateBatch(m.fn, m.cfg, xs)
			if err != nil {
				panic(err)
			}
			warm[i] = st
		}()
	}
	wg.Wait()
	for i, m := range mix {
		fmt.Printf("  %-8s warm request: cache hit %v, setup %.3gs, modeled %.3gs\n",
			m.name, warm[i].CacheHit, warm[i].SetupSeconds, warm[i].ModeledSeconds())
		if !warm[i].CacheHit || warm[i].SetupSeconds != 0 {
			panic("warm request rebuilt tables")
		}
		if math.IsNaN(float64(warm[i].ComputeSeconds)) {
			panic("missing compute cost")
		}
	}

	st := eng.Stats()
	fmt.Printf("\nengine totals: %d requests, %d batches, %d cache hits / %d misses, %d specs resident\n",
		st.Requests, st.Batches, st.CacheHits, st.CacheMisses, eng.CachedSpecs())
}
