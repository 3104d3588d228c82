package transpimlib

import (
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCloseLeaksNoGoroutines: an engine and a 2-replica cluster with
// every observer on and a fault plan that fires serve concurrent
// requests and programs; after Close the goroutine count must return
// to what it was before they were built — pipeline stages, launch
// workers, and the timeline tickers all exit.
func TestCloseLeaksNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()

	tmpl := EngineConfig{
		DPUs: 4, Shards: 2, MaxBatch: 256, BatchWindow: time.Millisecond,
		TraceDepth:  16,
		Ledger:      true,
		Timeline:    TimelineConfig{Enabled: true, BucketWidth: 5 * time.Millisecond},
		Profiler:    ProfilerConfig{Enabled: true},
		Accuracy:    AccuracyConfig{Enabled: true, SampleRate: 0.25},
		Faults:      "seed=3,dpufail=0.2,dpuslow=0.2x4,transfer=0.05",
		Reliability: ReliabilityConfig{HedgeRatio: 2},
	}
	eng, err := NewEngine(tmpl)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(ClusterConfig{
		Replicas:   2,
		Engine:     tmpl,
		TraceDepth: 16,
		Ledger:     true,
		Timeline:   TimelineConfig{Enabled: true, BucketWidth: 5 * time.Millisecond},
		Profiler:   ProfilerConfig{Enabled: true},
	})
	if err != nil {
		eng.Close()
		t.Fatal(err)
	}

	spec := Config{Method: LLUT, Interpolated: true, SizeLog2: 12}
	p := NewProgram("softmax")
	x := p.Input()
	e := p.Func(Exp, p.Sub(x, p.Broadcast(p.ReduceMax(x))))
	p.Return(p.Mul(e, p.Div(p.Const(1), p.Broadcast(p.ReduceSum(e)))))
	prog, err := eng.CompileProgram(p, spec)
	if err != nil {
		cl.Close()
		eng.Close()
		t.Fatal(err)
	}
	inputs := func(n, seed int) []float32 {
		xs := make([]float32, n)
		for i := range xs {
			xs[i] = float32((i*7+seed)%23)/3 - 4
		}
		return xs
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tenant := []string{"acme", "globex"}[w%2]
			for i := 0; i < 12; i++ {
				xs := inputs(1+(w*97+i*31)%256, w*100+i)
				var err error
				switch w {
				case 0:
					_, _, err = eng.EvaluateBatchAs(tenant, Sigmoid, spec, xs)
				case 1:
					_, _, err = eng.EvaluateProgramAs(tenant, prog, [][]float32{xs}, nil)
				default:
					_, _, err = cl.EvaluateBatchAs(tenant, Sigmoid, spec, xs)
				}
				if err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	fired := eng.Stats().FaultsInjected
	for _, st := range cl.ReplicaStats() {
		fired += st.FaultsInjected
	}
	cl.Close()
	eng.Close()
	if fired == 0 {
		t.Fatal("the fault plan never fired")
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			var sb strings.Builder
			pprof.Lookup("goroutine").WriteTo(&sb, 1)
			t.Fatalf("%d goroutines after Close, %d before:\n%s", runtime.NumGoroutine(), baseline, sb.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
