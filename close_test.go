package transpimlib

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCloseLeaksNoGoroutines: an engine and a 2-replica cluster with
// every observer on and a fault plan that fires serve concurrent
// requests and programs; after Close the goroutine count must return
// to what it was before they were built — pipeline stages, launch
// workers, and the cluster's timeline ticker all exit. It runs without a batch
// window, where lone requests run on their callers, and with one,
// where every request is queued. A second wave of traffic is still
// running when Close starts, so Close meets callers holding shards:
// it must neither panic nor hang, and those requests either complete
// or fail as closed.
func TestCloseLeaksNoGoroutines(t *testing.T) {
	for _, window := range []time.Duration{0, time.Millisecond} {
		t.Run(fmt.Sprintf("window=%v", window), func(t *testing.T) {
			closeLeaksNoGoroutines(t, window)
		})
	}
}

func closeLeaksNoGoroutines(t *testing.T, window time.Duration) {
	baseline := runtime.NumGoroutine()

	tmpl := EngineConfig{
		DPUs: 4, Shards: 2, MaxBatch: 256, BatchWindow: window,
		TraceDepth:  16,
		Ledger:      true,
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

	// wave runs four workers, each sending up to rounds requests (-1:
	// until the engine or cluster closes), and reports the requests
	// served. closing tolerates the errors of a closed engine or cluster.
	wave := func(rounds int, closing bool) (served *atomic.Int64, wait func()) {
		served = new(atomic.Int64)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				tenant := []string{"acme", "globex"}[w%2]
				for i := 0; i != rounds; i++ {
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
					if closing && (errors.Is(err, ErrEngineClosed) || errors.Is(err, ErrClusterClosed)) {
						return
					}
					if err != nil {
						t.Error(err)
						return
					}
					served.Add(1)
				}
			}(w)
		}
		return served, wg.Wait
	}
	_, wait := wave(12, false)
	wait()
	fired := eng.Stats().FaultsInjected
	for _, st := range cl.ReplicaStats() {
		fired += st.FaultsInjected
	}
	served, wait := wave(-1, true)
	for start := time.Now(); served.Load() < 8 && time.Since(start) < 10*time.Second; {
		time.Sleep(time.Millisecond)
	}
	cl.Close()
	eng.Close()
	wait()
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
