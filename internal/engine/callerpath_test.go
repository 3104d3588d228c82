package engine

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"transpimlib/internal/core"
	"transpimlib/internal/pimsim"
	"transpimlib/internal/profiler"
	"transpimlib/internal/stats"
)

// goroutines returns the stack of every goroutine in the process, one
// string each, headed by its "goroutine N [state]:" line.
func goroutines() []string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Split(string(buf[:n]), "\n\n")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// parked counts the goroutines waiting in one of states whose stack
// passes through frame.
func parked(frame string, states ...string) int {
	n := 0
	for _, g := range goroutines() {
		head, _, _ := strings.Cut(g, "\n")
		if !strings.Contains(g, frame) {
			continue
		}
		for _, st := range states {
			if strings.Contains(head, "["+st+"]") || strings.Contains(head, "["+st+",") {
				n++
				break
			}
		}
	}
	return n
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// pathProbe records, for every lane a launch runs, which goroutine owns
// the batch: a caller inside Engine.run, or a shard's goroutine. The
// lane itself runs on a crew worker; the owner is the goroutine parked
// in runBatch meanwhile.
type pathProbe struct {
	mu             sync.Mutex
	caller, queued int
}

// probePaths wraps every shard kernel of e with a pathProbe. Call it
// before the engine's first request.
func probePaths(e *Engine) *pathProbe {
	p := &pathProbe{}
	for _, s := range e.shards {
		batch, prog := s.batchKernel, s.programKernel
		s.batchKernel = func(ctx *pimsim.Ctx, id int) error {
			p.observe()
			return batch(ctx, id)
		}
		s.programKernel = func(ctx *pimsim.Ctx, id int) error {
			p.observe()
			return prog(ctx, id)
		}
	}
	return p
}

func (p *pathProbe) observe() {
	var caller, queued int
	for _, g := range goroutines() {
		switch {
		case !strings.Contains(g, "(*Engine).runBatch("):
		case strings.Contains(g, "(*Engine).serveShard("):
			queued++
		case strings.Contains(g, "(*Engine).run("):
			caller++
		}
	}
	p.mu.Lock()
	p.caller += caller
	p.queued += queued
	p.mu.Unlock()
}

func (p *pathProbe) counts() (caller, queued int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.caller, p.queued
}

// TestCallerRunsLoneRequest tells the two paths apart: on an idle
// engine without a batch window, a lone request and a fused program run
// under their caller's goroutine, with no batcher or shard goroutine in
// between. A request larger than MaxBatch, and any request on an engine
// with a window, runs under a shard's goroutine.
func TestCallerRunsLoneRequest(t *testing.T) {
	fn, par := llutSpec()
	small := stats.RandomInputs(-7.9, 7.9, 100, 1)
	large := stats.RandomInputs(-7.9, 7.9, 300, 2)
	batch := func(xs []float32) func(*Engine) error {
		return func(e *Engine) error {
			_, _, err := e.EvaluateBatch(fn, par, xs)
			return err
		}
	}
	program := func(e *Engine) error {
		prog, err := e.CompileProgram(progSoftmax(), progParams())
		if err == nil {
			_, _, err = e.EvaluateProgram(prog, [][]float32{small}, nil)
		}
		return err
	}
	for _, tc := range []struct {
		name   string
		window time.Duration
		eval   func(*Engine) error
		caller bool
	}{
		{"lone request", 0, batch(small), true},
		{"fused program", 0, program, true},
		{"larger than MaxBatch", 0, batch(large), false},
		{"batch window", time.Millisecond, batch(small), false},
		{"fused program with a batch window", time.Millisecond, program, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := New(Config{DPUs: 4, Shards: 2, MaxBatch: 256, BatchWindow: tc.window})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			probe := probePaths(e)
			if err := tc.eval(e); err != nil {
				t.Fatal(err)
			}
			caller, queued := probe.counts()
			if tc.caller && (caller == 0 || queued != 0) || !tc.caller && (caller != 0 || queued == 0) {
				t.Fatalf("lanes ran %d times under the caller and %d under a shard goroutine, want only the %s",
					caller, queued, map[bool]string{true: "caller", false: "shard goroutine"}[tc.caller])
			}
		})
	}
}

// TestCallerAndQueuedPathsAgree feeds one sequential stream through a
// default engine, whose lone requests run on their callers, and through
// the same configuration with a batch window, whose requests all take
// the queued path. The stream holds a cold and a warm spec, a request
// larger than MaxBatch, a fused program, a request whose tables
// overflow WRAM, and a fault plan that fires. Outputs, every modeled
// RequestStats field, the Stats counters, the fault log, the ledger and
// the profile must match exactly.
func TestCallerAndQueuedPathsAgree(t *testing.T) {
	cfg := Config{
		DPUs: 4, Shards: 1, MaxBatch: 256,
		TraceDepth:  8,
		Ledger:      true,
		Profiler:    profiler.Config{Enabled: true},
		Faults:      mustPlan(t, "seed=11,dpufail=0.1,dpuslow=0.1x4,bitflip=0.05,tin=0.05,tout=0.05"),
		Reliability: ReliabilityConfig{HedgeRatio: 2},
	}
	windowed := cfg
	windowed.BatchWindow = 200 * time.Microsecond

	sig, sigPar := llutSpec()
	tanhPar := core.Params{Method: core.DLLUT, Interp: true, SizeLog2: 8}
	wramPar := core.Params{Method: core.LLUT, Interp: true, SizeLog2: 18, Placement: pimsim.InWRAM}
	type step struct {
		fn   core.Function
		par  core.Params
		n    int
		prog bool
		fail bool
	}
	var stream []step
	for round := 0; round < 3; round++ {
		stream = append(stream,
			step{fn: sig, par: sigPar, n: 200},       // cold in round 0, then warm
			step{fn: sig, par: sigPar, n: 1},         // warm
			step{fn: sig, par: sigPar, n: 700},       // larger than MaxBatch: queued on both
			step{prog: true, n: 256},                 // fused program
			step{fn: core.Tanh, par: tanhPar, n: 64}, // a second spec, cold in round 0
			step{fn: sig, par: wramPar, n: 16, fail: true},
			step{fn: sig, par: sigPar, n: 255},
		)
	}

	type result struct {
		outs  [][]float32
		stats []RequestStats
		eng   Stats
		led   any
		prof  profiler.Profile
		heat  profiler.Heatmap
		fault any
	}
	run := func(cfg Config) (result, *pathProbe) {
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		probe := probePaths(e)
		prog, err := e.CompileProgram(progSoftmax(), progParams())
		if err != nil {
			t.Fatal(err)
		}
		var res result
		for i, st := range stream {
			xs := stats.RandomInputs(-6, 6, st.n, uint64(i+1))
			var ys []float32
			var rs RequestStats
			if st.prog {
				var ps ProgramStats
				ys, ps, err = e.EvaluateProgram(prog, [][]float32{xs}, nil)
				rs = ps.RequestStats
			} else {
				ys, rs, err = e.EvaluateBatch(st.fn, st.par, xs)
			}
			if (err != nil) != st.fail {
				t.Fatalf("step %d: err = %v, want failure %v", i, err, st.fail)
			}
			rs.Latency = 0 // host wall time; every other field is modeled or counted
			res.outs = append(res.outs, ys)
			res.stats = append(res.stats, rs)
		}
		res.eng = e.Stats()
		res.led = e.Ledger()
		res.prof = e.prof.Snapshot()
		res.prof.StartUnixNano, res.prof.EndUnixNano = 0, 0
		res.heat = e.prof.HeatmapSnapshot()
		res.fault = e.FaultEvents()
		return res, probe
	}
	direct, dp := run(cfg)
	queued, qp := run(windowed)

	if c, _ := dp.counts(); c == 0 {
		t.Fatal("no batch ran on its caller in the default engine")
	}
	if c, _ := qp.counts(); c != 0 {
		t.Fatalf("%d lanes ran on a caller in the windowed engine", c)
	}
	if direct.eng.FaultsInjected == 0 || direct.eng.LaunchRetries == 0 {
		t.Fatalf("the fault plan did not exercise the recovery ladder: %+v", direct.eng)
	}
	for i := range stream {
		mustBits(t, "step outputs", direct.outs[i], queued.outs[i])
		if direct.stats[i] != queued.stats[i] {
			t.Fatalf("step %d stats differ:\ncaller %+v\nqueued %+v", i, direct.stats[i], queued.stats[i])
		}
	}
	for _, c := range []struct {
		what           string
		direct, queued any
	}{
		{"Stats", direct.eng, queued.eng},
		{"fault log", direct.fault, queued.fault},
		{"ledger", direct.led, queued.led},
		{"profile", direct.prof, queued.prof},
		{"heatmap", direct.heat, queued.heat},
	} {
		if !reflect.DeepEqual(c.direct, c.queued) {
			t.Fatalf("%s differs:\ncaller %+v\nqueued %+v", c.what, c.direct, c.queued)
		}
	}
}

// TestBackpressureBlocksSubmitter makes the submit queue's backpressure
// certain to fire. With every shard held, queued batches cannot drain:
// submitters are added one at a time until the batcher blocks on a
// full dispatch channel and the queue holds queueDepth requests. One
// more submitter must then block on the queue. Once the shards are
// released, every request completes bit for bit.
func TestBackpressureBlocksSubmitter(t *testing.T) {
	cfg := Config{DPUs: 4, Shards: 2, MaxBatch: 64}
	fn, par := llutSpec()
	// MaxBatch-sized requests never coalesce, so each is one batch and
	// the pipeline past the queue holds at most a few of them.
	inputs := chaosInputs(queueDepth+32, 64)
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := runSequential(t, ref, fn, par, inputs)
	ref.Close()

	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for _, s := range e.shards {
		s.mu.Lock()
	}
	held := true
	release := func() {
		if held {
			for _, s := range e.shards {
				s.mu.Unlock()
			}
			held = false
		}
	}
	defer release()

	outs := make([][]float32, len(inputs))
	errs := make([]error, len(inputs))
	var wg sync.WaitGroup
	started := 0
	submit := func() {
		i := started
		started++
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i], _, errs[i] = e.EvaluateBatch(fn, par, inputs[i])
		}()
		// Every submitter has parked, waiting for its result or blocked
		// on a full queue, and so has the batcher, waiting for a request
		// or blocked on a full dispatch channel. A parked batcher with a
		// non-empty queue is blocked on dispatch.
		waitFor(t, "the submitters and the batcher to park", func() bool {
			return parked("(*Engine).run(", "chan send", "chan receive") == started &&
				parked("(*Engine).batcher", "chan send", "chan receive") == 1
		})
	}
	for len(e.submit) < queueDepth {
		if started == len(inputs)-1 {
			t.Fatalf("queue at %d of %d after %d submitters", len(e.submit), queueDepth, started)
		}
		submit()
	}
	if n := parked("(*Engine).run(", "chan send"); n != 0 {
		t.Fatalf("%d submitters blocked before the queue was full", n)
	}
	if parked("(*Engine).batcher", "chan send") != 1 {
		t.Fatal("the batcher is not blocked on dispatch")
	}
	submit()
	blocked := func() bool { return parked("(*Engine).run(", "chan send") == 1 }
	if !blocked() {
		t.Fatal("the submitter past a full queue did not block")
	}
	time.Sleep(20 * time.Millisecond)
	if !blocked() || len(e.submit) != queueDepth {
		t.Fatalf("blocked submitter got through: queue %d of %d", len(e.submit), queueDepth)
	}
	release()
	wg.Wait()
	for i := 0; i < started; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		mustBits(t, "backpressured request", outs[i], want[i])
	}
	if s := e.Stats(); s.Requests != uint64(started) {
		t.Fatalf("requests = %d, want %d", s.Requests, started)
	}
}

// TestCloseWaitsForCaller: Close while a caller runs its own batch
// stops the batcher, but the shard's crew keeps running until the
// caller's batch has drained; the caller's request completes bit for
// bit, and Close returns after it.
func TestCloseWaitsForCaller(t *testing.T) {
	cfg := Config{DPUs: 2, Shards: 1}
	fn, par := llutSpec()
	xs := stats.RandomInputs(-7.9, 7.9, 100, 5)
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := ref.EvaluateBatch(fn, par, xs)
	ref.Close()
	if err != nil {
		t.Fatal(err)
	}

	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := e.shards[0]
	kernel := s.batchKernel
	entered, resume := make(chan struct{}), make(chan struct{})
	s.batchKernel = func(ctx *pimsim.Ctx, id int) error {
		if id == s.ids[0] {
			close(entered)
			<-resume
		}
		return kernel(ctx, id)
	}
	var ys []float32
	var evalErr error
	served := make(chan struct{})
	go func() {
		defer close(served)
		ys, _, evalErr = e.EvaluateBatch(fn, par, xs)
	}()
	<-entered
	closed := make(chan struct{})
	go func() {
		e.Close()
		close(closed)
	}()
	// The batcher has exited and the shard's goroutine waits for the
	// caller's lock before it stops the crew.
	waitFor(t, "the shard goroutine to wait for the caller", func() bool {
		return parked("(*Engine).serveShard(", "sync.Mutex.Lock") == 1
	})
	select {
	case <-closed:
		t.Fatal("Close returned while a caller held a shard")
	default:
	}
	close(resume)
	<-served
	<-closed
	if evalErr != nil {
		t.Fatal(evalErr)
	}
	mustBits(t, "request served across Close", ys, want)
	if _, _, err := e.EvaluateBatch(fn, par, xs); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("EvaluateBatch after Close = %v, want ErrEngineClosed", err)
	}
}
