package main

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"transpimlib"
	"transpimlib/internal/core"
	"transpimlib/internal/pimsim"
	"transpimlib/internal/stats"
	"transpimlib/internal/workloads"
)

// workload is one named traffic mix. Why each exists, and which layers
// it exercises and bypasses, is recorded in BENCHMARK.json and
// README.md.
type workload struct {
	name string
	// callers is the closed loop's client count, capped at the CPU
	// count.
	callers int
	// prepare makes the seeded inputs and their goldens, untimed.
	prepare func(seed uint64) (fixture, error)
}

// fixture holds one workload's inputs and goldens.
type fixture interface {
	// build constructs the system under test and brings every table it
	// will serve resident; its wall time is setup_s. traced turns on
	// the program's request tracer where the workload's configuration
	// leaves it off; rec, when non-nil, records the setup calls.
	build(traced bool, rec *recorder) (sut, error)
}

// sut is one built system under test.
type sut interface {
	// op performs caller c's next op and verifies its outputs.
	op(c *caller) outcome
	// counters snapshots the program's cumulative counters.
	counters() counters
	// modeled returns modeled kernel cycles and host↔PIM bytes per
	// element over one sequential pass of every input of the workload,
	// so that they depend on the seed alone.
	modeled() (cycles, bytes float64, err error)
	close()
}

// traceSource is a sut whose request tracer is readable.
type traceSource interface {
	traces() []*transpimlib.Trace
}

// scraped is a sut whose observer endpoints a scraper reads during
// every measured phase.
type scraped interface {
	// scrape reads every endpoint once, recording each call in rec.
	scrape(rec *recorder) (reads, failed int)
}

// counters is the union of the cumulative counters the workloads read.
type counters struct {
	batches, coalesced     uint64
	tableHits, tableMisses uint64
	planHits, planMisses   uint64
	kernelCycles, pimBytes uint64
	clusterReqs, spills    uint64
	routed                 []uint64
	savedBytes, perOpBytes int64 // fused programs
	simOps, evalElems      uint64
	evalTime               time.Duration // paper sweep
}

func (c counters) sub(o counters) counters {
	d := c
	d.batches -= o.batches
	d.coalesced -= o.coalesced
	d.tableHits -= o.tableHits
	d.tableMisses -= o.tableMisses
	d.planHits -= o.planHits
	d.planMisses -= o.planMisses
	d.kernelCycles -= o.kernelCycles
	d.pimBytes -= o.pimBytes
	d.clusterReqs -= o.clusterReqs
	d.spills -= o.spills
	d.routed = make([]uint64, len(c.routed))
	for i := range c.routed {
		d.routed[i] = c.routed[i]
		if i < len(o.routed) {
			d.routed[i] -= o.routed[i]
		}
	}
	d.savedBytes -= o.savedBytes
	d.perOpBytes -= o.perOpBytes
	d.simOps -= o.simOps
	d.evalElems -= o.evalElems
	d.evalTime -= o.evalTime
	return d
}

func engineCounters(ss ...transpimlib.EngineStats) counters {
	var c counters
	for _, s := range ss {
		c.batches += s.Batches
		c.coalesced += s.CoalescedBatches
		c.tableHits += s.CacheHits
		c.tableMisses += s.CacheMisses
		c.planHits += s.PlanHits
		c.planMisses += s.PlanMisses
		c.kernelCycles += s.KernelCycles
		c.pimBytes += s.BytesIn + s.BytesOut
	}
	return c
}

// servingModeled runs every (job, input) op once, in order, and
// returns modeled cycles and bytes per element from the counter delta.
// One op at a time, batches never coalesce, so the figures depend on
// the inputs alone.
func servingModeled(s sut, inputs [][][]float32, eval func(j int, xs []float32) error) (float64, float64, error) {
	c0 := s.counters()
	n := 0
	for j, pool := range inputs {
		for _, xs := range pool {
			if err := eval(j, xs); err != nil {
				return 0, 0, err
			}
			n += len(xs)
		}
	}
	d := s.counters().sub(c0)
	return float64(d.kernelCycles) / float64(n), float64(d.pimBytes) / float64(n), nil
}

// job is one (function, method configuration) the serving workloads
// request.
type job struct {
	name string
	fn   transpimlib.Function
	cfg  transpimlib.Config
}

// servingMix is the three warm specs cmd/tplload serves.
func servingMix() []job {
	return []job{
		{"sigmoid/L-LUT(i)", transpimlib.Sigmoid,
			transpimlib.Config{Method: transpimlib.LLUT, Interpolated: true, SizeLog2: 12}},
		{"gelu/DL-LUT(i)", transpimlib.GELU,
			transpimlib.Config{Method: transpimlib.DLLUT, Interpolated: true, SizeLog2: 12}},
		{"exp/fixed-L-LUT(i)", transpimlib.Exp,
			transpimlib.Config{Method: transpimlib.LLUTFixed, Interpolated: true, SizeLog2: 12}},
	}
}

// params converts a public method configuration to the core's.
func params(c transpimlib.Config) core.Params {
	return core.Params{
		Method: c.Method, Interp: c.Interpolated, SizeLog2: c.SizeLog2,
		Iterations: c.Iterations, HeadBits: c.HeadBits, Degree: c.Degree,
		Placement: c.Placement, WideRange: c.WideRange,
	}
}

// seededInputs draws n inputs over fn's domain.
func seededInputs(fn transpimlib.Function, n int, seed uint64) []float32 {
	lo, hi := fn.Domain()
	return stats.RandomInputs(lo, hi, n, seed)
}

func sameBits(got, want []float32) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return false
		}
	}
	return true
}

// referenceGoldens evaluates every input on an engine forced onto the
// per-element interpreted kernel, which the engine guarantees is
// bit-identical to its fast path.
func referenceGoldens(jobs []job, inputs [][][]float32) ([][][]float32, error) {
	ref, err := transpimlib.NewEngine(transpimlib.EngineConfig{Reference: true})
	if err != nil {
		return nil, err
	}
	defer ref.Close()
	golden := make([][][]float32, len(inputs))
	for j, pool := range inputs {
		golden[j] = make([][]float32, len(pool))
		for p, xs := range pool {
			if golden[j][p], _, err = ref.EvaluateBatch(jobs[j].fn, jobs[j].cfg, xs); err != nil {
				return nil, fmt.Errorf("golden %s: %w", jobs[j].name, err)
			}
		}
	}
	return golden, nil
}

// --- engine-bulk ---

const (
	bulkElems = 1 << 16
	bulkPool  = 8 // input sets per spec
)

type bulkFixture struct {
	jobs           []job
	inputs, golden [][][]float32 // [spec][pool]
}

func prepareBulk(seed uint64) (fixture, error) {
	fx := &bulkFixture{jobs: servingMix()}
	fx.inputs = make([][][]float32, len(fx.jobs))
	for j, jb := range fx.jobs {
		for p := 0; p < bulkPool; p++ {
			fx.inputs[j] = append(fx.inputs[j], seededInputs(jb.fn, bulkElems, mix(seed, 1, uint64(j), uint64(p))))
		}
	}
	var err error
	fx.golden, err = referenceGoldens(fx.jobs, fx.inputs)
	return fx, err
}

func (fx *bulkFixture) build(traced bool, rec *recorder) (sut, error) {
	cfg := transpimlib.EngineConfig{}
	if traced {
		cfg.TraceDepth = 256
	}
	e, err := transpimlib.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	for j, jb := range fx.jobs { // cold: table build and broadcast
		t0 := time.Now()
		out, _, err := e.EvaluateBatch(jb.fn, jb.cfg, fx.inputs[j][0])
		rec.add("Engine.EvaluateBatch(cold)", 0, -1, t0, time.Now(), bulkElems)
		if err == nil && !sameBits(out, fx.golden[j][0]) {
			err = errors.New("cold request returned wrong bits")
		}
		if err != nil {
			e.Close()
			return nil, fmt.Errorf("%s: %w", jb.name, err)
		}
	}
	return &bulkSUT{fx: fx, e: e}, nil
}

type bulkSUT struct {
	fx *bulkFixture
	e  *transpimlib.Engine
}

func (s *bulkSUT) op(c *caller) outcome {
	j := int(c.seq % uint64(len(s.fx.jobs)))
	p := int(c.draw() % bulkPool)
	jb := s.fx.jobs[j]
	start := time.Now()
	out, st, err := s.e.EvaluateBatch(jb.fn, jb.cfg, s.fx.inputs[j][p])
	end := time.Now()
	ok := err == nil && sameBits(out, s.fx.golden[j][p])
	if c.rec != nil {
		root := c.rec.add("op", c.opID(), -1, start, time.Now(), bulkElems)
		c.rec.add("Engine.EvaluateBatch", c.opID(), root, start, end, bulkElems)
	}
	lat := end.Sub(start)
	return outcome{elems: bulkElems, lat: lat, inner: lat - st.Latency, fail: !ok}
}

func (s *bulkSUT) counters() counters { return engineCounters(s.e.Stats()) }
func (s *bulkSUT) modeled() (float64, float64, error) {
	return servingModeled(s, s.fx.inputs, func(j int, xs []float32) error {
		_, _, err := s.e.EvaluateBatch(s.fx.jobs[j].fn, s.fx.jobs[j].cfg, xs)
		return err
	})
}
func (s *bulkSUT) traces() []*transpimlib.Trace { return s.e.Traces() }
func (s *bulkSUT) close()                       { s.e.Close() }

// coreFast times the core layer alone: core.Build and
// Operator.EvalBatch on a standalone simulated core, over engine-bulk's
// specs and inputs, verifying every output. It returns the number of
// batches evaluated and how many returned wrong bits.
func (fx *bulkFixture) coreFast(rec *recorder, rounds int) (n, failed int, err error) {
	for j, jb := range fx.jobs {
		dpu := pimsim.NewDPU(0, pimsim.Default(), pimsim.DefaultTasklets)
		t0 := time.Now()
		op, err := core.Build(jb.fn, params(jb.cfg), dpu)
		rec.add("core.Build", 0, -1, t0, time.Now(), 0)
		if err != nil {
			return n, failed, err
		}
		if !op.HasFastPath() {
			return n, failed, fmt.Errorf("%s has no fast path", jb.name)
		}
		ctx := dpu.NewCtx()
		ys := make([]float32, bulkElems)
		for r := 0; r < rounds; r++ {
			for p, xs := range fx.inputs[j] {
				t0 := time.Now()
				op.EvalBatch(ctx, xs, ys)
				rec.add("Operator.EvalBatch", 0, -1, t0, time.Now(), len(xs))
				n++
				if !sameBits(ys, fx.golden[j][p]) {
					failed++
				}
			}
		}
	}
	return n, failed, nil
}

// --- cluster-small ---

const (
	smallPool    = 512 // requests per spec, sizes 1–256
	smallMax     = 256
	smallTenants = 4
	// scrapeEvery is the scraper's poll interval.
	scrapeEvery = 200 * time.Millisecond
)

type smallFixture struct {
	jobs           []job
	inputs, golden [][][]float32 // [spec][pool], varied lengths
	tenants        []string
}

func prepareSmall(seed uint64) (fixture, error) {
	fx := &smallFixture{jobs: servingMix()}
	for t := 0; t < smallTenants; t++ {
		fx.tenants = append(fx.tenants, fmt.Sprintf("tenant-%d", t))
	}
	fx.inputs = make([][][]float32, len(fx.jobs))
	for j, jb := range fx.jobs {
		for p := 0; p < smallPool; p++ {
			n := 1 + int(mix(seed, 2, uint64(j), uint64(p))%smallMax)
			fx.inputs[j] = append(fx.inputs[j], seededInputs(jb.fn, n, mix(seed, 3, uint64(j), uint64(p))))
		}
	}
	var err error
	fx.golden, err = referenceGoldens(fx.jobs, fx.inputs)
	return fx, err
}

// build starts the cluster with every observer on. Tracing is part of
// that configuration, so traced does not change it.
func (fx *smallFixture) build(_ bool, rec *recorder) (sut, error) {
	cl, err := transpimlib.NewCluster(transpimlib.ClusterConfig{
		Replicas:   2,
		Engine:     transpimlib.EngineConfig{Accuracy: transpimlib.AccuracyConfig{Enabled: true}},
		TraceDepth: 32,
		Ledger:     true,
		Timeline:   transpimlib.TimelineConfig{Enabled: true},
		Profiler:   transpimlib.ProfilerConfig{Enabled: true},
	})
	if err != nil {
		return nil, err
	}
	for _, jb := range fx.jobs {
		for _, t := range fx.tenants {
			t0 := time.Now()
			err := cl.Prewarm(jb.fn, jb.cfg, t)
			rec.add("Cluster.Prewarm", 0, -1, t0, time.Now(), 1)
			if err != nil {
				cl.Close()
				return nil, err
			}
		}
	}
	s := &smallSUT{fx: fx, cl: cl}
	s.endpoints = []endpoint{
		{"telemetry.scrape_metrics", "/metrics", cl.Observe().Handler()},
		{"telemetry.scrape_ledger", "/debug/ledger", cl.Observe().Handler()},
		{"profiler.scrape_profile", "/debug/profile", cl.Observe().Handler()},
		{"telemetry.scrape_timeline", "/debug/timeline", cl.Observe().Handler()},
		{"telemetry.scrape_trace", "/debug/trace", cl.Observe().Handler()},
	}
	for i := 0; i < cl.Replicas(); i++ {
		s.endpoints = append(s.endpoints, endpoint{"accwatch.scrape_accuracy", "/debug/accuracy", cl.ReplicaObserve(i).Handler()})
	}
	return s, nil
}

type endpoint struct {
	layer, path string
	h           http.Handler
}

type smallSUT struct {
	fx        *smallFixture
	cl        *transpimlib.Cluster
	endpoints []endpoint
}

func (s *smallSUT) op(c *caller) outcome {
	k := c.draw()
	j := int(k % uint64(len(s.fx.jobs)))
	k /= uint64(len(s.fx.jobs))
	p := int(k % smallPool)
	t := s.fx.tenants[(k/smallPool)%smallTenants]
	jb, xs := s.fx.jobs[j], s.fx.inputs[j][p]
	start := time.Now()
	out, st, err := s.cl.EvaluateBatchAs(t, jb.fn, jb.cfg, xs)
	end := time.Now()
	ok := err == nil && sameBits(out, s.fx.golden[j][p])
	if c.rec != nil {
		root := c.rec.add("op", c.opID(), -1, start, time.Now(), len(xs))
		c.rec.add("Cluster.EvaluateBatchAs", c.opID(), root, start, end, len(xs))
	}
	lat := end.Sub(start)
	return outcome{elems: len(xs), lat: lat, inner: lat - st.Latency, fail: !ok}
}

// scrape reads every observer endpoint in process, the way tpltop
// polls them. A non-200 answer is a failed read: an observer that a
// change silently disabled fails the workload instead of speeding it
// up.
func (s *smallSUT) scrape(rec *recorder) (reads, failed int) {
	for _, ep := range s.endpoints {
		w := httptest.NewRecorder()
		start := time.Now()
		ep.h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, ep.path, nil))
		rec.add(ep.layer, 0, -1, start, time.Now(), w.Body.Len())
		reads++
		if w.Code != http.StatusOK {
			failed++
		}
	}
	return reads, failed
}

func (s *smallSUT) counters() counters {
	c := engineCounters(s.cl.ReplicaStats()...)
	cs := s.cl.Stats()
	c.clusterReqs, c.spills, c.routed = cs.Requests, cs.Spills, cs.Routed
	return c
}
func (s *smallSUT) modeled() (float64, float64, error) {
	return servingModeled(s, s.fx.inputs, func(j int, xs []float32) error {
		_, _, err := s.cl.EvaluateBatchAs(s.fx.tenants[0], s.fx.jobs[j].fn, s.fx.jobs[j].cfg, xs)
		return err
	})
}
func (s *smallSUT) traces() []*transpimlib.Trace { return s.cl.Traces() }
func (s *smallSUT) close()                       { s.cl.Close() }

// --- fused-programs ---

const (
	fusedElems = 4096 // the engine's MaxBatch: programs are never split
	fusedPool  = 4
)

type fusedFixture struct {
	cases   []workloads.FusedCase
	spec    transpimlib.Config
	inputs  [][][][]float32 // [program][pool][input]
	scalars [][]float32     // [program]
	golden  [][][]float32   // [program][pool]
}

// prepareFused draws each program's inputs from its own generator's
// shapes and ranges, reordered by the seed, and computes goldens on the
// per-op path, which the engine guarantees is bit-identical to the
// fused one.
func prepareFused(seed uint64) (fixture, error) {
	fp := workloads.FusedParams()
	fx := &fusedFixture{
		cases: workloads.FusedCases(),
		spec:  transpimlib.Config{Method: fp.Method, Interpolated: fp.Interp, SizeLog2: fp.SizeLog2},
	}
	for k, cs := range fx.cases {
		base, scalars := cs.Gen(fusedElems)
		fx.scalars = append(fx.scalars, scalars)
		var pool [][][]float32
		for p := 0; p < fusedPool; p++ {
			var ins [][]float32
			for v, in := range base {
				ins = append(ins, shuffled(in, mix(seed, 4, uint64(k), uint64(p), uint64(v))))
			}
			pool = append(pool, ins)
		}
		fx.inputs = append(fx.inputs, pool)
	}
	ref, err := transpimlib.NewEngine(transpimlib.EngineConfig{})
	if err != nil {
		return nil, err
	}
	defer ref.Close()
	for k, cs := range fx.cases {
		prog, err := ref.CompileProgram(cs.Build(), fx.spec)
		if err != nil {
			return nil, err
		}
		var golden [][]float32
		for _, ins := range fx.inputs[k] {
			out, _, err := ref.EvaluateProgramPerOp("", prog, ins, fx.scalars[k])
			if err != nil {
				return nil, fmt.Errorf("golden %s: %w", cs.Name, err)
			}
			golden = append(golden, out)
		}
		fx.golden = append(fx.golden, golden)
	}
	return fx, nil
}

// shuffled returns a seeded permutation of xs.
func shuffled(xs []float32, seed uint64) []float32 {
	out := append([]float32(nil), xs...)
	for i := len(out) - 1; i > 0; i-- {
		j := int(mix(seed, uint64(i)) % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

func (fx *fusedFixture) build(traced bool, rec *recorder) (sut, error) {
	cfg := transpimlib.EngineConfig{}
	if traced {
		cfg.TraceDepth = 256
	}
	e, err := transpimlib.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	s := &fusedSUT{fx: fx, e: e}
	for k, cs := range fx.cases {
		t0 := time.Now()
		prog, err := e.CompileProgram(cs.Build(), fx.spec)
		rec.add("Engine.CompileProgram", 0, -1, t0, time.Now(), 0)
		if err == nil { // cold: table build and broadcast
			var out []float32
			out, _, err = e.EvaluateProgram(prog, fx.inputs[k][0], fx.scalars[k])
			if err == nil && !sameBits(out, fx.golden[k][0]) {
				err = errors.New("cold evaluation returned wrong bits")
			}
		}
		if err != nil {
			e.Close()
			return nil, fmt.Errorf("%s: %w", cs.Name, err)
		}
		s.progs = append(s.progs, prog)
	}
	return s, nil
}

type fusedSUT struct {
	fx    *fusedFixture
	e     *transpimlib.Engine
	progs []*transpimlib.CompiledProgram
	// savedBytes/perOpBytes sum ProgramStats over served evaluations.
	savedBytes, perOpBytes atomic.Int64
}

func (s *fusedSUT) op(c *caller) outcome {
	k := c.draw()
	prog := int(k % uint64(len(s.progs)))
	p := int((k / uint64(len(s.progs))) % fusedPool)
	start := time.Now()
	out, st, err := s.e.EvaluateProgram(s.progs[prog], s.fx.inputs[prog][p], s.fx.scalars[prog])
	end := time.Now()
	ok := err == nil && sameBits(out, s.fx.golden[prog][p])
	if ok {
		s.savedBytes.Add(int64(st.SavedBytes))
		s.perOpBytes.Add(int64(st.PerOpBytes))
	}
	if c.rec != nil {
		root := c.rec.add("op", c.opID(), -1, start, time.Now(), fusedElems)
		c.rec.add("Engine.EvaluateProgram", c.opID(), root, start, end, fusedElems)
	}
	lat := end.Sub(start)
	return outcome{elems: fusedElems, lat: lat, inner: lat - st.Latency, fail: !ok}
}

func (s *fusedSUT) counters() counters {
	c := engineCounters(s.e.Stats())
	c.savedBytes, c.perOpBytes = s.savedBytes.Load(), s.perOpBytes.Load()
	return c
}
func (s *fusedSUT) modeled() (float64, float64, error) {
	c0 := s.counters()
	n := 0
	for k, pool := range s.fx.inputs {
		for _, ins := range pool {
			if _, _, err := s.e.EvaluateProgram(s.progs[k], ins, s.fx.scalars[k]); err != nil {
				return 0, 0, err
			}
			n += len(ins[0])
		}
	}
	d := s.counters().sub(c0)
	return float64(d.kernelCycles) / float64(n), float64(d.pimBytes) / float64(n), nil
}
func (s *fusedSUT) traces() []*transpimlib.Trace { return s.e.Traces() }
func (s *fusedSUT) close()                       { s.e.Close() }

// --- paper-sweep ---

const (
	sweepElems = 1 << 16 // inputs per (function, method) pair
	sweepChunk = 256     // inputs per op
	sweepOps   = sweepElems / sweepChunk
)

// sweepConfigs are the Fig. 5 sine configurations
// (BenchmarkFig5SineCycles) plus D-LUT and DL-LUT(i).
func sweepConfigs() []transpimlib.Config {
	return []transpimlib.Config{
		{Method: transpimlib.CORDIC, Iterations: 30},
		{Method: transpimlib.CORDICLUT, Iterations: 22, HeadBits: 10},
		{Method: transpimlib.MLUT, SizeLog2: 12},
		{Method: transpimlib.MLUT, Interpolated: true, SizeLog2: 12},
		{Method: transpimlib.LLUT, SizeLog2: 12},
		{Method: transpimlib.LLUT, Interpolated: true, SizeLog2: 12},
		{Method: transpimlib.LLUT, Interpolated: true, SizeLog2: 12, Placement: transpimlib.InMRAM},
		{Method: transpimlib.LLUTFixed, SizeLog2: 12},
		{Method: transpimlib.LLUTFixed, Interpolated: true, SizeLog2: 12},
		{Method: transpimlib.Poly, Degree: 9},
		{Method: transpimlib.DLUT, SizeLog2: 12},
		{Method: transpimlib.DLLUT, Interpolated: true, SizeLog2: 12},
	}
}

// table2 lists the paper's Table 2 functions.
var table2 = []transpimlib.Function{
	transpimlib.Sin, transpimlib.Cos, transpimlib.Tan, transpimlib.Sinh, transpimlib.Cosh,
	transpimlib.Tanh, transpimlib.Exp, transpimlib.Log, transpimlib.Sqrt, transpimlib.GELU,
}

type pair struct {
	fn  transpimlib.Function
	cfg transpimlib.Config
	in  int // index into sweepFixture.inputs
}

type sweepFixture struct {
	pairs  []pair
	inputs [][]float32 // one 2^16 input set per function
	golden [][]float32 // [pair]
}

// prepareSweep computes each pair's goldens on the fast host mirror
// (Lib.EvalSlice), which the repository guarantees is bit-identical to
// the interpreted Lib.Eval path the sweep times.
func prepareSweep(seed uint64) (fixture, error) {
	fx := &sweepFixture{}
	for i, fn := range table2 {
		fx.inputs = append(fx.inputs, seededInputs(fn, sweepElems, mix(seed, 5, uint64(i))))
	}
	for _, cfg := range sweepConfigs() {
		for i, fn := range table2 {
			if !transpimlib.Supports(cfg.Method, fn) {
				continue
			}
			op, err := core.Build(fn, params(cfg), pimsim.NewDPU(0, pimsim.Default(), pimsim.DefaultTasklets))
			if err != nil {
				return nil, err
			}
			if !op.HasFastPath() {
				return nil, fmt.Errorf("%v %s: no fast host mirror to compute goldens with", fn, params(cfg).Label())
			}
			lib, err := transpimlib.New(cfg, fn)
			if err != nil {
				return nil, err
			}
			golden := make([]float32, sweepElems)
			lib.EvalSlice(fn, fx.inputs[i], golden)
			fx.pairs = append(fx.pairs, pair{fn: fn, cfg: cfg, in: i})
			fx.golden = append(fx.golden, golden)
		}
	}
	return fx, nil
}

func (fx *sweepFixture) build(_ bool, rec *recorder) (sut, error) {
	s := &sweepSUT{fx: fx}
	for _, pr := range fx.pairs {
		t0 := time.Now()
		lib, err := transpimlib.New(pr.cfg, pr.fn)
		rec.add("transpimlib.New", 0, -1, t0, time.Now(), 0)
		if err != nil {
			return nil, err
		}
		s.libs = append(s.libs, lib)
		s.tableBytes += lib.TableBytes()
	}
	s.cycles = make([]uint64, len(fx.pairs)*sweepOps)
	s.ops = make([]uint64, len(fx.pairs)*sweepOps)
	return s, nil
}

// sweepSUT is driven by one caller, so its tallies need no locking.
type sweepSUT struct {
	fx         *sweepFixture
	libs       []*transpimlib.Lib
	tableBytes int
	// cycles/ops hold each (pair, chunk) op's modeled cycles and
	// simulated instructions; inputs are fixed, so one pass fills them.
	cycles, ops []uint64
	simOps      uint64
	evalElems   uint64
	evalTime    time.Duration
}

// op evaluates one 256-input chunk of one pair through the
// per-element Lib.Eval path into a fresh result slice, as a serving
// call returns one. The sweep walks the pairs in a fixed order.
func (s *sweepSUT) op(c *caller) outcome {
	i := int(c.seq % uint64(len(s.cycles)))
	pi, chunk := i/sweepOps, i%sweepOps
	pr, lib := s.fx.pairs[pi], s.libs[pi]
	xs := s.fx.inputs[pr.in][chunk*sweepChunk : (chunk+1)*sweepChunk]
	lib.ResetCycles()
	start := time.Now()
	out := make([]float32, len(xs))
	for k, x := range xs {
		out[k] = lib.Eval(pr.fn, x)
	}
	end := time.Now()
	ok := sameBits(out, s.fx.golden[pi][chunk*sweepChunk:(chunk+1)*sweepChunk])
	cnt := lib.PIM().Counters()
	s.cycles[i], s.ops[i] = lib.Cycles(), cnt.TotalOps()
	s.simOps += s.ops[i]
	s.evalElems += uint64(len(xs))
	s.evalTime += end.Sub(start)
	if c.rec != nil {
		root := c.rec.add("op", c.opID(), -1, start, time.Now(), len(xs))
		c.rec.add("Lib.Eval", c.opID(), root, start, end, len(xs))
	}
	return outcome{elems: len(xs), lat: end.Sub(start), key: i, fail: !ok}
}

func (s *sweepSUT) counters() counters {
	return counters{simOps: s.simOps, evalElems: s.evalElems, evalTime: s.evalTime}
}

// modeled is per element of one full pass, from the cycles each op
// recorded, and the table bytes New moved host→PIM for the pass
// (Fig. 7).
func (s *sweepSUT) modeled() (float64, float64, error) {
	var cyc uint64
	for i, c := range s.cycles {
		if c == 0 {
			return 0, 0, fmt.Errorf("op %d has not run: the run is shorter than one pass", i)
		}
		cyc += c
	}
	n := float64(len(s.cycles) * sweepChunk)
	return float64(cyc) / n, float64(s.tableBytes) / n, nil
}

// opsPerElem is simulated instructions per element of one full pass.
func (s *sweepSUT) opsPerElem() float64 {
	var ops uint64
	for _, o := range s.ops {
		ops += o
	}
	return float64(ops) / float64(len(s.ops)*sweepChunk)
}

func (s *sweepSUT) close() {}
