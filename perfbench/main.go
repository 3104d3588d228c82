// Command perfbench is the repository's host-time benchmark. It runs
// one of four closed-loop workloads over the public API — engine-bulk,
// cluster-small, fused-programs and paper-sweep — verifies every output
// bit for bit against goldens, and reports end-to-end metrics from an
// untraced run or, with --trace 1, the per-layer split from a traced
// run. README.md defines the workloads and every metric.
//
// Build and run it from the repository root through the wrapper:
//
//	bash perfbench/run.sh --workload engine-bulk --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seconds 5
//
// A table goes to standard error. The last line of standard output is
// one JSON object with the keys correct, attempted, failed and metrics.
// The exit code is 0 when every output was correct and every traced-run
// check passed, 1 when not, and 2 when the benchmark could not run.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"text/tabwriter"
	"time"
	"unsafe"

	"transpimlib"
)

// Metric catalogues: names and units, in report order. BENCHMARK.json
// lists the same names with the same units.
var endToEnd = []unitOf{
	{"elems_per_s", "elements/s"},
	{"req_p50_us", "us"},
	{"req_p99_us", "us"},
	{"setup_s", "s"},
	{"alloc_bytes_per_op", "B/op"},
	{"allocs_per_op", "allocs/op"},
	{"heap_live_mb", "MiB"},
	{"modeled_cycles_per_elem", "cycles/elem"},
	{"pim_bytes_per_elem", "B/elem"},
}

var perLayer = func() []unitOf {
	l := []unitOf{
		{"cluster.overhead_us", "us"},
		{"cluster.spill_frac", "ratio"},
		{"cluster.replica_share_max", "ratio"},
		{"engine.handoff_us", "us"},
		{"engine.queue_us", "us"},
		{"engine.stage_in_us", "us"},
		{"engine.setup_us", "us"},
		{"engine.kernel_ns_per_elem", "ns/elem"},
		{"engine.drain_us", "us"},
		{"engine.stage_wait_us", "us"},
		{"engine.coalesced_frac", "ratio"},
		{"engine.plan_hit_frac", "ratio"},
		{"engine.table_hit_frac", "ratio"},
		{"core.fast_ns_per_elem", "ns/elem"},
		{"core.interp_ns_per_elem", "ns/elem"},
		{"core.build_ms", "ms"},
		{"pimsim.sim_ops_per_s", "ops/s"},
		{"pimsim.ops_per_elem", "ops/elem"},
		{"fusion.compile_ms", "ms"},
		{"fusion.saved_bytes_frac", "ratio"},
	}
	for _, ep := range scrapeLayers {
		l = append(l, unitOf{ep + "_us", "us"})
	}
	for _, m := range cpuModules {
		l = append(l, unitOf{"cpu." + m, "ratio"})
	}
	return append(l,
		unitOf{"runtime.gc_cpu_frac", "ratio"},
		unitOf{"runtime.sched_latency_p99_us", "us"},
		unitOf{"bench.trace_overhead_frac", "ratio"})
}()

// scrapeLayers names the scraped endpoints' span and metric stems.
var scrapeLayers = []string{
	"telemetry.scrape_metrics", "telemetry.scrape_ledger", "telemetry.scrape_timeline",
	"telemetry.scrape_trace", "profiler.scrape_profile", "accwatch.scrape_accuracy",
}

type unitOf struct{ name, unit string }

var allWorkloads = []workload{
	{name: "engine-bulk", callers: 1, prepare: prepareBulk},
	{name: "cluster-small", callers: 2, prepare: prepareSmall},
	{name: "fused-programs", callers: 2, prepare: prepareFused},
	{name: "paper-sweep", callers: 1, prepare: prepareSweep},
}

const (
	// setupReps is how many times a run sets the system up; setup_s is
	// the median.
	setupReps = 15
	warmup    = 500 * time.Millisecond
	// maxTraces bounds the engine span trees a traced phase keeps.
	maxTraces = 4000
)

type options struct {
	seed     uint64
	seconds  float64
	traced   bool
	traceDir string
}

// result is one workload run's report.
type result struct {
	workload  string
	traced    bool
	attempted int
	failed    int
	checks    []string // failed traced-run checks
	values    map[string]float64
	notes     map[string]string // human-only detail, e.g. sample counts
}

func (r *result) correct() bool { return r.failed == 0 && len(r.checks) == 0 }

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "engine-bulk, cluster-small, fused-programs, paper-sweep, or all")
	seed := fs.Uint64("seed", 1, "seed for every input, size and tenant choice")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	traceDir := fs.String("trace-dir", ".bench_build/traces", "directory for traced-run files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	ws := allWorkloads
	if *name != "all" {
		ws = nil
		if w := lookup(*name); w != nil {
			ws = append(ws, *w)
		}
	}
	if len(ws) == 0 {
		fmt.Fprintf(stderr, "perfbench: unknown --workload %q\n", *name)
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, traced: *trace == 1, traceDir: *traceDir}
	var rs []*result
	for _, w := range ws {
		r, err := runWorkload(w, o, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 2
		}
		printTable(stderr, r)
		rs = append(rs, r)
	}
	line, err := summary(rs, len(ws) > 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, line)
	for _, r := range rs {
		if !r.correct() {
			return 1
		}
	}
	return 0
}

// runWorkload prepares inputs and goldens, sets the system up
// setupReps times, and measures it: for --seconds untraced, or, traced,
// half untraced and half with every trace source on.
func runWorkload(w workload, o options, log io.Writer) (*result, error) {
	fx, err := w.prepare(o.seed)
	if err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	r := &result{workload: w.name, traced: o.traced, values: map[string]float64{}, notes: map[string]string{}}
	origin := time.Now()
	var setupRec *recorder
	if o.traced {
		setupRec = newRecorder("setup", origin)
	}
	base := liveHeap()
	setups := make([]setupRun, setupReps)
	var sys sut
	for i := range setups {
		runtime.GC()
		t0, c0 := time.Now(), processCPU()
		s, err := fx.build(false, setupRec)
		wall := time.Since(t0)
		setups[i] = setupRun{wall: wall.Seconds(), share: float64(processCPU()-c0) / float64(wall)}
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		if i < setupReps-1 {
			s.close()
		} else {
			sys = s
		}
	}
	callers := newCallers(w.callerCount(), o.seed)
	d := time.Duration(o.seconds * float64(time.Second))
	if o.traced {
		d /= 2
	}
	a, err := measure(sys, callers, d, nil)
	if err != nil {
		sys.close()
		return nil, err
	}
	r.attempted, r.failed = a.attempted, a.failed
	if !o.traced {
		defer sys.close()
		return r, endToEndMetrics(r, sys, a, quietSetup(setups), base)
	}
	sys.close()

	// Traced half: a fresh system with the program's request tracer on,
	// the benchmark's span recorders, and a CPU profile.
	sys, err = fx.build(true, setupRec)
	if err != nil {
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	defer sys.close()
	for _, c := range callers {
		c.rec = newRecorder(fmt.Sprintf("caller-%d", c.id), origin)
	}
	b, err := measure(sys, callers, d, newRecorder("scraper", origin))
	if err != nil {
		return nil, err
	}
	r.attempted += b.attempted
	r.failed += b.failed
	rs := []*recorder{setupRec, b.scrapeRec}
	for _, c := range callers {
		rs = append(rs, c.rec)
	}
	if bf, ok := fx.(*bulkFixture); ok {
		core := newRecorder("core", origin)
		n, failed, err := bf.coreFast(core, 2)
		if err != nil {
			return nil, fmt.Errorf("core phase: %w", err)
		}
		r.attempted += n
		r.failed += failed
		r.values["core.fast_ns_per_elem"] = nsPerElem([]*recorder{core}, "Operator.EvalBatch")
		rs = append(rs, core)
	}
	if err := perLayerMetrics(r, sys, a, b, rs); err != nil {
		return nil, err
	}
	tf := &traceFile{Workload: w.name, Seed: o.seed, Seconds: o.seconds, Checks: map[string]string{}, PerLayer: r.values}
	for _, c := range []string{"stage_spans_within_request", "cpu_shares_sum_to_1"} {
		tf.Checks[c] = "ok"
	}
	for _, c := range r.checks {
		k, v, _ := strings.Cut(c, ": ")
		tf.Checks[k] = v
	}
	path, err := writeTraceFile(o.traceDir, tf, rs, b.traces)
	if err != nil {
		return nil, fmt.Errorf("trace file: %w", err)
	}
	fmt.Fprintf(log, "%s: traced run written to %s\n", w.name, path)
	return r, nil
}

// setupRun is one timed set-up and the CPU time the process received
// per wall second during it.
type setupRun struct{ wall, share float64 }

// quietSetup is the median set-up time over the half of the set-ups
// during which the process received the most CPU, for the reason
// quietBlocks gives.
func quietSetup(rs []setupRun) float64 {
	sort.Slice(rs, func(i, j int) bool { return rs[i].share > rs[j].share })
	ws := make([]float64, 0, len(rs))
	for _, r := range rs[:(len(rs)+1)/2] {
		ws = append(ws, r.wall)
	}
	return median(ws)
}

// measuredPhase is one warmed-up, measured closed-loop phase.
type measuredPhase struct {
	ph                *phase
	attempted, failed int // warm-up, measured ops and scrapes
	d                 counters
	allocBytes        uint64
	allocs            uint64
	rt                runtimeDelta
	scrapeRec         *recorder
	traces            []*transpimlib.Trace
	profile           []byte
}

// measure warms the system up, then runs the closed loop for d. A
// scraped system has its observers read every scrapeEvery throughout.
// scrapeRec non-nil makes the phase traced: the scraper records its
// calls there, the program's span trees are collected and a CPU
// profile is taken.
func measure(sys sut, callers []*caller, d time.Duration, scrapeRec *recorder) (*measuredPhase, error) {
	traced := scrapeRec != nil
	warm := runPhase(callers, warmup, sys.op, 0)
	hint := int(float64(warm.attempted)/warmup.Seconds()*d.Seconds()*1.25)/len(callers) + 64
	m := &measuredPhase{attempted: warm.attempted, failed: warm.failed, scrapeRec: scrapeRec}

	col := traceCollector{seen: map[uint64]bool{}}
	collect := func() {}
	if ts, ok := sys.(traceSource); ok && traced {
		collect = func() { col.add(ts.traces()) }
	}
	var prof bytes.Buffer
	runtime.GC()
	rt0 := readRuntime()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	c0 := sys.counters()
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	if sc, ok := sys.(scraped); ok {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.NewTicker(scrapeEvery)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					n, f := sc.scrape(scrapeRec)
					m.attempted += n
					m.failed += f
					collect()
				}
			}
		}()
	}
	m.ph = runPhase(callers, d, sys.op, hint)
	close(stop)
	wg.Wait()
	if traced {
		pprof.StopCPUProfile()
		m.profile = prof.Bytes()
	}
	m.d = sys.counters().sub(c0)
	runtime.ReadMemStats(&ms1)
	m.rt = readRuntime().sub(rt0)
	collect()
	m.traces = col.traces
	m.attempted += m.ph.attempted
	m.failed += m.ph.failed
	m.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	m.allocs = ms1.Mallocs - ms0.Mallocs
	if m.ph.attempted == 0 {
		return nil, errors.New("no op completed in the measured phase")
	}
	return m, nil
}

// traceCollector gathers span trees from a ring the program keeps,
// once each.
type traceCollector struct {
	seen   map[uint64]bool
	traces []*transpimlib.Trace
}

func (c *traceCollector) add(ts []*transpimlib.Trace) {
	for _, t := range ts {
		if !c.seen[t.ID] && len(c.traces) < maxTraces {
			c.seen[t.ID] = true
			c.traces = append(c.traces, t)
		}
	}
}

// liveHeap is the heap in use after two forced collections: the
// second empties the sync.Pool victim caches the first one filled.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// endToEndMetrics fills the untraced run's metrics.
func endToEndMetrics(r *result, sys sut, m *measuredPhase, setup float64, base uint64) error {
	ph := m.ph
	var t timing
	var err error
	if s, ok := sys.(*sweepSUT); ok {
		t, err = opMinima(ph, len(s.cycles))
	} else {
		t, err = quietBlocks(ph)
	}
	if err != nil {
		return err
	}
	cyc, byt, err := sys.modeled()
	if err != nil {
		return fmt.Errorf("modeled pass: %w", err)
	}
	ops := float64(ph.attempted)
	benchOwned := uint64(cap(ph.samples)) * uint64(unsafe.Sizeof(sample{}))
	live := float64(liveHeap()) - float64(base) - float64(benchOwned)
	v := r.values
	v["elems_per_s"] = t.rate
	v["req_p50_us"] = float64(t.p50) / 1e3
	v["req_p99_us"] = float64(t.p99) / 1e3
	v["setup_s"] = setup
	v["alloc_bytes_per_op"] = float64(m.allocBytes) / ops
	v["allocs_per_op"] = float64(m.allocs) / ops
	v["heap_live_mb"] = live / (1 << 20)
	v["modeled_cycles_per_elem"] = cyc
	v["pim_bytes_per_elem"] = byt
	for _, m := range []string{"elems_per_s", "req_p50_us", "req_p99_us"} {
		r.notes[m] = t.note
	}
	r.notes["setup_s"] = fmt.Sprintf("median of the %d quietest of %d set-ups", (setupReps+1)/2, setupReps)
	r.notes["alloc_bytes_per_op"] = fmt.Sprintf("ops=%d", ph.attempted)
	return nil
}

// perLayerMetrics fills the traced run's metrics from the untraced
// half a and the traced half b. Layers a workload does not run report 0.
func perLayerMetrics(r *result, sys sut, a, b *measuredPhase, rs []*recorder) error {
	v := r.values
	d := b.d
	switch {
	case len(d.routed) > 0:
		v["cluster.overhead_us"] = p50us(sortedLat(b.ph.samples, true))
		if d.clusterReqs > 0 {
			v["cluster.spill_frac"] = float64(d.spills) / float64(d.clusterReqs)
		}
		var most, all uint64
		for _, n := range d.routed {
			most, all = max(most, n), all+n
		}
		if all > 0 {
			v["cluster.replica_share_max"] = float64(most) / float64(all)
		}
	case d.batches > 0:
		v["engine.handoff_us"] = p50us(sortedLat(b.ph.samples, true))
	}
	if d.batches > 0 {
		v["engine.coalesced_frac"] = float64(d.coalesced) / float64(d.batches)
		v["engine.plan_hit_frac"] = ratio(d.planHits, d.planHits+d.planMisses)
		v["engine.table_hit_frac"] = ratio(d.tableHits, d.tableHits+d.tableMisses)
	}
	st := splitStages(b.traces)
	if st.requests > 0 {
		v["engine.queue_us"] = p50us(st.queue)
		v["engine.stage_in_us"] = p50us(st.stageIn)
		v["engine.setup_us"] = p50us(st.setup)
		v["engine.drain_us"] = p50us(st.drain)
		v["engine.stage_wait_us"] = p50us(st.wait)
		if st.kernEl > 0 {
			v["engine.kernel_ns_per_elem"] = st.kernNs / st.kernEl
		}
		r.notes["engine.queue_us"] = fmt.Sprintf("%d requests, %d batches traced", st.requests, len(st.wait))
	}
	if st.outside > 0 {
		r.checks = append(r.checks, fmt.Sprintf("stage_spans_within_request: %d engine stage spans fall outside their request span", st.outside))
	}
	if s, ok := sys.(*sweepSUT); ok {
		if d.evalElems > 0 {
			v["core.interp_ns_per_elem"] = float64(d.evalTime) / float64(d.evalElems)
			v["pimsim.sim_ops_per_s"] = float64(d.simOps) / d.evalTime.Seconds()
		}
		v["pimsim.ops_per_elem"] = s.opsPerElem()
		v["core.build_ms"] = p50us(durations(rs, "transpimlib.New")) / 1e3
	}
	if ds := durations(rs, "Engine.CompileProgram"); len(ds) > 0 {
		v["fusion.compile_ms"] = p50us(ds) / 1e3
	}
	if d.perOpBytes > 0 {
		v["fusion.saved_bytes_frac"] = float64(d.savedBytes) / float64(d.perOpBytes)
	}
	for _, ep := range scrapeLayers {
		if ds := durations(rs, ep); len(ds) > 0 {
			v[ep+"_us"] = p50us(ds)
			r.notes[ep+"_us"] = fmt.Sprintf("n=%d", len(ds))
		}
	}
	shares, samples, err := cpuShares(b.profile)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	sum := 0.0
	for m, s := range shares {
		v["cpu."+m] = s
		sum += s
	}
	r.notes["cpu.bench"] = fmt.Sprintf("%d profile samples", samples)
	if math.Abs(sum-1) > 1e-9 {
		r.checks = append(r.checks, fmt.Sprintf("cpu_shares_sum_to_1: cpu.* shares sum to %.12f", sum))
	}
	v["runtime.gc_cpu_frac"] = a.rt.gcFrac()
	v["runtime.sched_latency_p99_us"] = a.rt.schedP99() * 1e6
	v["bench.trace_overhead_frac"] = 1 - b.ph.rate()/a.ph.rate()
	return nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// runtimeDelta is the change of the runtime/metrics the per-layer
// metrics read.
type runtimeDelta struct {
	gcCPU, totalCPU float64
	sched           metrics.Float64Histogram
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	h := s[2].Value.Float64Histogram()
	return runtimeDelta{
		gcCPU:    s[0].Value.Float64(),
		totalCPU: s[1].Value.Float64(),
		sched:    metrics.Float64Histogram{Counts: append([]uint64(nil), h.Counts...), Buckets: h.Buckets},
	}
}

func (r runtimeDelta) sub(o runtimeDelta) runtimeDelta {
	d := runtimeDelta{gcCPU: r.gcCPU - o.gcCPU, totalCPU: r.totalCPU - o.totalCPU, sched: r.sched}
	d.sched.Counts = append([]uint64(nil), r.sched.Counts...)
	for i := range d.sched.Counts {
		if i < len(o.sched.Counts) {
			d.sched.Counts[i] -= o.sched.Counts[i]
		}
	}
	return d
}

func (r runtimeDelta) gcFrac() float64 {
	if r.totalCPU <= 0 {
		return 0
	}
	return r.gcCPU / r.totalCPU
}

// schedP99 is the upper bound of the histogram bucket holding the p99
// of goroutine scheduling latency, in seconds; 0 when fewer than
// minBeyond samples lie beyond it.
func (r runtimeDelta) schedP99() float64 {
	var n uint64
	for _, c := range r.sched.Counts {
		n += c
	}
	rank := uint64(math.Ceil(0.99 * float64(n)))
	if n < rank+minBeyond {
		return 0
	}
	var cum uint64
	for i, c := range r.sched.Counts {
		cum += c
		if cum >= rank {
			if up := r.sched.Buckets[i+1]; !math.IsInf(up, 1) {
				return up
			}
			return r.sched.Buckets[i]
		}
	}
	return 0
}

// printTable writes the human-readable report.
func printTable(w io.Writer, r *result) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	kind := "end-to-end, untraced"
	list := endToEnd
	if r.traced {
		kind, list = "per-layer, traced", perLayer
	}
	fmt.Fprintf(tw, "%s (%s)\tvalue\tunit\tnote\n", r.workload, kind)
	for _, m := range list {
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\n", m.name, r.values[m.name], m.unit, r.notes[m.name])
	}
	ff := 0.0
	if r.attempted > 0 {
		ff = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(tw, "fail_frac\t%.6g\tratio\t%d failed of %d attempted\n", ff, r.failed, r.attempted)
	for _, c := range r.checks {
		fmt.Fprintf(tw, "CHECK FAILED\t%s\t\t\n", c)
	}
	tw.Flush()
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary renders the final JSON line; with several workloads each
// metric name is prefixed by its workload.
func summary(rs []*result, prefixed bool) (string, error) {
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, r := range rs {
		out.Correct = out.Correct && r.correct()
		out.Attempted += r.attempted
		out.Failed += r.failed
		list := endToEnd
		if r.traced {
			list = perLayer
		}
		for _, m := range list {
			v := r.values[m.name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return "", fmt.Errorf("%s: %s is %v", r.workload, m.name, v)
			}
			key := m.name
			if prefixed {
				key = r.workload + "/" + m.name
			}
			out.Metrics[key] = jsonMetric{Value: v, Unit: m.unit}
		}
	}
	data, err := json.Marshal(out)
	return string(data), err
}

// lookup returns the named workload, or nil.
func lookup(name string) *workload {
	for i := range allWorkloads {
		if allWorkloads[i].name == name {
			return &allWorkloads[i]
		}
	}
	return nil
}

// callerCount is the workload's closed-loop client count: as
// configured, but never more than the CPUs the process may use.
func (w workload) callerCount() int { return min(w.callers, runtime.NumCPU()) }
