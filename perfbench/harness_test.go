package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"testing"
	"time"

	"transpimlib"
)

func TestPercentileRank(t *testing.T) {
	ramp := func(n int) []time.Duration {
		ds := make([]time.Duration, n)
		for i := range ds {
			ds[i] = time.Duration(i + 1)
		}
		return ds
	}
	for _, c := range []struct {
		n    int
		p    float64
		want time.Duration // 0: refused
	}{
		{20, 0.5, 10},     // rank 10, 10 beyond
		{19, 0.5, 0},      // rank 10, 9 beyond
		{101, 0.5, 51},    // nearest rank rounds up
		{1000, 0.99, 990}, // exactly 10 beyond
		{999, 0.99, 0},    // rank 990, 9 beyond
		{1009, 0.99, 999},
		{100, 0.99, 0},
	} {
		got, ok := percentile(ramp(c.n), c.p)
		if ok != (c.want != 0) || got != c.want {
			t.Errorf("percentile(n=%d, p=%g) = %d, %v; want %d", c.n, c.p, got, ok, c.want)
		}
	}
}

// TestPlantedGoldenBitFails flips one bit of one golden output and
// checks that the ops reading it, and only those, fail.
func TestPlantedGoldenBitFails(t *testing.T) {
	flip := func(v *float32) { *v = math.Float32frombits(math.Float32bits(*v) ^ 1) }

	f, err := prepareBulk(1)
	if err != nil {
		t.Fatal(err)
	}
	bulk := f.(*bulkFixture)
	sys, err := bulk.build(false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	if ph := runPhase(newCallers(1, 1), 100*time.Millisecond, sys.op, 0); ph.failed != 0 {
		t.Fatalf("clean goldens: %d of %d ops failed", ph.failed, ph.attempted)
	}
	flip(&bulk.golden[0][3][12345])
	c := &caller{seed: 1}
	var failed, hit int
	for ; c.seq < 300; c.seq++ {
		planted := c.seq%3 == 0 && c.draw()%bulkPool == 3
		o := sys.op(c)
		if planted {
			hit++
		}
		if o.fail {
			failed++
		}
		if o.fail != planted {
			t.Fatalf("op %d: fail=%v, reads the planted golden: %v", c.seq, o.fail, planted)
		}
	}
	if hit == 0 || failed != hit {
		t.Fatalf("%d ops read the planted golden, %d failed", hit, failed)
	}
	r := &result{attempted: int(c.seq), failed: failed}
	if r.correct() || float64(r.failed)/float64(r.attempted) <= 0 {
		t.Fatalf("fail_frac %d/%d does not show the planted bit", r.failed, r.attempted)
	}

	f, err = prepareSweep(1)
	if err != nil {
		t.Fatal(err)
	}
	sweep := f.(*sweepFixture)
	ss, err := sweep.build(false, nil)
	if err != nil {
		t.Fatal(err)
	}
	flip(&sweep.golden[0][5])
	for c := (&caller{}); c.seq < 3; c.seq++ {
		if o := ss.op(c); o.fail != (c.seq == 0) {
			t.Fatalf("sweep op %d: fail=%v", c.seq, o.fail)
		}
	}
}

func TestClosedLoopNeverExceedsCallers(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		var inflight, peak atomic.Int64
		per := make([]atomic.Int64, n)
		var overlap atomic.Bool
		op := func(c *caller) outcome {
			if per[c.id].Add(1) > 1 {
				overlap.Store(true)
			}
			v := inflight.Add(1)
			for p := peak.Load(); v > p && !peak.CompareAndSwap(p, v); p = peak.Load() {
			}
			time.Sleep(100 * time.Microsecond)
			inflight.Add(-1)
			per[c.id].Add(-1)
			return outcome{elems: 1, lat: time.Microsecond}
		}
		runPhase(newCallers(n, 1), 30*time.Millisecond, op, 0)
		if peak.Load() > int64(n) || peak.Load() < 1 {
			t.Errorf("%d callers: peak %d ops in flight", n, peak.Load())
		}
		if overlap.Load() {
			t.Errorf("%d callers: a caller sent an op before its previous one returned", n)
		}
	}
	for _, w := range allWorkloads {
		if got := w.callerCount(); got > w.callers || got > runtime.NumCPU() || got < 1 {
			t.Errorf("%s: %d callers for %d configured on %d CPUs", w.name, got, w.callers, runtime.NumCPU())
		}
	}
}

// inputsOf returns a fixture's seeded inputs.
func inputsOf(fx fixture) any {
	switch f := fx.(type) {
	case *bulkFixture:
		return f.inputs
	case *smallFixture:
		return f.inputs
	case *fusedFixture:
		return f.inputs
	case *sweepFixture:
		return f.inputs
	}
	return nil
}

func TestSeedReproducesInputs(t *testing.T) {
	a, b, other := &caller{id: 1, seed: 7}, &caller{id: 1, seed: 7}, &caller{id: 1, seed: 8}
	differs := false
	for i := uint64(0); i < 64; i++ {
		a.seq, b.seq, other.seq = i, i, i
		if a.draw() != b.draw() {
			t.Fatalf("op %d: same seed drew differently", i)
		}
		differs = differs || a.draw() != other.draw()
	}
	if !differs {
		t.Fatal("seeds 7 and 8 drew the same op sequence")
	}
	for _, w := range allWorkloads {
		var in [3]any
		for i, seed := range []uint64{3, 3, 4} {
			fx, err := w.prepare(seed)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			in[i] = inputsOf(fx)
		}
		if in[0] == nil || !reflect.DeepEqual(in[0], in[1]) {
			t.Errorf("%s: seed 3 did not reproduce its inputs", w.name)
		}
		if reflect.DeepEqual(in[0], in[2]) {
			t.Errorf("%s: seeds 3 and 4 gave the same inputs", w.name)
		}
	}
}

// TestSeedReproducesModeled builds engine-bulk and paper-sweep twice
// from one seed and checks the modeled metrics repeat exactly.
func TestSeedReproducesModeled(t *testing.T) {
	for _, name := range []string{"engine-bulk", "paper-sweep"} {
		var got [2][2]float64
		for i := range got {
			w := lookup(name)
			fx, err := w.prepare(5)
			if err != nil {
				t.Fatal(err)
			}
			sys, err := fx.build(false, nil)
			if err != nil {
				t.Fatal(err)
			}
			if s, ok := sys.(*sweepSUT); ok { // one pass fills the per-op cycle table
				for c := (&caller{seed: 5}); c.seq < uint64(len(s.cycles)); c.seq++ {
					if o := s.op(c); o.fail {
						t.Fatalf("sweep op %d failed", c.seq)
					}
				}
			}
			got[i][0], got[i][1], err = sys.modeled()
			sys.close()
			if err != nil {
				t.Fatal(err)
			}
			if got[i][0] <= 0 || got[i][1] <= 0 {
				t.Fatalf("%s: modeled cycles %g, bytes %g per element", name, got[i][0], got[i][1])
			}
		}
		if got[0] != got[1] {
			t.Errorf("%s: modeled (cycles, bytes) per element %v then %v", name, got[0], got[1])
		}
	}
}

func TestStageSpanOutsideRequestFails(t *testing.T) {
	at := func(us int) time.Time { return time.Unix(0, int64(us)*1e3) }
	tree := func(kernelEnd int) []*transpimlib.Trace {
		batch := &transpimlib.Span{Name: "batch[0]", Start: at(2), End: at(10), Child: []*transpimlib.Span{
			{Name: "transfer_in", Start: at(2), End: at(3)},
			{Name: "setup", Start: at(3), End: at(4)},
			{Name: "kernel", Start: at(4), End: at(kernelEnd)},
			{Name: "transfer_out", Start: at(9), End: at(10)},
		}}
		batch.SetAttr("elements", "4")
		req := &transpimlib.Span{Name: "request", Start: at(0), End: at(11), Child: []*transpimlib.Span{
			{Name: "queue", Start: at(0), End: at(2)}, batch,
		}}
		return []*transpimlib.Trace{{ID: 1, Root: req}}
	}
	st := splitStages(tree(8))
	if st.outside != 0 || st.requests != 1 || len(st.wait) != 1 || st.kernNs/st.kernEl != 1000 {
		t.Fatalf("well-formed tree: %+v", st)
	}
	if st.wait[0] != time.Microsecond { // 8 µs batch, 7 µs of stages
		t.Errorf("stage wait %v, want 1µs", st.wait[0])
	}
	if st := splitStages(tree(12)); st.outside != 1 {
		t.Fatalf("kernel span past its request: outside=%d, want 1", st.outside)
	}
}

func TestCPUSharesSumToOne(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 1.0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = math.Sqrt(x + float64(i))
		}
	}
	pprof.StopCPUProfile()
	shares, n, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Skip("no profile samples")
	}
	sum, top := 0.0, ""
	for m, s := range shares {
		sum += s
		if top == "" || s > shares[top] {
			top = m
		}
	}
	if math.Abs(sum-1) > 1e-9 || top != "bench" || len(shares) != len(cpuModules) {
		t.Fatalf("shares %v (sum %g, x %g): want the spinning test itself on top", shares, sum, x)
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"transpimlib/internal/engine.(*Engine).stageCompute.func1": "engine",
		"transpimlib/internal/telemetry/promparse.Parse":           "telemetry",
		"transpimlib/internal/rangered.SplitExp":                   "core",
		"transpimlib.(*Lib).Eval":                                  "core",
		"transpimlib.(*Cluster).EvaluateBatchAs":                   "cluster",
		"runtime.mallocgc":                                         "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":             "runtime",
		"main.(*sweepSUT).op":                                      "bench",
		"encoding/json.(*encodeState).marshal":                     "",
		"sync.(*Mutex).Lock":                                       "",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json declares the
// workloads and metrics this program reports, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range allWorkloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, program runs %v", names, want)
	}
	for _, c := range []struct {
		got  []struct{ Name, Unit string }
		want []unitOf
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("BENCHMARK.json lists %d metrics, program reports %d", len(c.got), len(c.want))
			continue
		}
		for i, m := range c.want {
			if c.got[i].Name != m.name || c.got[i].Unit != m.unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], program %s [%s]", i, c.got[i].Name, c.got[i].Unit, m.name, m.unit)
			}
		}
	}
}

// TestRunWorkload runs cluster-small end to end, untraced and traced:
// every output verified, every end-to-end metric positive, and the
// traced run's checks passing with the engine stage split present.
func TestRunWorkload(t *testing.T) {
	w := lookup("cluster-small")
	dir := t.TempDir()
	for _, traced := range []bool{false, true} {
		var log bytes.Buffer
		r, err := runWorkload(*w, options{seed: 9, seconds: 2, traced: traced, traceDir: dir}, &log)
		if err != nil {
			t.Fatalf("traced=%v: %v", traced, err)
		}
		if !r.correct() || r.attempted == 0 {
			t.Fatalf("traced=%v: %d of %d failed, checks %v", traced, r.failed, r.attempted, r.checks)
		}
		list := endToEnd
		if traced {
			list = []unitOf{{"engine.queue_us", ""}, {"cluster.overhead_us", ""}, {"telemetry.scrape_trace_us", ""}, {"cpu.cluster", ""}}
		}
		for _, m := range list {
			if r.values[m.name] <= 0 {
				t.Errorf("traced=%v: %s = %g", traced, m.name, r.values[m.name])
			}
		}
	}
	if _, err := os.Stat(dir + "/cluster-small.trace.json"); err != nil {
		t.Fatal(err)
	}
}

// TestQuietBlocksPoolsLeastDisturbed builds a phase whose first quarter
// of blocks got twice the CPU per wall second of the rest and checks
// that only those blocks' ops are timed.
func TestQuietBlocksPoolsLeastDisturbed(t *testing.T) {
	const blocks = 40
	quiet := blocks / 4
	p := &phase{cpu: []cpuMark{{}}}
	var cpu time.Duration
	for k := 0; k < blocks; k++ {
		share, lat := time.Duration(1), 100*time.Microsecond
		if k < quiet {
			share, lat = 2, 10*time.Microsecond
		}
		for i := 0; i < blockOps; i++ {
			done := time.Duration(k*blockOps+i+1) * time.Millisecond
			cpu += share * time.Millisecond
			p.samples = append(p.samples, sample{done: done, lat: lat, elems: 1})
			p.cpu = append(p.cpu, cpuMark{at: done, cpu: cpu})
		}
	}
	tm, err := quietBlocks(p)
	if err != nil {
		t.Fatal(err)
	}
	if tm.p50 != 10*time.Microsecond || tm.p99 != 10*time.Microsecond || tm.rate != 1000 {
		t.Fatalf("p50 %v p99 %v rate %g; want the quiet blocks' 10µs and 1000 elements/s", tm.p50, tm.p99, tm.rate)
	}
}
