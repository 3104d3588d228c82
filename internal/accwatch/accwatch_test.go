package accwatch

import (
	"encoding/json"
	"math"
	"reflect"
	"sync"
	"testing"

	"transpimlib/internal/stats"
	"transpimlib/internal/telemetry"
)

func sinReq(tenant string) Request {
	return Request{
		Key: Key{Function: "sin", Method: "l-lut(i)", Tenant: tenant},
		Ref: math.Sin,
		Lo:  0, Hi: 2 * math.Pi,
		Shard: 1, TraceID: 7,
	}
}

// approxSin simulates a device evaluation with a small fixed error.
func approxSin(xs []float32) []float32 {
	ys := make([]float32, len(xs))
	for i, x := range xs {
		ys[i] = float32(math.Sin(float64(x))) + 1e-5
	}
	return ys
}

func feed(w *Watcher, req Request, n, reqs int, seed uint64) {
	for r := 0; r < reqs; r++ {
		xs := stats.RandomInputs(0, 2*math.Pi, n, seed+uint64(r))
		w.Sample(req, xs, approxSin(xs))
	}
}

// TestSamplerDeterminism pins that two watchers with the same seed and
// the same sequential feed produce byte-identical snapshots.
func TestSamplerDeterminism(t *testing.T) {
	mk := func() Snapshot {
		w := New(Config{Enabled: true, SampleRate: 0.1, Seed: 99, Window: 64}, telemetry.NewRegistry(), nil)
		feed(w, sinReq("a"), 512, 10, 42)
		return w.Snapshot()
	}
	a, b := mk(), mk()
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("same seed, same feed, different snapshots:\n%s\n%s", ja, jb)
	}
	if a.Samples == 0 {
		t.Fatal("sampler took no samples")
	}

	// A different seed must change the sampled subset phase for at
	// least some request (the inputs differ per element, so the
	// cumulative sums differ).
	w2 := New(Config{Enabled: true, SampleRate: 0.1, Seed: 100, Window: 64}, telemetry.NewRegistry(), nil)
	feed(w2, sinReq("a"), 512, 10, 42)
	c := w2.Snapshot()
	if reflect.DeepEqual(a.Series[0].Cumulative, c.Series[0].Cumulative) {
		t.Fatal("different seeds sampled identical subsets (phase not seed-driven)")
	}
}

// TestFullRateMatchesCollector pins bit-comparability with the offline
// path: at SampleRate 1.0 the watcher's cumulative errors equal a
// stats.Collector fed the same (output, reference) pairs in order —
// the exact math cmd/tplrepro's accuracy table uses.
func TestFullRateMatchesCollector(t *testing.T) {
	w := New(Config{Enabled: true, SampleRate: 1.0, Window: 1 << 20}, telemetry.NewRegistry(), nil)
	xs := stats.RandomInputs(0, 2*math.Pi, 1000, 7)
	ys := approxSin(xs)
	w.Sample(sinReq(""), xs, ys)

	var c stats.Collector
	for i := range xs {
		c.Add(ys[i], math.Sin(float64(xs[i])))
	}
	want := c.Result()
	got := w.Snapshot().Series[0].Cumulative
	if got != want {
		t.Fatalf("online %+v != offline %+v", got, want)
	}
}

// TestSampleRateScaling pins the O(sample) contract: the sampled
// count tracks rate × n within rounding.
func TestSampleRateScaling(t *testing.T) {
	for _, rate := range []float64{0.01, 0.1, 0.5, 1.0} {
		w := New(Config{Enabled: true, SampleRate: rate}, telemetry.NewRegistry(), nil)
		xs := stats.RandomInputs(0, 1, 1000, 3)
		out := w.Sample(sinReq(""), xs, approxSin(xs))
		k := int(math.Ceil(rate * 1000))
		stride := 1000 / k
		min := 1000/stride - 1
		max := 1000/stride + 1
		if out.Sampled < min || out.Sampled > max {
			t.Fatalf("rate %v sampled %d, want ~%d", rate, out.Sampled, k)
		}
	}
}

// TestSLOTripAndCoverageShift drives traffic out of the dense domain
// and checks the two observables the paper's density argument
// predicts: the coverage histogram shifts (out-of-range counts) and
// the SLO counter trips once the window MAE degrades.
func TestSLOTripAndCoverageShift(t *testing.T) {
	reg := telemetry.NewRegistry()
	w := New(Config{
		Enabled: true, SampleRate: 1.0, Window: 256,
		SLOs: []SLO{{Function: "sin", MaxMAE: 1e-4}},
	}, reg, nil)

	// In-domain traffic with tiny error: no breach.
	req := sinReq("t0")
	xs := stats.RandomInputs(0, 2*math.Pi, 512, 5)
	w.Sample(req, xs, approxSin(xs))
	if got := w.Snapshot(); got.Breaches != 0 {
		t.Fatalf("clean traffic breached: %+v", got)
	}

	// Out-of-range traffic with gross error: coverage moves and the
	// SLO trips.
	far := stats.RandomInputs(800, 1000, 512, 6)
	bad := make([]float32, len(far))
	for i := range far {
		bad[i] = float32(math.Sin(float64(far[i]))) + 0.25
	}
	out := w.Sample(req, far, bad)
	if !out.Breached {
		t.Fatal("gross out-of-range error did not breach the SLO window")
	}
	snap := w.Snapshot()
	if snap.Breaches == 0 {
		t.Fatalf("breach not counted: %+v", snap)
	}
	s := snap.Series[0]
	if s.OutOfRange != 512 {
		t.Fatalf("out-of-range count %d, want 512", s.OutOfRange)
	}
	// Coverage must show mass in the high-exponent buckets (800..1000
	// has exponent 9).
	var high uint64
	for _, cb := range s.Coverage {
		if cb.Label == "2^9" {
			high = cb.Count
		}
	}
	if high != 512 {
		t.Fatalf("coverage histogram did not shift: %+v", s.Coverage)
	}
	if s.WorstAbs == nil || s.WorstAbs.AbsErr < 0.2 {
		t.Fatalf("worst exemplar not captured: %+v", s.WorstAbs)
	}
	if s.WorstAbs.TraceID != 7 || s.WorstAbs.Shard != 1 {
		t.Fatalf("exemplar lost its coordinates: %+v", s.WorstAbs)
	}
	// The bit-level fields must reproduce the sample exactly.
	if math.Float32bits(s.WorstAbs.Input) != s.WorstAbs.InputBits ||
		math.Float32bits(s.WorstAbs.Output) != s.WorstAbs.OutputBits {
		t.Fatalf("exemplar bits disagree with values: %+v", s.WorstAbs)
	}
}

// TestDriftDetection pins the rolling-window drift signal: a stable
// baseline followed by a much worse window fires the drift counter.
func TestDriftDetection(t *testing.T) {
	w := New(Config{Enabled: true, SampleRate: 1.0, Window: 256, DriftFactor: 4}, telemetry.NewRegistry(), nil)
	req := sinReq("")
	for r := 0; r < 8; r++ {
		xs := stats.RandomInputs(0, 2*math.Pi, 256, uint64(r))
		w.Sample(req, xs, approxSin(xs))
	}
	xs := stats.RandomInputs(0, 2*math.Pi, 256, 99)
	bad := make([]float32, len(xs))
	for i := range xs {
		bad[i] = float32(math.Sin(float64(xs[i]))) + 0.1
	}
	out := w.Sample(req, xs, bad)
	if !out.Drifted {
		t.Fatal("40x error inflation did not register as drift")
	}
	if w.Snapshot().Drifts == 0 {
		t.Fatal("drift not counted in snapshot")
	}
}

// TestConcurrentSampling exercises Sample from many goroutines under
// -race: per-series mutexes must fully serialize the collectors.
func TestConcurrentSampling(t *testing.T) {
	w := New(Config{Enabled: true, SampleRate: 1.0, Window: 128}, telemetry.NewRegistry(), nil)
	var wg sync.WaitGroup
	const G, N = 8, 400
	for g := 0; g < G; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := sinReq("tenant-" + string(rune('a'+g%3)))
			for r := 0; r < 5; r++ {
				xs := stats.RandomInputs(0, 2*math.Pi, N, uint64(g*100+r))
				w.Sample(req, xs, approxSin(xs))
			}
		}()
	}
	wg.Wait()
	snap := w.Snapshot()
	if snap.Samples != G*5*N {
		t.Fatalf("samples %d, want %d", snap.Samples, G*5*N)
	}
	var per uint64
	for _, s := range snap.Series {
		per += s.Samples
	}
	if per != snap.Samples {
		t.Fatalf("per-series samples %d != total %d", per, snap.Samples)
	}
	if len(snap.Series) != 3 {
		t.Fatalf("want 3 tenant series, got %d", len(snap.Series))
	}
}

// TestSeriesCardinalityGuard pins bounded state under unbounded tenant
// names.
func TestSeriesCardinalityGuard(t *testing.T) {
	w := New(Config{Enabled: true, SampleRate: 1.0}, telemetry.NewRegistry(), nil)
	xs := stats.RandomInputs(0, 1, 16, 1)
	ys := approxSin(xs)
	const tenants = maxSeries + 4
	for i := 0; i < tenants; i++ {
		req := sinReq("tenant-" + itoa(i))
		w.Sample(req, xs, ys)
	}
	snap := w.Snapshot()
	if len(snap.Series) != maxSeries+1 { // maxSeries real + 1 overflow
		t.Fatalf("cardinality guard failed: %d series", len(snap.Series))
	}
	var overflow *SeriesSnapshot
	for i := range snap.Series {
		if snap.Series[i].Key == overflowKey {
			overflow = &snap.Series[i]
		}
	}
	if overflow == nil || overflow.Samples != (tenants-maxSeries)*16 {
		t.Fatalf("overflow series wrong: %+v", overflow)
	}
}

// TestCheckSLOs pins the cumulative gate check.
func TestCheckSLOs(t *testing.T) {
	w := New(Config{
		Enabled: true, SampleRate: 1.0,
		SLOs: []SLO{{Method: "l-lut(i)", MaxMAE: 1e-9}},
	}, telemetry.NewRegistry(), nil)
	xs := stats.RandomInputs(0, 2*math.Pi, 100, 2)
	w.Sample(sinReq("x"), xs, approxSin(xs))
	v := w.CheckSLOs()
	if len(v) != 1 || v[0].Metric != "mae" || v[0].Got <= 1e-9 {
		t.Fatalf("gate check: %+v", v)
	}
}

func TestCoverLabels(t *testing.T) {
	if got := coverIndex(0); got != 0 || CoverLabel(got) != "zero" {
		t.Fatalf("zero bucket: %d %q", got, CoverLabel(got))
	}
	if got := coverIndex(float32(math.Inf(1))); CoverLabel(got) != "nonfinite" {
		t.Fatalf("inf bucket: %q", CoverLabel(got))
	}
	if got := CoverLabel(coverIndex(1.5)); got != "2^0" {
		t.Fatalf("1.5 bucket: %q", got)
	}
	if got := CoverLabel(coverIndex(0.25)); got != "2^-2" {
		t.Fatalf("0.25 bucket: %q", got)
	}
}

// TestNilWatcher pins the disabled path: a nil watcher's methods are
// no-ops and allocate nothing.
func TestNilWatcher(t *testing.T) {
	var w *Watcher
	xs := []float32{1, 2, 3}
	if avg := testing.AllocsPerRun(100, func() {
		if out := w.Sample(sinReq(""), xs, xs); out.Sampled != 0 {
			t.Fatal("nil watcher sampled")
		}
	}); avg != 0 {
		t.Fatalf("nil watcher allocates %.1f per call, want 0", avg)
	}
	if s := w.Snapshot(); len(s.Series) != 0 {
		t.Fatal("nil watcher produced series")
	}
	if v := w.CheckSLOs(); v != nil {
		t.Fatal("nil watcher produced violations")
	}
}

// TestExemplarLabels pins the exemplar label block and its cost: one
// allocation, the result string, whatever the trace id's width.
func TestExemplarLabels(t *testing.T) {
	for _, c := range []struct {
		id   uint64
		x    float32
		want string
	}{
		{0, 0, `trace_id="0",x="0x00000000"`},
		{7, 1.5, `trace_id="7",x="0x3fc00000"`},
		{1234567, -2, `trace_id="1234567",x="0xc0000000"`},
		{math.MaxUint64, float32(math.Inf(1)), `trace_id="18446744073709551615",x="0x7f800000"`},
	} {
		if got := exemplarLabels(c.id, c.x); got != c.want {
			t.Errorf("exemplarLabels(%d, %g) = %s, want %s", c.id, c.x, got, c.want)
		}
		if a := testing.AllocsPerRun(100, func() { exemplarLabels(c.id, c.x) }); a != 1 {
			t.Errorf("exemplarLabels(%d, %g) allocates %.0f times, want 1", c.id, c.x, a)
		}
	}
}
