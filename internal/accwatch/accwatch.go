// Package accwatch is the serving engine's online accuracy
// observability layer. The paper's central claim is a quantified
// accuracy-vs-performance tradeoff per method (Figs. 5–7: CORDIC vs.
// the M/L/D-LUT families); the serving stack measures the performance
// half continuously but, before this package, accuracy only offline
// (cmd/tplrepro's accuracy table). accwatch closes that gap the way production ML
// serving systems treat model-quality drift — as a first-class
// observable next to latency:
//
//   - a deterministic stride shadow-sampler re-evaluates a
//     configurable fraction of each request's elements against the
//     float64 host reference (the same stats.Deviation error math the
//     offline tools use, so online and offline numbers are
//     bit-comparable);
//   - per-(function, method, tenant) absolute-error and ULP
//     histograms feed the shared telemetry registry, with bounded
//     worst-error exemplars (input bits, output bits, shard id, trace
//     id) attached to histogram buckets;
//   - input-domain coverage histograms over exponent buckets make the
//     paper's L-LUT/D-LUT table-density argument observable: when a
//     tenant's traffic leaves the table's dense region, the coverage
//     histogram shifts before the error does;
//   - rolling-window drift detection with configurable accuracy SLOs
//     trips engine_accuracy_slo_breached_total (drift moves
//     engine_accuracy_drift_total) and lets the engine annotate traces.
//
// Cost discipline: a disabled watcher is a nil pointer in the engine
// (one nil check per request, zero allocation); an enabled watcher is
// O(sampled elements) per request and touches only per-series state
// under a short mutex, never the engine's compute pipeline.
package accwatch

import (
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"transpimlib/internal/fpbits"
	"transpimlib/internal/stats"
	"transpimlib/internal/telemetry"
)

// The sampler's fixed parameters. seed drives the deterministic stride
// phase, so identical sequential request streams sample identical
// elements. SLO and drift checks run once per window of window samples
// per series, and a completed window whose MAE exceeds driftFactor ×
// the series' cumulative MAE counts as drift.
const (
	seed        = 0xACC0B5
	window      = 4096
	driftFactor = 8
)

// Config configures the watcher. The zero value is disabled.
type Config struct {
	// Enabled turns shadow sampling on. Off, the engine holds a nil
	// watcher and the serving path is bit-identical to an engine
	// without accuracy monitoring.
	Enabled bool
	// SampleRate is the fraction of each request's elements re-evaluated
	// against the float64 host reference (default 0.01; clamped to
	// [0, 1]). At 1.0 every element is shadow-checked.
	SampleRate float64
	// SLOs are the accuracy objectives checked per completed window.
	SLOs []SLO
}

// SLO is one accuracy objective: the window MAE and/or max-ULP bound
// for the series its selectors match (empty selector fields match
// anything).
type SLO struct {
	Function string  `json:"function,omitempty"` // e.g. "sin"; "" = any
	Method   string  `json:"method,omitempty"`   // e.g. "l-lut(i)"; "" = any
	Tenant   string  `json:"tenant,omitempty"`   // "" = any
	MaxMAE   float64 `json:"max_mae,omitempty"`  // breach when window MAE exceeds this (0 = unchecked)
	MaxULP   float64 `json:"max_ulp,omitempty"`  // breach when window max ULP exceeds this (0 = unchecked)
}

func (s SLO) matches(k Key) bool {
	return (s.Function == "" || s.Function == k.Function) &&
		(s.Method == "" || s.Method == k.Method) &&
		(s.Tenant == "" || s.Tenant == k.Tenant)
}

func (c Config) withDefaults() Config {
	if c.SampleRate <= 0 {
		c.SampleRate = 0.01
	}
	if c.SampleRate > 1 {
		c.SampleRate = 1
	}
	return c
}

// Key identifies one monitored series.
type Key struct {
	Function string `json:"function"`
	Method   string `json:"method"`
	Tenant   string `json:"tenant,omitempty"`
}

// maxSeries caps the number of (function, method, tenant) series.
// Beyond it, samples collapse into the overflowKey series — bounded
// state no matter how many tenants show up, the same rule as the cost
// ledger's rows and the profiler's frames.
const maxSeries = 64

// overflowKey is where samples land once maxSeries distinct keys
// exist.
var overflowKey = Key{Function: "overflow", Method: "overflow", Tenant: "overflow"}

// Request describes one completed request to Sample: identity, the
// float64 reference, the function's dense input domain, and the
// observability coordinates for exemplars.
type Request struct {
	Key     Key
	Ref     func(float64) float64 // float64 host reference
	Lo, Hi  float64               // dense table domain (coverage accounting)
	Shard   int
	TraceID uint64
}

// Outcome reports what one Sample call did.
type Outcome struct {
	Sampled  int  // elements shadow-evaluated
	Breached bool // an SLO window check failed during this call
	Drifted  bool // a drift window check fired during this call
}

// coverage exponent buckets: unbiased exponent of |x| clamped to
// [coverMin, coverMax], plus a dedicated zero bucket below and a
// non-finite bucket above.
const (
	coverMin = -20
	coverMax = 20
	// coverBuckets = zero + exponents + nonfinite
	coverBuckets = 1 + (coverMax - coverMin + 1) + 1
)

func coverIndex(x float32) int {
	e := fpbits.Exponent(x)
	switch {
	case e == math.MinInt: // ±0
		return 0
	case e == math.MaxInt: // Inf/NaN
		return coverBuckets - 1
	case e < coverMin:
		e = coverMin
	case e > coverMax:
		e = coverMax
	}
	return 1 + (e - coverMin)
}

// CoverLabel names a coverage bucket index ("zero", "2^-3", "nonfinite").
func CoverLabel(i int) string {
	switch {
	case i == 0:
		return "zero"
	case i == coverBuckets-1:
		return "nonfinite"
	default:
		return "2^" + itoa(coverMin+i-1)
	}
}

func itoa(v int) string {
	if v < 0 {
		return "-" + itoa(-v)
	}
	if v < 10 {
		return string(rune('0' + v))
	}
	return itoa(v/10) + string(rune('0'+v%10))
}

// series is the per-(function, method, tenant) accumulator.
type series struct {
	mu  sync.Mutex
	key Key

	cum     stats.Collector // since engine start — bit-comparable with tplrepro's accuracy table
	win     stats.Collector // current rolling window
	winN    int
	windows uint64
	lastWin stats.Errors // most recently completed window

	samples    uint64
	outOfRange uint64
	breaches   uint64
	drifts     uint64
	cover      [coverBuckets]uint64

	worstAbs Exemplar
	worstULP Exemplar

	slos []SLO // objectives matching this key, resolved at creation

	absHist *telemetry.Histogram
	ulpHist *telemetry.Histogram
	expHist *telemetry.Histogram
}

// Exemplar is the worst observed sample of a series: enough bits to
// reproduce it exactly (input, output, reference) plus where it ran.
type Exemplar struct {
	InputBits  uint32  `json:"input_bits"`
	OutputBits uint32  `json:"output_bits"`
	RefBits    uint64  `json:"ref_bits"`
	Input      float32 `json:"input"`
	Output     float32 `json:"output"`
	Ref        float64 `json:"ref"`
	AbsErr     float64 `json:"abs_err"`
	ULP        float64 `json:"ulp"`
	Index      int     `json:"index"` // element index within its request
	Shard      int     `json:"shard"`
	TraceID    uint64  `json:"trace_id,omitempty"`
	Set        bool    `json:"-"`
}

// Watcher is the online accuracy monitor. Create with New; Sample is
// safe for concurrent use from the engine's shard goroutines.
type Watcher struct {
	cfg Config

	samplesTotal  *telemetry.Counter
	breachesTotal *telemetry.Counter
	driftsTotal   *telemetry.Counter
	oorTotal      *telemetry.Counter
	seriesGauge   *telemetry.Gauge

	reg *telemetry.Registry

	// reqSeq is the deterministic per-request clock the stride phase
	// keys on. For a sequentially fed engine, identical request
	// streams sample identical elements.
	reqSeq atomic.Uint64

	mu     sync.Mutex
	series map[Key]*series
}

// New builds a watcher over the given registry.
func New(cfg Config, reg *telemetry.Registry) *Watcher {
	cfg = cfg.withDefaults()
	return &Watcher{
		cfg:           cfg,
		reg:           reg,
		samplesTotal:  reg.Counter("engine_accuracy_samples_total", "elements shadow-evaluated against the float64 host reference"),
		breachesTotal: reg.Counter("engine_accuracy_slo_breached_total", "accuracy SLO window checks that failed"),
		driftsTotal:   reg.Counter("engine_accuracy_drift_total", "windows whose MAE drifted beyond 8x the cumulative baseline"),
		oorTotal:      reg.Counter("engine_accuracy_out_of_range_total", "sampled inputs outside the function's dense table domain"),
		seriesGauge:   reg.Gauge("engine_accuracy_series", "monitored (function, method, tenant) series"),
		series:        make(map[Key]*series),
	}
}

// Rate returns the effective sample rate.
func (w *Watcher) Rate() float64 { return w.cfg.SampleRate }

// splitmix64 is the phase hash — the same generator faultsim uses for
// deterministic decisions.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// AbsErrorBuckets is the shadow-sampler's absolute-error ladder.
func AbsErrorBuckets() []float64 {
	return []float64{1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1}
}

// ULPBuckets is the shadow-sampler's ULP-error ladder.
func ULPBuckets() []float64 {
	return []float64{0.5, 1, 2, 4, 8, 16, 64, 256, 1024, 4096}
}

// ExponentBuckets is the input-coverage exponent ladder (values are
// unbiased binary exponents).
func ExponentBuckets() []float64 {
	return []float64{-16, -12, -8, -6, -4, -2, -1, 0, 1, 2, 4, 6, 8, 12, 16}
}

func (w *Watcher) getSeries(k Key) *series {
	w.mu.Lock()
	defer w.mu.Unlock()
	if s, ok := w.series[k]; ok {
		return s
	}
	if len(w.series) >= maxSeries {
		if s, ok := w.series[overflowKey]; ok {
			return s
		}
		k = overflowKey
	}
	lb := `{fn="` + k.Function + `",method="` + k.Method + `",tenant="` + k.Tenant + `"}`
	s := &series{
		key:     k,
		absHist: w.reg.Histogram("engine_accuracy_abs_error"+lb, "shadow-sampled absolute error vs. the float64 reference", AbsErrorBuckets()),
		ulpHist: w.reg.Histogram("engine_accuracy_ulp_error"+lb, "shadow-sampled ULP error vs. the float32-rounded reference", ULPBuckets()),
		expHist: w.reg.Histogram("engine_accuracy_input_exponent"+lb, "unbiased binary exponent of sampled inputs (domain coverage)", ExponentBuckets()),
	}
	for _, o := range w.cfg.SLOs {
		if o.matches(k) {
			s.slos = append(s.slos, o)
		}
	}
	w.series[k] = s
	w.seriesGauge.Set(int64(len(w.series)))
	return s
}

// Sample shadow-evaluates a deterministic stride subset of the
// request's elements and folds the deviations into the request's
// series. xs and ys are the request's inputs and outputs; they are
// only read. O(sampled elements).
func (w *Watcher) Sample(req Request, xs, ys []float32) Outcome {
	if w == nil {
		return Outcome{}
	}
	n := len(xs)
	if n == 0 || len(ys) < n {
		return Outcome{}
	}
	k := int(math.Ceil(w.cfg.SampleRate * float64(n)))
	if k <= 0 {
		return Outcome{}
	}
	if k > n {
		k = n
	}
	stride := n / k
	if stride < 1 {
		stride = 1
	}
	seq := w.reqSeq.Add(1)
	phase := int(splitmix64(seed^seq) % uint64(stride))

	s := w.getSeries(req.Key)
	var out Outcome
	s.mu.Lock()
	for i := phase; i < n; i += stride {
		x, y := xs[i], ys[i]
		want := req.Ref(float64(x))
		abs, ulps, _ := stats.Deviation(y, want)
		s.cum.Add(y, want)
		s.win.Add(y, want)
		s.samples++
		s.winN++
		out.Sampled++

		ci := coverIndex(x)
		s.cover[ci]++
		s.expHist.Observe(expValue(x))
		if xf := float64(x); xf < req.Lo || xf > req.Hi || ci == coverBuckets-1 {
			s.outOfRange++
			w.oorTotal.Inc()
		}

		// Built only when a sample displaces its bucket's exemplar.
		labels := func() string { return exemplarLabels(req.TraceID, x) }
		s.absHist.ObserveExemplar(abs, labels)
		s.ulpHist.ObserveExemplar(ulps, labels)
		if abs > s.worstAbs.AbsErr || !s.worstAbs.Set {
			s.worstAbs = makeExemplar(x, y, want, abs, ulps, i, req)
		}
		if ulps > s.worstULP.ULP || !s.worstULP.Set {
			s.worstULP = makeExemplar(x, y, want, abs, ulps, i, req)
		}

		if s.winN >= window {
			breached, drifted := w.closeWindow(s)
			out.Breached = out.Breached || breached
			out.Drifted = out.Drifted || drifted
		}
	}
	s.mu.Unlock()
	w.samplesTotal.Add(uint64(out.Sampled))
	return out
}

// expValue maps an input to its exponent-histogram observation value.
func expValue(x float32) float64 {
	e := fpbits.Exponent(x)
	switch {
	case e == math.MinInt:
		return float64(coverMin) - 1 // zero: below every exponent bucket
	case e == math.MaxInt:
		return float64(coverMax) + 1 // non-finite: the overflow bucket
	}
	return float64(e)
}

// exemplarLabels renders an exemplar's label block — the trace id and
// the input's float32 bits — with one allocation, the result string.
func exemplarLabels(traceID uint64, x float32) string {
	const digits = "0123456789abcdef"
	var buf [64]byte
	b := append(buf[:0], `trace_id="`...)
	b = strconv.AppendUint(b, traceID, 10)
	b = append(b, `",x="0x`...)
	bits := fpbits.Bits(x)
	for shift := 28; shift >= 0; shift -= 4 {
		b = append(b, digits[bits>>uint(shift)&0xF])
	}
	return string(append(b, '"'))
}

func makeExemplar(x, y float32, want, abs, ulps float64, idx int, req Request) Exemplar {
	return Exemplar{
		InputBits:  fpbits.Bits(x),
		OutputBits: fpbits.Bits(y),
		RefBits:    math.Float64bits(want),
		Input:      x,
		Output:     y,
		Ref:        want,
		AbsErr:     abs,
		ULP:        ulps,
		Index:      idx,
		Shard:      req.Shard,
		TraceID:    req.TraceID,
		Set:        true,
	}
}

// closeWindow finishes a series' rolling window: SLO checks, drift
// detection, reset. Caller holds s.mu.
func (w *Watcher) closeWindow(s *series) (breached, drifted bool) {
	e := s.win.Result()
	s.lastWin = e
	s.windows++
	s.win = stats.Collector{}
	s.winN = 0

	for _, o := range s.slos {
		bad := (o.MaxMAE > 0 && e.MeanAbs > o.MaxMAE) ||
			(o.MaxULP > 0 && e.MaxULP > o.MaxULP)
		if !bad {
			continue
		}
		breached = true
		s.breaches++
		w.breachesTotal.Inc()
	}

	cum := s.cum.Result()
	if cum.MeanAbs > 0 && e.MeanAbs > driftFactor*cum.MeanAbs {
		drifted = true
		s.drifts++
		w.driftsTotal.Inc()
	}
	return breached, drifted
}

// CheckSLOs evaluates every series' cumulative errors against its
// SLOs — the shutdown/gate check tplload -acc-gate runs on every
// replica, independent of window boundaries. Violations are returned
// sorted by series key.
func (w *Watcher) CheckSLOs() []Violation {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	all := make([]*series, 0, len(w.series))
	for _, s := range w.series {
		all = append(all, s)
	}
	w.mu.Unlock()

	var out []Violation
	for _, s := range all {
		s.mu.Lock()
		e := s.cum.Result()
		for _, o := range s.slos {
			if o.MaxMAE > 0 && e.MeanAbs > o.MaxMAE {
				out = append(out, Violation{Key: s.key, SLO: o, Got: e.MeanAbs, Metric: "mae"})
			}
			if o.MaxULP > 0 && e.MaxULP > o.MaxULP {
				out = append(out, Violation{Key: s.key, SLO: o, Got: e.MaxULP, Metric: "max_ulp"})
			}
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Key, out[j].Key
		if a.Function != b.Function {
			return a.Function < b.Function
		}
		if a.Method != b.Method {
			return a.Method < b.Method
		}
		return a.Tenant < b.Tenant
	})
	return out
}

// Violation is one failed cumulative SLO check.
type Violation struct {
	Key    Key     `json:"key"`
	SLO    SLO     `json:"slo"`
	Metric string  `json:"metric"` // "mae" or "max_ulp"
	Got    float64 `json:"got"`
}
