package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
)

// Registry holds named metrics and renders them in the Prometheus
// text exposition format. Registration (Counter, Gauge, …) takes a
// lock and returns a stable pointer; the hot path then mutates that
// pointer directly without touching the registry again. Metric names
// may carry a Prometheus label set inline — e.g.
// "engine_shard_kernel_cycles_total{shard=\"0\"}" — and series of the
// same family (the part before '{') are grouped under one HELP/TYPE
// header on exposition.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry
	order   []string // registration order of full names
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindFloatCounter
	kindGauge
	kindHistogram
)

type entry struct {
	name   string // full name including any {labels}
	family string // name with labels stripped
	labels string // "{...}" or ""
	help   string
	kind   metricKind

	counter *Counter
	fcnt    *FloatCounter
	gauge   *Gauge
	hist    *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

func splitName(name string) (family, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

func (r *Registry) register(name, help string, kind metricKind) *entry {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("telemetry: %s re-registered with a different type", name))
		}
		return e
	}
	family, labels := splitName(name)
	e := &entry{name: name, family: family, labels: labels, help: help, kind: kind}
	switch kind {
	case kindCounter:
		e.counter = &Counter{}
	case kindFloatCounter:
		e.fcnt = &FloatCounter{}
	case kindGauge:
		e.gauge = &Gauge{}
	}
	r.entries[name] = e
	r.order = append(r.order, name)
	return e
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name, help string) *Counter {
	e := r.register(name, help, kindCounter)
	if e == nil {
		return nil
	}
	return e.counter
}

// FloatCounter returns the named float accumulator, creating it on
// first use.
func (r *Registry) FloatCounter(name, help string) *FloatCounter {
	e := r.register(name, help, kindFloatCounter)
	if e == nil {
		return nil
	}
	return e.fcnt
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	e := r.register(name, help, kindGauge)
	if e == nil {
		return nil
	}
	return e.gauge
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (later calls ignore bounds).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok {
		if e.kind != kindHistogram {
			panic(fmt.Sprintf("telemetry: %s re-registered with a different type", name))
		}
		return e.hist
	}
	family, labels := splitName(name)
	e := &entry{name: name, family: family, labels: labels, help: help, kind: kindHistogram, hist: NewHistogram(bounds)}
	r.entries[name] = e
	r.order = append(r.order, name)
	return e.hist
}

// SeriesPoint is one registered series' current value, as enumerated
// by Registry.Series — the sampling seam the windowed timeline store
// reads through. Counters, float counters and gauges carry Value;
// histograms carry a full Snapshot in Hist.
type SeriesPoint struct {
	Name   string // full name including any {labels}
	Family string // name with labels stripped
	Kind   string // "counter", "float_counter", "gauge", "histogram"
	Value  float64
	Hist   *HistogramSnapshot // non-nil for histograms only
}

// Series enumerates every registered series in registration order with
// its current value. Individual loads are atomic; the slice as a whole
// is not a consistent cut — the standard metrics contract.
func (r *Registry) Series() []SeriesPoint {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	entries := make([]*entry, len(r.order))
	for i, name := range r.order {
		entries[i] = r.entries[name]
	}
	r.mu.Unlock()
	out := make([]SeriesPoint, 0, len(entries))
	for _, e := range entries {
		p := SeriesPoint{Name: e.name, Family: e.family}
		switch e.kind {
		case kindCounter:
			p.Kind = "counter"
			p.Value = float64(e.counter.Load())
		case kindFloatCounter:
			p.Kind = "float_counter"
			p.Value = e.fcnt.Load()
		case kindGauge:
			p.Kind = "gauge"
			p.Value = float64(e.gauge.Load())
		case kindHistogram:
			p.Kind = "histogram"
			s := e.hist.Snapshot()
			p.Hist = &s
		}
		out = append(out, p)
	}
	return out
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return fmt.Sprintf("%g", v)
}

// mergeLabels splices extra (e.g. `le="0.5"`) into an existing label
// block, producing `{a="b",le="0.5"}`.
func mergeLabels(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

// WritePrometheus renders every registered metric in the Prometheus
// text exposition format (version 0.0.4). Families are emitted in
// first-registration order; series within a family are sorted by
// label block for stable output.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	// Group entries by family, preserving family first-seen order.
	var famOrder []string
	byFam := map[string][]*entry{}
	for _, name := range r.order {
		e := r.entries[name]
		if _, seen := byFam[e.family]; !seen {
			famOrder = append(famOrder, e.family)
		}
		byFam[e.family] = append(byFam[e.family], e)
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, fam := range famOrder {
		entries := byFam[fam]
		sort.Slice(entries, func(i, j int) bool { return entries[i].labels < entries[j].labels })
		e0 := entries[0]
		if e0.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", fam, e0.help)
		}
		typ := "counter"
		switch e0.kind {
		case kindGauge:
			typ = "gauge"
		case kindHistogram:
			typ = "histogram"
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", fam, typ)
		for _, e := range entries {
			switch e.kind {
			case kindCounter:
				fmt.Fprintf(&b, "%s %d\n", e.name, e.counter.Load())
			case kindFloatCounter:
				fmt.Fprintf(&b, "%s %s\n", e.name, formatFloat(e.fcnt.Load()))
			case kindGauge:
				fmt.Fprintf(&b, "%s %d\n", e.name, e.gauge.Load())
			case kindHistogram:
				s := e.hist.Snapshot()
				cum := uint64(0)
				for i, bound := range s.Bounds {
					cum += s.Counts[i]
					fmt.Fprintf(&b, "%s%s %d\n", e.family,
						mergeLabels(e.labels, fmt.Sprintf("le=%q", formatFloat(bound))), cum)
				}
				cum += s.Counts[len(s.Bounds)]
				fmt.Fprintf(&b, "%s%s %d\n", e.family, mergeLabels(e.labels, `le="+Inf"`), cum)
				fmt.Fprintf(&b, "%s_sum%s %s\n", e.family, e.labels, formatFloat(s.Sum))
				fmt.Fprintf(&b, "%s_count%s %d\n", e.family, e.labels, s.Count)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
