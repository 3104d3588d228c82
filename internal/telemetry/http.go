package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
)

// Telemetry bundles a process's observability handles: the metrics
// registry (always cheap, always on), the optional request tracer
// (nil when tracing is disabled), and the optional accuracy snapshot
// source (nil unless the engine's shadow sampler is enabled).
type Telemetry struct {
	Registry *Registry
	Tracer   *Tracer
	// AccuracyJSON, when non-nil, supplies the /debug/accuracy
	// document — the engine wires it to the accwatch snapshot.
	AccuracyJSON func() any
	// Timeline, when non-nil, serves windowed rate/percentile views of
	// the registry at /debug/timeline.
	Timeline *Timeline
	// LedgerJSON, when non-nil, supplies the /debug/ledger document —
	// the per-(tenant, function, method) cost snapshot.
	LedgerJSON func() any
	// ProfileHandler, when non-nil, serves /debug/profile — the
	// modeled-cycle profiler's flamegraph/pprof export (the engine or
	// cluster wires it to internal/profiler's handler).
	ProfileHandler http.Handler
	// HeatmapHandler, when non-nil, serves /debug/heatmap — per-DPU
	// issue/DMA/idle utilization decompositions.
	HeatmapHandler http.Handler
}

// Handler returns an http.Handler exposing the standard endpoints:
//
//	/metrics         Prometheus text exposition of the registry
//	/debug/trace     retained request span trees as JSON
//	                 (?n=K limits to the K most recent; ?format=chrome
//	                 emits the Chrome trace_event form instead)
//	/debug/accuracy  the shadow sampler's accuracy snapshot as JSON
//	                 (404 when accuracy monitoring is disabled)
//	/debug/timeline  windowed rate / gauge / percentile views of the
//	                 registry as JSON (404 when the timeline is off)
//	/debug/ledger    the per-(tenant, function, method) cost ledger as
//	                 JSON (404 when the ledger is off)
//	/debug/profile   the modeled-cycle profiler's frames as JSON,
//	                 folded flamegraph stacks, or gzip pprof
//	                 (?seconds=N&format=...; 404 when profiling is off)
//	/debug/heatmap   per-DPU issue/DMA/idle utilization windows as
//	                 JSON (404 when profiling is off)
func (t *Telemetry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if t == nil || t.Registry == nil {
			return
		}
		if err := t.Registry.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		if t == nil || t.Tracer == nil {
			http.Error(w, "tracing disabled (set a trace depth)", http.StatusNotFound)
			return
		}
		n := -1
		if q := r.URL.Query().Get("n"); q != "" {
			var err error
			if n, err = strconv.Atoi(q); err != nil || n < 0 {
				http.Error(w, fmt.Sprintf("bad n=%q", q), http.StatusBadRequest)
				return
			}
		}
		traces := t.Tracer.Newest(n)
		switch r.URL.Query().Get("format") {
		case "chrome":
			w.Header().Set("Content-Type", "application/json")
			if err := WriteChromeTrace(w, traces); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		case "", "json":
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			if err := enc.Encode(traces); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		default:
			http.Error(w, "format must be json or chrome", http.StatusBadRequest)
		}
	})
	mux.HandleFunc("/debug/timeline", func(w http.ResponseWriter, _ *http.Request) {
		if t == nil || t.Timeline == nil {
			http.Error(w, "timeline disabled (enable the windowed store)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(t.Timeline.Snapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/ledger", func(w http.ResponseWriter, _ *http.Request) {
		if t == nil || t.LedgerJSON == nil {
			http.Error(w, "cost ledger disabled (enable the ledger)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(t.LedgerJSON()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/profile", func(w http.ResponseWriter, r *http.Request) {
		if t == nil || t.ProfileHandler == nil {
			http.Error(w, "profiling disabled (enable the profiler)", http.StatusNotFound)
			return
		}
		t.ProfileHandler.ServeHTTP(w, r)
	})
	mux.HandleFunc("/debug/heatmap", func(w http.ResponseWriter, r *http.Request) {
		if t == nil || t.HeatmapHandler == nil {
			http.Error(w, "profiling disabled (enable the profiler)", http.StatusNotFound)
			return
		}
		t.HeatmapHandler.ServeHTTP(w, r)
	})
	mux.HandleFunc("/debug/accuracy", func(w http.ResponseWriter, _ *http.Request) {
		if t == nil || t.AccuracyJSON == nil {
			http.Error(w, "accuracy monitoring disabled (enable the shadow sampler)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(t.AccuracyJSON()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	return mux
}
