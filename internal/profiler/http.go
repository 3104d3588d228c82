package profiler

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"
)

// Source is one named collector behind an export endpoint — a bare
// engine exposes one, a cluster one per replica (merged for profiles,
// listed side by side for heatmaps).
type Source struct {
	Name string
	C    *Collector
}

// maxProfileWindow bounds ?seconds=N so a client cannot park a
// handler goroutine for hours.
const maxProfileWindow = 5 * time.Minute

// ProfileHandler serves /debug/profile over the given sources.
//
//	?seconds=N   profile the next N seconds (delta of two snapshots);
//	             absent or 0: cumulative since start
//	?format=json|folded|pprof   (default json)
func ProfileHandler(sources func() []Source) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		snap := func() Profile {
			ps := make([]Profile, 0, 4)
			for _, s := range sources() {
				if s.C != nil {
					ps = append(ps, s.C.Snapshot())
				}
			}
			if len(ps) == 1 {
				return ps[0]
			}
			return Merge(ps...)
		}
		var prof Profile
		if secs, _ := strconv.ParseFloat(r.URL.Query().Get("seconds"), 64); secs > 0 {
			d := time.Duration(secs * float64(time.Second))
			if d > maxProfileWindow {
				d = maxProfileWindow
			}
			before := snap()
			select {
			case <-time.After(d):
			case <-r.Context().Done():
				http.Error(w, "client went away", http.StatusRequestTimeout)
				return
			}
			prof = Sub(snap(), before)
		} else {
			prof = snap()
		}
		switch r.URL.Query().Get("format") {
		case "folded":
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_ = prof.WriteFolded(w)
		case "pprof":
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set("Content-Disposition", `attachment; filename="profile.pb.gz"`)
			_ = prof.WritePprof(w)
		default:
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(prof)
		}
	})
}

// heatmapSource is one source's heatmap in the JSON export.
type heatmapSource struct {
	Name string `json:"name"`
	Heatmap
}

// HeatmapHandler serves /debug/heatmap: per-DPU utilization
// decompositions per source (one per replica under a cluster),
// cumulative since each collector started.
func HeatmapHandler(sources func() []Source) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		out := struct {
			Sources []heatmapSource `json:"sources"`
		}{Sources: []heatmapSource{}}
		for _, s := range sources() {
			if s.C == nil {
				continue
			}
			out.Sources = append(out.Sources, heatmapSource{Name: s.Name, Heatmap: s.C.HeatmapSnapshot()})
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(out)
	})
}
