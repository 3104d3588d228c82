package accwatch

import "transpimlib/internal/stats"

// Snapshot is the watcher's point-in-time JSON view — the
// /debug/accuracy document. It carries no wall-clock timestamps, so a
// deterministic feed yields a byte-identical snapshot (the golden
// test relies on this).
type Snapshot struct {
	SampleRate float64          `json:"sample_rate"`
	Window     int              `json:"window"`
	Samples    uint64           `json:"samples"`
	Breaches   uint64           `json:"slo_breaches"`
	Drifts     uint64           `json:"drift_events"`
	OutOfRange uint64           `json:"out_of_range"`
	Series     []SeriesSnapshot `json:"series"`
}

// SeriesSnapshot is one (function, method, tenant) series' view.
type SeriesSnapshot struct {
	Key        Key          `json:"key"`
	Samples    uint64       `json:"samples"`
	Cumulative stats.Errors `json:"cumulative"`
	// LastWindow is the most recently completed rolling window (zero
	// until the first window closes).
	LastWindow stats.Errors  `json:"last_window"`
	Windows    uint64        `json:"windows"`
	Breaches   uint64        `json:"slo_breaches"`
	Drifts     uint64        `json:"drift_events"`
	OutOfRange uint64        `json:"out_of_range"`
	Coverage   []CoverBucket `json:"coverage,omitempty"` // non-empty exponent buckets only
	WorstAbs   *Exemplar     `json:"worst_abs,omitempty"`
	WorstULP   *Exemplar     `json:"worst_ulp,omitempty"`
	SLOs       []SLO         `json:"slos,omitempty"`
}

// CoverBucket is one occupied input-coverage bucket.
type CoverBucket struct {
	Label string `json:"label"` // "zero", "2^-3", …, "nonfinite"
	Count uint64 `json:"count"`
}

// Snapshot assembles the watcher's current state, series sorted by
// (function, method, tenant) for stable output. Per-series state is
// read under the series lock; the snapshot as a whole is not a
// consistent cut under concurrent traffic (the standard metrics
// contract).
func (w *Watcher) Snapshot() Snapshot {
	if w == nil {
		return Snapshot{}
	}
	w.mu.Lock()
	all := make([]*series, 0, len(w.series))
	for _, s := range w.series {
		all = append(all, s)
	}
	w.mu.Unlock()

	snap := Snapshot{
		SampleRate: w.cfg.SampleRate,
		Window:     window,
		Samples:    w.samplesTotal.Load(),
		Breaches:   w.breachesTotal.Load(),
		Drifts:     w.driftsTotal.Load(),
		OutOfRange: w.oorTotal.Load(),
	}
	for _, s := range all {
		s.mu.Lock()
		ss := SeriesSnapshot{
			Key:        s.key,
			Samples:    s.samples,
			Cumulative: s.cum.Result(),
			LastWindow: s.lastWin,
			Windows:    s.windows,
			Breaches:   s.breaches,
			Drifts:     s.drifts,
			OutOfRange: s.outOfRange,
			SLOs:       s.slos,
		}
		for i, c := range s.cover {
			if c > 0 {
				ss.Coverage = append(ss.Coverage, CoverBucket{Label: CoverLabel(i), Count: c})
			}
		}
		if s.worstAbs.Set {
			ex := s.worstAbs
			ss.WorstAbs = &ex
		}
		if s.worstULP.Set {
			ex := s.worstULP
			ss.WorstULP = &ex
		}
		s.mu.Unlock()
		snap.Series = append(snap.Series, ss)
	}
	sortSeries(snap.Series)
	return snap
}

func sortSeries(ss []SeriesSnapshot) {
	for i := 1; i < len(ss); i++ { // insertion sort: series counts are small
		for j := i; j > 0 && lessKey(ss[j].Key, ss[j-1].Key); j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}

func lessKey(a, b Key) bool {
	if a.Function != b.Function {
		return a.Function < b.Function
	}
	if a.Method != b.Method {
		return a.Method < b.Method
	}
	return a.Tenant < b.Tenant
}
