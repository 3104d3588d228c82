package main

import (
	"strings"
	"testing"
	"time"

	"transpimlib/internal/accwatch"
	"transpimlib/internal/profiler"
)

func TestSparklineAndCoverSpan(t *testing.T) {
	s := sparkline([]float64{1, 50, 100})
	if len([]rune(s)) != 3 {
		t.Fatalf("sparkline length %d, want 3 (%q)", len([]rune(s)), s)
	}
	r := []rune(s)
	if r[0] >= r[1] || r[1] >= r[2] {
		t.Fatalf("sparkline not monotone for increasing counts: %q", s)
	}
	cover := []accwatch.CoverBucket{
		{Label: "2^-2", Count: 1},
		{Label: "2^-1", Count: 50},
		{Label: "2^0", Count: 100},
	}
	if got := coverSpan(cover); got != "2^-2..2^0" {
		t.Fatalf("coverSpan = %q", got)
	}
	if sparkline(nil) != "" || coverSpan(nil) != "-" {
		t.Fatal("empty coverage not handled")
	}
}

// TestRenderSmoke renders the accuracy pane of one replica with a
// worst-case exemplar, and "n/a" for a target without the watcher.
func TestRenderSmoke(t *testing.T) {
	snap := accwatch.Snapshot{
		SampleRate: 0.01, Window: 4096, Samples: 100,
		Series: []accwatch.SeriesSnapshot{{
			Key:     accwatch.Key{Function: "sin", Method: "cordic", Tenant: "t"},
			Samples: 100,
			Coverage: []accwatch.CoverBucket{
				{Label: "2^0", Count: 60}, {Label: "2^1", Count: 40},
			},
			WorstAbs: &accwatch.Exemplar{Input: 1, Output: 0.84, Ref: 0.8414},
		}},
	}
	var sb strings.Builder
	render(&sb, nil, &poll{accuracy: []accSource{{name: "replica/0", snap: snap}}})
	out := sb.String()
	for _, want := range []string{"ACCURACY replica/0", "cordic", "2^0..2^1", "worst sin/cordic/t"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render output lacks %q:\n%s", want, out)
		}
	}
	sb.Reset()
	render(&sb, nil, &poll{})
	if !strings.Contains(sb.String(), "accuracy  n/a") {
		t.Fatalf("no n/a accuracy pane:\n%s", sb.String())
	}
}

// TestHeatmapPane renders the per-DPU pane from one poll (cumulative
// totals) and from two (shares over the interval between them).
func TestHeatmapPane(t *testing.T) {
	dpu := func(launches, wall, issue, dma uint64) profiler.HeatDPU {
		return profiler.HeatDPU{Launches: launches, WallCycles: wall, IssueCycles: issue, DMACycles: dma,
			IdleCycles: wall - issue - dma, IssueShare: float64(issue) / float64(wall),
			DMAShare: float64(dma) / float64(wall), IdleShare: float64(wall-issue-dma) / float64(wall)}
	}
	heat := func(launches uint64, d profiler.HeatDPU) []heatSource {
		return []heatSource{{Name: "replica/0", Heatmap: profiler.Heatmap{Launches: launches, DPUs: []profiler.HeatDPU{d}}}}
	}
	// Totals: 1 launch, all issue. The next interval adds 1 launch that
	// is all idle, so the interval reads 0% issue, 100% idle.
	p1 := &poll{at: time.Unix(100, 0), heatmapOK: true, heatmap: heat(1, dpu(1, 100, 100, 0))}
	p2 := &poll{at: time.Unix(102, 0), heatmapOK: true, heatmap: heat(2, dpu(2, 200, 100, 0))}

	var sb strings.Builder
	render(&sb, nil, p1)
	if out := sb.String(); !strings.Contains(out, "HEATMAP replica/0  launchestotal=1.0") ||
		!strings.Contains(out, "  dpu   0 ["+strings.Repeat("#", 40)+"] issue 100.0%") {
		t.Fatalf("totals frame:\n%s", out)
	}
	sb.Reset()
	render(&sb, p1, p2)
	if out := sb.String(); !strings.Contains(out, "launches/s=0.5") ||
		!strings.Contains(out, "  dpu   0 ["+strings.Repeat(".", 40)+"] issue   0.0%  dma   0.0%  idle 100.0%") {
		t.Fatalf("interval frame:\n%s", out)
	}
	sb.Reset()
	render(&sb, nil, &poll{})
	if !strings.Contains(sb.String(), "heatmap  n/a") {
		t.Fatalf("no n/a heatmap pane:\n%s", sb.String())
	}
}
