// Command tpltop is the live terminal view of a serving process
// (tplload -listen). It polls the telemetry endpoints and renders
// per-tenant cost rates — requests, elements, modeled kernel cycles and
// host↔PIM bytes per second, attributed by the cost ledger's exact
// batch partitioning — a request-rate sparkline from the windowed
// timeline, the profiler's hotspot frames and per-DPU heatmap,
// per-replica utilization (routed share, backlog, modeled-busy ratio)
// when the target is a cluster, and the accuracy watcher's series with
// their input coverage and worst-case exemplars (read from
// /debug/accuracy, or /replica/<i>/debug/accuracy for each replica of a
// cluster).
//
// Rates are deltas between consecutive polls, so the first frame
// shows cumulative totals. Every pane is optional: an endpoint that
// answers 404, because its observer is off, renders "n/a".
//
// Usage:
//
//	tpltop [-url http://localhost:9090] [-interval 1s] [-once]
//
// -once polls a single time and prints totals without clearing the
// screen (for scripts and CI logs).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"transpimlib"
	"transpimlib/internal/accwatch"
	"transpimlib/internal/profiler"
	"transpimlib/internal/telemetry/promparse"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tpltop", flag.ContinueOnError)
	fs.SetOutput(stderr)
	url := fs.String("url", "http://localhost:9090", "base URL of a tplload -listen endpoint")
	interval := fs.Duration("interval", time.Second, "poll interval")
	once := fs.Bool("once", false, "poll once, print totals, and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	var prev *poll
	for {
		cur, err := fetch(*url)
		if err != nil {
			fmt.Fprintln(stderr, "tpltop:", err)
			return 1
		}
		if !*once {
			fmt.Fprint(stdout, "\x1b[2J\x1b[H") // clear screen, home cursor
		}
		render(stdout, prev, cur)
		if *once {
			return 0
		}
		prev = cur
		select {
		case <-sig:
			return 0
		case <-time.After(*interval):
		}
	}
}

// poll is one scrape of the target: the optional debug documents
// (each with whether the target mounts it), the cluster or engine
// registry, and each replica's engine registry.
type poll struct {
	at         time.Time
	ledger     transpimlib.LedgerSnapshot
	ledgerOK   bool
	timeline   transpimlib.TimelineSnapshot
	timelineOK bool
	profile    profiler.Profile
	profileOK  bool
	heatmap    []heatSource
	heatmapOK  bool
	accuracy   []accSource
	metrics    map[string]float64
	replicas   map[int]map[string]float64
}

// heatSource is one source of the /debug/heatmap document (one per
// replica under a cluster).
type heatSource struct {
	Name string `json:"name"`
	profiler.Heatmap
}

// accSource is one engine's accuracy snapshot.
type accSource struct {
	name string
	snap accwatch.Snapshot
}

// errNotFound marks an endpoint the target does not mount.
var errNotFound = errors.New("not found")

// get fetches one endpoint's body; a 404 is errNotFound.
func get(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	switch {
	case err != nil:
		return nil, err
	case resp.StatusCode == http.StatusNotFound:
		return nil, errNotFound
	case resp.StatusCode != http.StatusOK:
		return nil, fmt.Errorf("%s: %s (%s)", url, resp.Status, strings.TrimSpace(string(body)))
	}
	return body, nil
}

// getJSON decodes an optional endpoint into v; ok is false when the
// target does not mount it.
func getJSON(url string, v any) (ok bool, err error) {
	body, err := get(url)
	if errors.Is(err, errNotFound) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, json.Unmarshal(body, v)
}

func getMetrics(url string) (map[string]float64, error) {
	body, err := get(url)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", url, err)
	}
	return promparse.Parse(string(body))
}

func fetch(base string) (*poll, error) {
	p := &poll{at: time.Now()}
	var err error
	// Only /metrics (always mounted) is load-bearing.
	if p.metrics, err = getMetrics(base + "/metrics"); err != nil {
		return nil, err
	}
	p.replicas = map[int]map[string]float64{}
	ids := replicaIDs(p.metrics)
	for _, i := range ids {
		if p.replicas[i], err = getMetrics(fmt.Sprintf("%s/replica/%d/metrics", base, i)); err != nil {
			return nil, err
		}
	}
	var hm struct {
		Sources []heatSource `json:"sources"`
	}
	for _, d := range []struct {
		path string
		v    any
		ok   *bool
	}{
		{"/debug/ledger", &p.ledger, &p.ledgerOK},
		{"/debug/timeline", &p.timeline, &p.timelineOK},
		{"/debug/profile", &p.profile, &p.profileOK},
		{"/debug/heatmap", &hm, &p.heatmapOK},
	} {
		if *d.ok, err = getJSON(base+d.path, d.v); err != nil {
			return nil, err
		}
	}
	p.heatmap = hm.Sources
	// Accuracy is kept per engine: each replica's, or the target's own.
	prefixes := []string{""}
	if len(ids) > 0 {
		prefixes = prefixes[:0]
		for _, i := range ids {
			prefixes = append(prefixes, fmt.Sprintf("/replica/%d", i))
		}
	}
	for _, prefix := range prefixes {
		a := accSource{name: strings.TrimPrefix(prefix, "/")}
		ok, err := getJSON(base+prefix+"/debug/accuracy", &a.snap)
		if err != nil {
			return nil, err
		}
		if ok {
			p.accuracy = append(p.accuracy, a)
		}
	}
	return p, nil
}

// replicaIDs lists the replica indices present in a cluster
// exposition (empty for a single-engine target).
func replicaIDs(metrics map[string]float64) []int {
	var ids []int
	for name := range metrics {
		if promparse.Family(name) != "cluster_replica_queue_depth" {
			continue
		}
		if i, err := strconv.Atoi(promparse.Label(name, "replica")); err == nil {
			ids = append(ids, i)
		}
	}
	sort.Ints(ids)
	return ids
}

// tenantRow is one rendered ledger line: per-second rates between two
// polls, or cumulative totals when prev is nil.
type tenantRow struct {
	transpimlib.LedgerKey
	reqs, elems, kcycles float64
	mbIn, mbOut          float64
	degraded, shed, fail float64
}

// ledgerRows diffs two ledger snapshots into per-second rates (rows
// present only in cur are rated against a zero row; rows that
// disappeared are dropped). With prev nil it returns cumulative
// totals, dt 1.
func ledgerRows(prev, cur transpimlib.LedgerSnapshot, dt float64) []tenantRow {
	if dt <= 0 {
		dt = 1
	}
	base := map[transpimlib.LedgerKey]transpimlib.LedgerEntry{}
	for _, r := range prev.Rows {
		base[r.LedgerKey] = r.LedgerEntry
	}
	var out []tenantRow
	for _, r := range cur.Rows {
		b := base[r.LedgerKey]
		row := tenantRow{
			LedgerKey: r.LedgerKey,
			reqs:      float64(r.Requests-b.Requests) / dt,
			elems:     float64(r.Elements-b.Elements) / dt,
			kcycles:   float64(r.KernelCycles-b.KernelCycles) / dt / 1e3,
			mbIn:      float64(r.BytesIn-b.BytesIn) / dt / 1e6,
			mbOut:     float64(r.BytesOut-b.BytesOut) / dt / 1e6,
			degraded:  float64(r.Degraded-b.Degraded) / dt,
			shed:      float64(r.Shed-b.Shed) / dt,
			fail:      float64(r.Failovers-b.Failovers) / dt,
		}
		out = append(out, row)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].kcycles > out[j].kcycles })
	return out
}

// replicaRow is one replica's utilization line: routed requests per
// second, current backlog, and the modeled-busy ratio — modeled
// pipeline seconds (transfer + compute + drain) accumulated per wall
// second, which can exceed 1 because the simulator outruns its model.
type replicaRow struct {
	id            int
	routed        float64
	queue         float64
	modeledBusy   float64
	kcyclesPerSec float64
}

// busySeconds sums a replica's modeled pipeline seconds.
func busySeconds(m map[string]float64) float64 {
	return m["engine_transfer_in_seconds_total"] +
		m["engine_compute_seconds_total"] +
		m["engine_transfer_out_seconds_total"]
}

// replicaRows diffs per-replica registries into utilization rows.
// With prev nil the routed / cycle columns are cumulative totals.
func replicaRows(prev, cur *poll, dt float64) []replicaRow {
	if dt <= 0 {
		dt = 1
	}
	var ids []int
	for i := range cur.replicas {
		ids = append(ids, i)
	}
	sort.Ints(ids)
	var out []replicaRow
	for _, i := range ids {
		m := cur.replicas[i]
		row := replicaRow{
			id:            i,
			routed:        cur.metrics[fmt.Sprintf("cluster_routed_total{replica=%q}", strconv.Itoa(i))],
			queue:         cur.metrics[fmt.Sprintf("cluster_replica_queue_depth{replica=%q}", strconv.Itoa(i))],
			modeledBusy:   busySeconds(m),
			kcyclesPerSec: m["engine_kernel_cycles_total"] / 1e3,
		}
		if prev != nil {
			pm := prev.replicas[i]
			row.routed = (row.routed - prev.metrics[fmt.Sprintf("cluster_routed_total{replica=%q}", strconv.Itoa(i))]) / dt
			row.modeledBusy = (row.modeledBusy - busySeconds(pm)) / dt
			row.kcyclesPerSec = (row.kcyclesPerSec - pm["engine_kernel_cycles_total"]/1e3) / dt
		}
		out = append(out, row)
	}
	return out
}

// sparkline renders values as a bar string scaled to the largest one
// (empty when every value is zero).
func sparkline(vals []float64) string {
	glyphs := []rune("▁▂▃▄▅▆▇█")
	var max float64
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	if max == 0 {
		return ""
	}
	var sb strings.Builder
	for _, v := range vals {
		sb.WriteRune(glyphs[int(float64(len(glyphs)-1)*v/max)])
	}
	return sb.String()
}

// rateSparkline renders the timeline's per-window values of one
// series.
func rateSparkline(tl transpimlib.TimelineSnapshot, series string) string {
	var vals []float64
	for _, w := range tl.Windows {
		vals = append(vals, w.Values[series])
	}
	return sparkline(vals)
}

// coverSpan summarizes an accuracy series' occupied input-coverage
// range ("2^-3..2^2").
func coverSpan(cover []accwatch.CoverBucket) string {
	switch len(cover) {
	case 0:
		return "-"
	case 1:
		return cover[0].Label
	}
	return cover[0].Label + ".." + cover[len(cover)-1].Label
}

func render(w io.Writer, prev, cur *poll) {
	dt := 1.0
	unit := "total"
	if prev != nil {
		dt = cur.at.Sub(prev.at).Seconds()
		unit = "/s"
	}
	fmt.Fprintf(w, "tpltop  tenants=%d  replicas=%d  (%s)\n",
		len(cur.ledger.Rows), len(cur.replicas), unit)
	if !cur.timelineOK {
		fmt.Fprintln(w, "req/s timeline  n/a (no /debug/timeline; run tplload with -timeline)")
	} else {
		for _, series := range []string{"cluster_requests_total:rate", "engine_requests_total:rate"} {
			if sl := rateSparkline(cur.timeline, series); sl != "" {
				fmt.Fprintf(w, "req/s timeline  %s\n", sl)
				break
			}
		}
	}
	fmt.Fprintln(w)

	if !cur.ledgerOK {
		fmt.Fprintln(w, "tenant ledger  n/a (no /debug/ledger; run tplload with -ledger)")
	} else {
		fmt.Fprintf(w, "%-10s %-10s %-14s %8s %9s %11s %8s %8s %6s %5s %5s\n",
			"TENANT", "FN", "METHOD", "REQ"+unit, "ELEM"+unit, "KCYC"+unit, "MB-IN", "MB-OUT", "DEGR", "SHED", "FAIL")
		var base transpimlib.LedgerSnapshot
		if prev != nil {
			base = prev.ledger
		}
		rows := ledgerRows(base, cur.ledger, dt)
		if len(rows) == 0 {
			fmt.Fprintln(w, "no ledger rows yet (no attributed traffic)")
		}
		for _, r := range rows {
			fmt.Fprintf(w, "%-10s %-10s %-14s %8.1f %9.0f %11.1f %8.2f %8.2f %6.0f %5.0f %5.0f\n",
				orAnon(r.Tenant), r.Function, r.Method, r.reqs, r.elems, r.kcycles,
				r.mbIn, r.mbOut, r.degraded, r.shed, r.fail)
		}
		if n := cur.ledger.Overflowed; n > 0 {
			fmt.Fprintf(w, "(+%d rows collapsed into the overflow bucket)\n", n)
		}
	}

	renderHotspots(w, prev, cur, unit)
	renderHeatmap(w, prev, cur, dt, unit)

	reps := replicaRows(prev, cur, dt)
	if len(reps) > 0 {
		fmt.Fprintf(w, "\n%-8s %10s %7s %10s %12s\n",
			"REPLICA", "ROUTED"+unit, "QUEUE", "BUSY(x)", "KCYC"+unit)
		for _, r := range reps {
			fmt.Fprintf(w, "%-8d %10.1f %7.0f %10.3f %12.1f\n",
				r.id, r.routed, r.queue, r.modeledBusy, r.kcyclesPerSec)
		}
	}

	renderAccuracy(w, cur)
}

func orAnon(tenant string) string {
	if tenant == "" {
		return "(anon)"
	}
	return tenant
}

// renderHotspots prints the profiler pane: the top frames by
// attributed wall cycles — rated between polls via an exact profile
// subtraction, cumulative on the first frame.
func renderHotspots(w io.Writer, prev, cur *poll, unit string) {
	fmt.Fprintln(w)
	if !cur.profileOK {
		fmt.Fprintln(w, "hotspots  n/a (no /debug/profile; run tplload with -profile)")
		return
	}
	p := cur.profile
	if prev != nil && prev.profileOK {
		p = profiler.Sub(cur.profile, prev.profile)
	}
	fmt.Fprintf(w, "%-10s %-10s %-14s %-8s %-6s %14s %7s\n",
		"TENANT", "FN", "METHOD", "STAGE", "CLASS", "WALLCYC"+unit, "%")
	if len(p.Frames) == 0 {
		fmt.Fprintln(w, "no profiled launches in this window")
		return
	}
	const hot = 10
	for _, f := range p.Top(hot) {
		share := 0.0
		if p.TotalWall > 0 {
			share = 100 * float64(f.WallCycles) / float64(p.TotalWall)
		}
		fmt.Fprintf(w, "%-10s %-10s %-14s %-8s %-6s %14d %6.2f%%\n",
			orAnon(f.Tenant), f.Function, f.Method, f.Stage, f.Class, f.WallCycles, share)
	}
	if len(p.Frames) > hot {
		fmt.Fprintf(w, "(+%d more frames; curl /debug/profile?format=folded for the full profile)\n", len(p.Frames)-hot)
	}
}

// renderHeatmap prints the per-DPU utilization pane, one bar per core
// split into issue (#), DMA-excess (=) and idle (.) shares: cumulative
// on the first frame, over the interval between polls after that.
func renderHeatmap(w io.Writer, prev, cur *poll, dt float64, unit string) {
	fmt.Fprintln(w)
	if !cur.heatmapOK {
		fmt.Fprintln(w, "heatmap  n/a (no /debug/heatmap; run tplload with -profile)")
		return
	}
	for i, src := range cur.heatmap {
		h := src.Heatmap
		if prev != nil && prev.heatmapOK && i < len(prev.heatmap) && prev.heatmap[i].Name == src.Name {
			h = profiler.SubHeatmap(h, prev.heatmap[i].Heatmap)
		}
		fmt.Fprintf(w, "HEATMAP %s  launches%s=%.1f\n", src.Name, unit, float64(h.Launches)/dt)
		const width = 40
		for _, d := range h.DPUs {
			iw := int(d.IssueShare*width + 0.5)
			dw := min(int((d.IssueShare+d.DMAShare)*width+0.5), width) - iw
			bar := strings.Repeat("#", iw) + strings.Repeat("=", dw) + strings.Repeat(".", width-iw-dw)
			fmt.Fprintf(w, "  dpu %3d [%s] issue %5.1f%%  dma %5.1f%%  idle %5.1f%%\n",
				d.DPU, bar, 100*d.IssueShare, 100*d.DMAShare, 100*d.IdleShare)
		}
	}
}

// renderAccuracy prints each engine's shadow-sample series, worst mean
// error first, with their input coverage and worst-case exemplars.
func renderAccuracy(w io.Writer, cur *poll) {
	fmt.Fprintln(w)
	if len(cur.accuracy) == 0 {
		fmt.Fprintln(w, "accuracy  n/a (no /debug/accuracy; run tplload with -accuracy)")
		return
	}
	for _, a := range cur.accuracy {
		snap := a.snap
		fmt.Fprintf(w, "ACCURACY %s  rate=%.3g  window=%d  samples=%d  breaches=%d  drift=%d  out-of-range=%d\n",
			a.name, snap.SampleRate, snap.Window, snap.Samples, snap.Breaches, snap.Drifts, snap.OutOfRange)
		if len(snap.Series) == 0 {
			fmt.Fprintln(w, "no series yet (no sampled traffic)")
			continue
		}
		fmt.Fprintf(w, "%-10s %-14s %-10s %9s %10s %10s %9s %4s %5s  %-14s %s\n",
			"FN", "METHOD", "TENANT", "SAMPLES", "MAE", "MAX-ABS", "MAX-ULP", "SLO✗", "DRIFT", "COVER", "")
		series := append([]accwatch.SeriesSnapshot(nil), snap.Series...)
		sort.SliceStable(series, func(i, j int) bool {
			return series[i].Cumulative.MeanAbs > series[j].Cumulative.MeanAbs
		})
		for _, s := range series {
			var counts []float64
			for _, c := range s.Coverage {
				counts = append(counts, float64(c.Count))
			}
			fmt.Fprintf(w, "%-10s %-14s %-10s %9d %10.3g %10.3g %9.3g %4d %5d  %-14s %s\n",
				s.Key.Function, s.Key.Method, orAnon(s.Key.Tenant),
				s.Samples, s.Cumulative.MeanAbs, s.Cumulative.MaxAbs, s.Cumulative.MaxULP,
				s.Breaches, s.Drifts, coverSpan(s.Coverage), sparkline(counts))
		}
		for _, s := range series {
			if e := s.WorstAbs; e != nil {
				fmt.Fprintf(w, "worst %s/%s/%s: f(%v)=%v want %.6g  abs=%.3g ulp=%.3g  (x=0x%08x shard=%d trace=%d)\n",
					s.Key.Function, s.Key.Method, s.Key.Tenant,
					e.Input, e.Output, e.Ref, e.AbsErr, e.ULP, e.InputBits, e.Shard, e.TraceID)
			}
		}
	}
}
