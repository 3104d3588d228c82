// Command tplload drives the serving stack and serves its telemetry.
// It builds a transpimlib.Cluster (one replica by default, which is
// bit-identical to a bare engine), fires the sigmoid/GELU/exp request
// mix at it, checks the answers, and reports latency, goodput,
// shedding, routing and recovery as tables and, with -json, as a JSON
// document.
//
// Load. Without -rate, -clients closed-loop clients each send
// -requests requests back to back. With -rate the generator is open
// loop: arrivals fire on a Poisson or bursty schedule regardless of
// completions, so queueing delay shows up as latency rather than as a
// lower offered rate. Arrivals are due at absolute offsets from the
// start, so sleep overshoot delays an arrival but never drops one; a
// -warmup phase precedes the -duration measurement, and the report
// gives the achieved rate next to the target.
//
// Checks. -verify compares every served output bit for bit with
// goldens from a clean target of the same shape (outputs do not depend
// on placement), after checking each golden against the float64
// reference. -faults injects a fault plan into every replica, or only
// into replica -fail-replica; when the run is deterministic (one
// replica, one shard, one closed-loop client) it is replayed on a
// fresh target and the two fault-event logs must be identical.
// -max-shed bounds the shed fraction, and -acc-gate fails the run when
// any replica's cumulative accuracy violates an -slo.
//
// Observers. -trace, -ledger, -timeline, -profile and -accuracy turn
// on the matching telemetry. -listen serves it — the cluster's series
// and /debug documents at the root, each replica's engine telemetry
// (accuracy included) under /replica/<i>/ — and -hold keeps it up after
// the run for curl or tpltop. -chrome writes the retained traces as a
// Chrome trace_event file (about:tracing, ui.perfetto.dev) and prints
// a per-stage summary.
//
// Batching. -window is the engine's coalescing window. At 0 (the
// engine default) the batcher coalesces only requests already queued,
// and a request that fits in one batch runs on its caller when a shard
// is idle and nothing waits for one; a positive window (say 200us)
// queues every request and holds each batching round open that long.
//
// Exit codes: 0 success; 1 a failed check or request error (incorrect
// bits, a diverged replay, a violated -max-shed, -acc-gate or golden
// check, or an achieved rate below 95% of -rate); 2 bad usage; 3 the
// -listen address is already in use.
//
// Usage:
//
//	tplload [-replicas 1] [-replication 2] [-dpus 8] [-shards 2] [-window 0]
//	        [-clients 6] [-requests 24] | [-rate 2000] [-arrivals poisson|bursty]
//	        [-burst-factor 8] [-burst-period 100ms] [-warmup 500ms] [-duration 2s]
//	        [-elems 1024] [-tenants 4] [-quota 0] [-quota-burst 0] [-max-queue 0]
//	        [-verify] [-max-shed 1] [-faults PLAN] [-fail-replica -1] [-hedge 0]
//	        [-trace 0] [-chrome trace.json] [-ledger] [-timeline 1s] [-profile]
//	        [-accuracy 0.01] [-slo "method=l-lut(i),mae=1e-3"] [-acc-gate]
//	        [-acc-out accuracy.json] [-listen :9090] [-hold 0s]
//	        [-seed 1] [-json report.json]
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"text/tabwriter"
	"time"

	"transpimlib"
	"transpimlib/internal/stats"
	"transpimlib/internal/telemetry"
)

// jobs is the request mix. Sigmoid and exp keep their tables in MRAM,
// the only memory the bit-flip fault class corrupts; GELU keeps its
// tables in WRAM. Outputs do not depend on placement.
var jobs = []struct {
	fn  transpimlib.Function
	cfg transpimlib.Config
}{
	{transpimlib.Sigmoid, transpimlib.Config{Method: transpimlib.LLUT, Interpolated: true, SizeLog2: 12, Placement: transpimlib.InMRAM}},
	{transpimlib.GELU, transpimlib.Config{Method: transpimlib.DLLUT, Interpolated: true, SizeLog2: 12}},
	{transpimlib.Exp, transpimlib.Config{Method: transpimlib.LLUTFixed, Interpolated: true, SizeLog2: 12, Placement: transpimlib.InMRAM}},
}

// inputPools is the number of fixed payloads per job: request i sends
// job i mod 3 with pool i/3 mod inputPools, so -verify needs one golden
// per (job, pool).
const inputPools = 8

// report is the JSON output document.
type report struct {
	Config struct {
		Replicas    int     `json:"replicas"`
		Replication int     `json:"replication"`
		DPUs        int     `json:"dpus"`
		Shards      int     `json:"shards"`
		Clients     int     `json:"clients,omitempty"`
		Requests    int     `json:"requests_per_client,omitempty"`
		Rate        float64 `json:"rate_rps,omitempty"`
		Arrivals    string  `json:"arrivals,omitempty"`
		Elems       int     `json:"elems"`
		Tenants     int     `json:"tenants"`
		FailReplica int     `json:"fail_replica"`
		Seed        int64   `json:"seed"`
	} `json:"config"`
	Offered   uint64  `json:"offered_requests"`
	Achieved  float64 `json:"achieved_rate_rps,omitempty"`
	Served    uint64  `json:"served_requests"`
	Shed      uint64  `json:"shed_requests"`
	Errors    uint64  `json:"error_requests"`
	ShedRate  float64 `json:"shed_rate"`
	GoodputME float64 `json:"goodput_melem_per_s"`
	LatencyMS struct {
		P50 float64 `json:"p50"`
		P95 float64 `json:"p95"`
		P99 float64 `json:"p99"`
		Max float64 `json:"max"`
	} `json:"latency_ms"`
	Verified   bool            `json:"verified"`
	Mismatches uint64          `json:"bit_mismatches"`
	Failovers  uint64          `json:"failovers"`
	Degraded   uint64          `json:"degraded"`
	Replicas   []replicaReport `json:"replicas_detail"`
	// Plan and Replay are set under -faults: the injected plan and the
	// replay verdict ("identical", "DIVERGED" or why it was skipped).
	Plan   string `json:"plan,omitempty"`
	Replay string `json:"replay,omitempty"`
}

type replicaReport struct {
	Replica     int                      `json:"replica"`
	Routed      uint64                   `json:"routed"`
	Share       float64                  `json:"share"`
	Quarantined bool                     `json:"quarantined"`
	Stats       transpimlib.EngineStats  `json:"stats"`
	LaneHealth  []transpimlib.LaneHealth `json:"lane_health,omitempty"`
	FaultEvents []transpimlib.FaultEvent `json:"fault_events,omitempty"`
}

// tally accumulates the measured requests' outcomes; safe for
// concurrent use.
type tally struct {
	mu                                    sync.Mutex
	lats                                  []time.Duration
	offered, served, shed, errs, mismatch uint64
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tplload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	replicas := fs.Int("replicas", 1, "engine replicas behind the cluster router")
	replication := fs.Int("replication", 2, "candidate-set size K per key")
	dpus := fs.Int("dpus", 8, "simulated PIM cores per replica")
	shards := fs.Int("shards", 2, "shards per replica (dpus must divide evenly)")
	window := fs.Duration("window", 0, "batcher coalescing window (0: coalesce only queued requests, and run a lone request on its caller when a shard is idle)")
	clients := fs.Int("clients", 6, "closed loop: concurrent clients")
	requests := fs.Int("requests", 24, "closed loop: requests per client")
	rate := fs.Float64("rate", 0, "open loop: mean offered load in requests/s (0: closed loop)")
	arrivals := fs.String("arrivals", "poisson", "open loop: arrival process, poisson or bursty")
	burstFactor := fs.Float64("burst-factor", 8, "bursty: on-phase rate multiplier")
	burstPeriod := fs.Duration("burst-period", 100*time.Millisecond, "bursty: on+off cycle length")
	warmup := fs.Duration("warmup", 500*time.Millisecond, "open loop: warmup phase, excluded from the report")
	duration := fs.Duration("duration", 2*time.Second, "open loop: measurement phase")
	elems := fs.Int("elems", 1024, "elements per request")
	tenants := fs.Int("tenants", 4, "distinct tenant tags")
	quota := fs.Float64("quota", 0, "per-tenant token-bucket rate, elements/s (0 disables quotas)")
	quotaBurst := fs.Float64("quota-burst", 0, "per-tenant bucket capacity (0: one second of -quota)")
	maxQueue := fs.Int("max-queue", 0, "backlog bound per replica for queue shedding (0 disables)")
	verify := fs.Bool("verify", false, "bit-compare every served output against goldens from a clean target")
	maxShed := fs.Float64("max-shed", 1, "fail when the measured shed fraction exceeds this")
	faults := fs.String("faults", "", `fault-injection plan, e.g. "seed=42,dpufail=0.05,bitflip=0.02"`)
	failReplica := fs.Int("fail-replica", -1, "inject -faults into this replica only (-1: every replica)")
	hedge := fs.Float64("hedge", 0, "hedged-launch ratio under -faults (0 disables hedging)")
	traceDepth := fs.Int("trace", 0, "request traces to retain (0 disables tracing)")
	chrome := fs.String("chrome", "", "write the retained traces as a Chrome trace_event file and print a per-stage summary")
	ledger := fs.Bool("ledger", false, "per-tenant cost ledger (/debug/ledger, tenant_* series, report table)")
	timeline := fs.Duration("timeline", 0, "windowed metrics store bucket width (/debug/timeline; 0 disables)")
	profile := fs.Bool("profile", false, "modeled-cycle profiler (/debug/profile, /debug/heatmap)")
	accuracy := fs.Float64("accuracy", 0, "shadow-sample this fraction of every request against the float64 reference (0 disables)")
	sloSpec := fs.String("slo", "", `accuracy SLOs, e.g. "fn=sigmoid,method=l-lut(i),mae=1e-3;method=cordic,ulp=4096"`)
	accGate := fs.Bool("acc-gate", false, "fail when any replica violates a cumulative accuracy SLO")
	accOut := fs.String("acc-out", "", "write every replica's final accuracy snapshot to this JSON file")
	listen := fs.String("listen", "", "serve the telemetry on this address (e.g. :9090)")
	hold := fs.Duration("hold", 0, "keep serving this long after the run (with -listen)")
	seed := fs.Int64("seed", 1, "seed for inputs, arrivals and the hash ring")
	jsonOut := fs.String("json", "", "write the JSON report to this file ('-' for stdout)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "tplload: "+format+"\n", a...)
		return 2
	}
	slos, err := parseSLOs(*sloSpec)
	switch {
	case err != nil:
		return usage("-slo: %v", err)
	case fs.NArg() > 0:
		return usage("unexpected arguments %q", fs.Args())
	case *arrivals != "poisson" && *arrivals != "bursty":
		return usage("unknown -arrivals %q (want poisson or bursty)", *arrivals)
	case *replicas < 1 || *elems < 1 || *tenants < 1 || *clients < 1 || *requests < 0 || *rate < 0:
		return usage("-replicas, -elems, -tenants and -clients must be positive")
	case *failReplica >= *replicas || (*failReplica >= 0 && *faults == ""):
		return usage("-fail-replica needs -faults and an index below -replicas")
	case len(slos) > 0 && *accuracy <= 0:
		return usage("-slo requires -accuracy > 0")
	case *accGate && len(slos) == 0:
		return usage("-acc-gate needs -slo")
	case *accOut != "" && *accuracy <= 0:
		return usage("-acc-out requires -accuracy > 0")
	}
	out := stdout // human tables; the JSON report owns stdout with -json -
	if *jsonOut == "-" {
		out = stderr
	}

	// Graceful shutdown: the first SIGINT/SIGTERM stops new requests,
	// in-flight ones drain, and the report still prints.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// newTarget builds a cluster of the run's shape. The clean target
	// that computes the goldens has no faults, quotas or observers.
	newTarget := func(clean bool) (*transpimlib.Cluster, error) {
		cfg := transpimlib.ClusterConfig{
			Replicas:    *replicas,
			Replication: *replication,
			Seed:        uint64(*seed),
			Engine:      transpimlib.EngineConfig{DPUs: *dpus, Shards: *shards, BatchWindow: *window},
		}
		if clean {
			return transpimlib.NewCluster(cfg)
		}
		cfg.Engine.Reliability.HedgeRatio = *hedge
		cfg.Engine.Accuracy = transpimlib.AccuracyConfig{Enabled: *accuracy > 0, SampleRate: *accuracy, SLOs: slos}
		if *failReplica >= 0 {
			cfg.ReplicaFaults = map[int]string{*failReplica: *faults}
		} else {
			cfg.Engine.Faults = *faults
		}
		if *quota > 0 {
			cfg.DefaultQuota = &transpimlib.TenantQuota{Rate: *quota, Burst: *quotaBurst}
		}
		cfg.MaxQueue = *maxQueue
		cfg.TraceDepth = *traceDepth
		cfg.Ledger = *ledger
		cfg.Timeline = transpimlib.TimelineConfig{Enabled: *timeline > 0, BucketWidth: *timeline}
		cfg.Profiler = transpimlib.ProfilerConfig{Enabled: *profile}
		return transpimlib.NewCluster(cfg)
	}

	pools := make([][][]float32, len(jobs))
	for j := range jobs {
		for p := 0; p < inputPools; p++ {
			pools[j] = append(pools[j], stats.RandomInputs(-2, 2, *elems, uint64(*seed)+uint64(j*inputPools+p+1)))
		}
	}
	var goldens [][][]float32
	if *verify {
		ref, err := newTarget(true)
		if err == nil {
			goldens, err = computeGoldens(ref, pools)
		}
		if err != nil {
			fmt.Fprintln(stderr, "tplload: goldens:", err)
			return 1
		}
	}

	cl, err := newTarget(false)
	if err != nil {
		fmt.Fprintln(stderr, "tplload:", err)
		return 1
	}
	defer cl.Close()
	if *listen != "" {
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			fmt.Fprintln(stderr, "tplload:", err)
			return listenExitCode(err)
		}
		srv := &http.Server{Handler: clusterHandler(cl)}
		go func() {
			if err := srv.Serve(ln); err != http.ErrServerClosed {
				fmt.Fprintln(stderr, "tplload: telemetry server:", err)
			}
		}()
		defer srv.Close()
		fmt.Fprintf(out, "serving telemetry on %s: cluster at /, replica <i> at /replica/<i>/\n", ln.Addr())
	}

	names := make([]string, *tenants)
	for i := range names {
		names[i] = "tenant-" + strconv.Itoa(i)
	}
	// issue sends request i to target c and, when measured, records its
	// outcome in t.
	issue := func(c *transpimlib.Cluster, t *tally, i uint64, measured bool) {
		j, p := int(i%uint64(len(jobs))), int(i/uint64(len(jobs)))%inputPools
		start := time.Now()
		ys, _, err := c.EvaluateBatchAs(names[i%uint64(len(names))], jobs[j].fn, jobs[j].cfg, pools[j][p])
		lat := time.Since(start)
		if !measured {
			return
		}
		t.mu.Lock()
		defer t.mu.Unlock()
		t.offered++
		switch {
		case err == nil:
			t.served++
			t.lats = append(t.lats, lat)
			if goldens != nil && !sameBits(ys, goldens[j][p]) {
				t.mismatch++
			}
		case errors.Is(err, transpimlib.ErrOverloaded):
			t.shed++
		default:
			t.errs++
			fmt.Fprintf(stderr, "tplload: request %d: %v\n", i, err)
		}
	}

	var t tally
	var measured, firing time.Duration
	if *rate > 0 {
		measured, firing = openLoop(ctx, *rate, *arrivals == "bursty", *burstFactor, *burstPeriod,
			*warmup, *duration, *seed, func(i uint64, m bool) { issue(cl, &t, i, m) })
	} else {
		start := time.Now()
		closedLoop(ctx, *clients, *requests, func(i uint64) { issue(cl, &t, i, true) })
		measured = time.Since(start)
	}
	cl.Close() // drain in-flight batches and settle the counters

	var rep report
	rep.Config.Replicas, rep.Config.Replication = *replicas, *replication
	rep.Config.DPUs, rep.Config.Shards = *dpus, *shards
	rep.Config.Elems, rep.Config.Tenants = *elems, *tenants
	rep.Config.FailReplica, rep.Config.Seed = *failReplica, *seed
	if *rate > 0 {
		rep.Config.Rate, rep.Config.Arrivals = *rate, *arrivals
		rep.Achieved = float64(t.offered) / firing.Seconds()
	} else {
		rep.Config.Clients, rep.Config.Requests = *clients, *requests
	}
	rep.Offered, rep.Served, rep.Shed, rep.Errors = t.offered, t.served, t.shed, t.errs
	rep.Verified, rep.Mismatches = *verify, t.mismatch
	if t.offered > 0 {
		rep.ShedRate = float64(t.shed) / float64(t.offered)
	}
	rep.GoodputME = float64(t.served) * float64(*elems) / measured.Seconds() / 1e6
	sort.Slice(t.lats, func(a, b int) bool { return t.lats[a] < t.lats[b] })
	ms := func(p float64) float64 { return float64(percentile(t.lats, p)) / float64(time.Millisecond) }
	rep.LatencyMS.P50, rep.LatencyMS.P95, rep.LatencyMS.P99, rep.LatencyMS.Max = ms(0.50), ms(0.95), ms(0.99), ms(1)
	cs := cl.Stats()
	rep.Failovers, rep.Degraded = cs.Failovers, cs.Degraded
	rstats, health := cl.ReplicaStats(), cl.Health()
	var routedTotal uint64
	for _, n := range cs.Routed {
		routedTotal += n
	}
	for r := 0; r < *replicas; r++ {
		e := cl.Replica(r)
		rr := replicaReport{Replica: r, Routed: cs.Routed[r], Quarantined: health[r].Quarantined,
			Stats: rstats[r], LaneHealth: e.Health(), FaultEvents: e.FaultEvents()}
		if routedTotal > 0 {
			rr.Share = float64(cs.Routed[r]) / float64(routedTotal)
		}
		rep.Replicas = append(rep.Replicas, rr)
	}

	// The replay: injection is a pure function of the plan seed, so a
	// deterministic run must reproduce its fault-event log exactly.
	if *faults != "" {
		rep.Plan = *faults
		switch {
		case ctx.Err() != nil:
			rep.Replay = "skipped (interrupted)"
		case *replicas != 1 || *shards != 1 || *clients != 1 || *rate > 0:
			rep.Replay = "skipped (needs one replica, one shard and one closed-loop client)"
		default:
			again, err := newTarget(false)
			if err != nil {
				fmt.Fprintln(stderr, "tplload: replay:", err)
				return 1
			}
			closedLoop(ctx, 1, *requests, func(i uint64) { issue(again, &tally{}, i, true) })
			again.Close()
			rep.Replay = "identical"
			if !reflect.DeepEqual(again.Replica(0).FaultEvents(), rep.Replicas[0].FaultEvents) {
				rep.Replay = "DIVERGED"
			}
		}
	}

	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	writeTables(w, &rep, cl)
	if *ledger {
		writeLedger(w, cl.Ledger())
	}
	var snaps []transpimlib.AccuracySnapshot
	if *accuracy > 0 {
		for r := 0; r < *replicas; r++ {
			snap, _ := cl.Replica(r).Accuracy()
			snaps = append(snaps, snap)
		}
		writeAccuracy(w, snaps)
	}
	var failures []string
	if *accGate {
		fmt.Fprintf(w, "\naccuracy gate\treplica\tfn\tmethod\ttenant\tmetric\tgot\tmax_mae\tmax_ulp\n")
		violations := 0
		for r := 0; r < *replicas; r++ {
			for _, v := range cl.Replica(r).AccuracyViolations() {
				fmt.Fprintf(w, "VIOLATED\t%d\t%s\t%s\t%s\t%s\t%.3g\t%g\t%g\n", r,
					v.Key.Function, v.Key.Method, v.Key.Tenant, v.Metric, v.Got, v.SLO.MaxMAE, v.SLO.MaxULP)
				violations++
			}
		}
		if violations > 0 {
			failures = append(failures, fmt.Sprintf("%d accuracy SLO violations", violations))
		} else {
			fmt.Fprintf(w, "passed\t%d replicas\t%d SLOs\n", *replicas, len(slos))
		}
	}
	if *chrome != "" {
		traces := cl.Traces()
		if err := writeFile(*chrome, func(f io.Writer) error { return telemetry.WriteChromeTrace(f, traces) }); err != nil {
			fmt.Fprintln(stderr, "tplload:", err)
			return 1
		}
		fmt.Fprintf(w, "\nwrote %d request traces (Chrome trace_event) to %s\n", len(traces), *chrome)
		writeStages(w, traces)
	}
	w.Flush()

	for _, doc := range []struct {
		path string
		v    any
	}{{*accOut, snaps}, {*jsonOut, rep}} {
		if doc.path == "" {
			continue
		}
		if err := writeJSON(doc.path, stdout, doc.v); err != nil {
			fmt.Fprintln(stderr, "tplload:", err)
			return 1
		}
	}

	if rep.Mismatches > 0 {
		failures = append(failures, fmt.Sprintf("%d served requests returned incorrect bits", rep.Mismatches))
	}
	if rep.Errors > 0 {
		failures = append(failures, fmt.Sprintf("%d requests errored", rep.Errors))
	}
	if rep.ShedRate > *maxShed {
		failures = append(failures, fmt.Sprintf("shed rate %.3f exceeds -max-shed %.3f", rep.ShedRate, *maxShed))
	}
	if *rate > 0 && rep.Achieved < 0.95**rate {
		failures = append(failures, fmt.Sprintf("achieved rate %.0f req/s is below 95%% of -rate %.0f", rep.Achieved, *rate))
	}
	if rep.Replay == "DIVERGED" {
		failures = append(failures, "the replayed run's fault-event log differs")
	}
	for _, f := range failures {
		fmt.Fprintln(stderr, "tplload: FAIL:", f)
	}
	if len(failures) > 0 {
		return 1
	}
	if *listen != "" && *hold > 0 && ctx.Err() == nil {
		fmt.Fprintf(out, "holding the telemetry endpoints for %v\n", *hold)
		select {
		case <-ctx.Done():
		case <-time.After(*hold):
		}
	}
	return 0
}

// computeGoldens evaluates every pool on the clean target c, checks
// each result against the float64 reference (max abs error ≤ 0.05),
// and closes c.
func computeGoldens(c *transpimlib.Cluster, pools [][][]float32) ([][][]float32, error) {
	defer c.Close()
	goldens := make([][][]float32, len(jobs))
	for j, jb := range jobs {
		ref := jb.fn.Ref()
		for _, xs := range pools[j] {
			ys, _, err := c.EvaluateBatch(jb.fn, jb.cfg, xs)
			if err != nil {
				return nil, err
			}
			var col stats.Collector
			for i, x := range xs {
				col.Add(ys[i], ref(float64(x)))
			}
			if worst := col.Result().MaxAbs; worst > 0.05 {
				return nil, fmt.Errorf("%v max abs error %.3g against the float64 reference", jb.fn, worst)
			}
			goldens[j] = append(goldens[j], ys)
		}
	}
	return goldens, nil
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// closedLoop runs clients that each send requests requests back to
// back. Client c's r-th request is request c + r·clients, so the
// clients interleave the mix, and one client sends 0, 1, 2, … in order.
func closedLoop(ctx context.Context, clients, requests int, issue func(i uint64)) {
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < requests && ctx.Err() == nil; r++ {
				issue(uint64(c + r*clients))
			}
		}(c)
	}
	wg.Wait()
}

// openLoop fires arrivals over the warmup and measurement phases, each
// on its own goroutine, and waits for them all. It returns the
// measurement window and the wall time the generator took to fire the
// measured arrivals (at least the window).
func openLoop(ctx context.Context, rate float64, bursty bool, burstFactor float64, burstPeriod,
	warmup, duration time.Duration, seed int64, issue func(i uint64, measured bool)) (window, firing time.Duration) {
	rng := rand.New(rand.NewSource(seed))
	gap := func(now time.Duration) time.Duration {
		r := rate
		if bursty {
			// Square-wave modulation: the first half of each period
			// runs at burst-factor × the off-phase rate, preserving the
			// configured mean.
			r = 2 * rate / (burstFactor + 1)
			if now%burstPeriod < burstPeriod/2 {
				r *= burstFactor
			}
		}
		return time.Duration(rng.ExpFloat64() / r * float64(time.Second))
	}
	var wg sync.WaitGroup
	begin := time.Now()
	elapsed := func() time.Duration { return time.Since(begin) }
	lastFired := warmup
	schedule(warmup+duration, gap, elapsed, time.Sleep,
		func() bool { return ctx.Err() != nil },
		func(i uint64, due time.Duration) {
			m := due >= warmup
			if m {
				lastFired = elapsed()
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				issue(i, m)
			}()
		})
	wg.Wait()
	window = duration
	if ctx.Err() != nil {
		window = max(time.Since(begin)-warmup, time.Millisecond)
	}
	return window, max(window, lastFired-warmup)
}

// schedule runs the open-loop arrival process over due times [0, end):
// arrival i is due at an absolute offset from the start and arrival i+1
// gap(due_i) later, so sleep overshoot delays arrivals without
// accumulating into a lower offered rate. It sleeps only until the next
// arrival is due and fires every overdue arrival without sleeping.
// elapsed and sleep are the clock; stop ends the run early.
func schedule(end time.Duration, gap func(due time.Duration) time.Duration,
	elapsed func() time.Duration, sleep func(time.Duration), stop func() bool,
	fire func(i uint64, due time.Duration)) {
	var i uint64
	for due := time.Duration(0); due < end && !stop(); i++ {
		if wait := due - elapsed(); wait > 0 {
			sleep(wait)
		}
		fire(i, due)
		due += gap(due)
	}
}

// percentile returns the p-quantile of sorted latencies (0 when empty).
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := min(max(int(p*float64(len(sorted)))-1, 0), len(sorted)-1)
	return sorted[idx]
}

// writeTables prints the load, latency, per-replica and recovery
// tables.
func writeTables(w io.Writer, rep *report, cl *transpimlib.Cluster) {
	load := fmt.Sprintf("closed %d×%d", rep.Config.Clients, rep.Config.Requests)
	if rep.Config.Rate > 0 {
		load = fmt.Sprintf("%s %.0f/s, achieved %.0f", rep.Config.Arrivals, rep.Config.Rate, rep.Achieved)
	}
	fmt.Fprintf(w, "load\toffered\tserved\tshed\tshed%%\terrors\tgoodput(Melem/s)\n")
	fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%.1f\t%d\t%.2f\n", load,
		rep.Offered, rep.Served, rep.Shed, rep.ShedRate*100, rep.Errors, rep.GoodputME)
	fmt.Fprintf(w, "\nlatency\tp50\tp95\tp99\tmax\n")
	fmt.Fprintf(w, "(ms)\t%.3f\t%.3f\t%.3f\t%.3f\n",
		rep.LatencyMS.P50, rep.LatencyMS.P95, rep.LatencyMS.P99, rep.LatencyMS.Max)
	fmt.Fprintf(w, "\nreplica\trouted\tshare%%\telements\tbatches\tcoalesced\tcache_hits\tcache_misses\tspecs\tdegraded\tquarantined\n")
	for _, rr := range rep.Replicas {
		s := rr.Stats
		fmt.Fprintf(w, "%d\t%d\t%.1f\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%v\n", rr.Replica, rr.Routed, rr.Share*100,
			s.Elements, s.Batches, s.CoalescedBatches, s.CacheHits, s.CacheMisses,
			cl.Replica(rr.Replica).CachedSpecs(), s.DegradedBatches, rr.Quarantined)
	}
	fmt.Fprintf(w, "\nmodeled\tsetup_s\ttransfer_in_s\tcompute_s\ttransfer_out_s\tkernel_kcycles\tbytes_in\tbytes_out\n")
	for _, rr := range rep.Replicas {
		s := rr.Stats
		fmt.Fprintf(w, "replica %d\t%.3g\t%.3g\t%.3g\t%.3g\t%d\t%d\t%d\n", rr.Replica, s.SetupSeconds,
			s.TransferInSeconds, s.ComputeSeconds, s.TransferOutSeconds, s.KernelCycles/1000, s.BytesIn, s.BytesOut)
	}
	if cs := cl.Stats(); cs.Failovers > 0 || cs.Degraded > 0 || cs.QuarantinedReplicas > 0 {
		fmt.Fprintf(w, "\nfailovers\tdegraded\tquarantined_replicas\n")
		fmt.Fprintf(w, "%d\t%d\t%d\n", cs.Failovers, cs.Degraded, cs.QuarantinedReplicas)
	}
	if rep.Plan != "" {
		fmt.Fprintf(w, "\nplan\t%s\n", rep.Plan)
		fmt.Fprintf(w, "recovery\tfaults\tlaunch_retries\ttransfer_retries\ttimeouts\tremaps\thedges\tdegraded\tcorruptions\trepairs\tquarantined\tprobation\tevents\n")
		for _, rr := range rep.Replicas {
			s := rr.Stats
			var quar, prob int
			for _, h := range rr.LaneHealth {
				if h.Quarantined {
					quar++
				}
				if h.Probation {
					prob++
				}
			}
			fmt.Fprintf(w, "replica %d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n", rr.Replica,
				s.FaultsInjected, s.LaunchRetries, s.TransferRetries, s.LaunchTimeouts, s.Remaps, s.Hedges,
				s.DegradedBatches, s.TableCorruptions, s.TableRepairs, quar, prob, len(rr.FaultEvents))
		}
		fmt.Fprintf(w, "replay\t%s\n", rep.Replay)
	}
	if rep.Verified {
		fmt.Fprintf(w, "\nbit_mismatches\t%d\n", rep.Mismatches)
	}
}

// writeLedger prints the cost ledger's rows, highest modeled kernel
// cycles first.
func writeLedger(w io.Writer, snap transpimlib.LedgerSnapshot) {
	rows := append([]transpimlib.LedgerRow(nil), snap.Rows...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].KernelCycles > rows[j].KernelCycles })
	fmt.Fprintf(w, "\nledger\tfn\tmethod\trequests\telements\tkernel_kcycles\tbytes_in\tbytes_out\tmodeled_s\tdegraded\tshed\tfailovers\n")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%s\t%d\t%d\t%d\t%d\t%d\t%.3g\t%d\t%d\t%d\n", r.Tenant, r.Function, r.Method,
			r.Requests, r.Elements, r.KernelCycles/1000, r.BytesIn, r.BytesOut, r.ModeledSeconds,
			r.Degraded, r.Shed, r.Failovers)
	}
	if snap.Overflowed > 0 {
		fmt.Fprintf(w, "(+%d rows collapsed into the overflow bucket)\n", snap.Overflowed)
	}
}

// writeAccuracy prints each replica's shadow-sample series.
func writeAccuracy(w io.Writer, snaps []transpimlib.AccuracySnapshot) {
	fmt.Fprintf(w, "\naccuracy\tfn\tmethod\ttenant\tsamples\tmae\tmax_abs\tmax_ulp\tbreaches\tdrifts\n")
	for r, snap := range snaps {
		for _, s := range snap.Series {
			fmt.Fprintf(w, "replica %d\t%s\t%s\t%s\t%d\t%.3g\t%.3g\t%.3g\t%d\t%d\n", r,
				s.Key.Function, s.Key.Method, s.Key.Tenant, s.Samples, s.Cumulative.MeanAbs,
				s.Cumulative.MaxAbs, s.Cumulative.MaxULP, s.Breaches, s.Drifts)
		}
	}
}

// writeStages sums wall-clock and modeled seconds per span name across
// the traces — the live analogue of the paper's per-stage breakdowns.
func writeStages(w io.Writer, traces []*transpimlib.Trace) {
	type agg struct {
		wall    time.Duration
		modeled float64
		n       int
	}
	stages := map[string]*agg{}
	var order []string
	var walk func(s *transpimlib.Span)
	walk = func(s *transpimlib.Span) {
		name := s.Name
		for _, prefix := range []string{"batch", "attempt"} {
			if strings.HasPrefix(name, prefix) {
				name = prefix
			}
		}
		a, ok := stages[name]
		if !ok {
			a = &agg{}
			stages[name] = a
			order = append(order, name)
		}
		a.wall += s.Wall()
		a.modeled += s.Modeled
		a.n++
		for _, c := range s.Child {
			walk(c)
		}
	}
	for _, tr := range traces {
		walk(tr.Root)
	}
	fmt.Fprintf(w, "stage\tspans\twall\tmodeled_s\n")
	for _, name := range order {
		a := stages[name]
		fmt.Fprintf(w, "%s\t%d\t%v\t%.3g\n", name, a.n, a.wall.Round(time.Microsecond), a.modeled)
	}
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeJSON writes v as indented JSON to path, or to stdout for "-".
func writeJSON(path string, stdout io.Writer, v any) error {
	encode := func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	}
	if path == "-" {
		return encode(stdout)
	}
	return writeFile(path, encode)
}

// parseSLOs parses the -slo flag: semicolon-separated objectives, each
// a comma-separated list of fn=, method=, tenant=, mae=, ulp= fields.
func parseSLOs(s string) ([]transpimlib.AccuracySLO, error) {
	var out []transpimlib.AccuracySLO
	for _, clause := range strings.Split(s, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		var o transpimlib.AccuracySLO
		for _, kv := range strings.Split(clause, ",") {
			key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				return nil, fmt.Errorf("bad SLO field %q (want key=value)", kv)
			}
			switch key {
			case "fn", "function":
				o.Function = val
			case "method":
				o.Method = val
			case "tenant":
				o.Tenant = val
			case "mae", "ulp":
				f, err := strconv.ParseFloat(val, 64)
				if err != nil {
					return nil, fmt.Errorf("bad SLO %s %q: %v", key, val, err)
				}
				if key == "mae" {
					o.MaxMAE = f
				} else {
					o.MaxULP = f
				}
			default:
				return nil, fmt.Errorf("unknown SLO field %q", key)
			}
		}
		if o.MaxMAE == 0 && o.MaxULP == 0 {
			return nil, fmt.Errorf("SLO %q sets no bound (mae= or ulp=)", clause)
		}
		out = append(out, o)
	}
	return out, nil
}

// listenExitCode maps a -listen failure to the process exit code: 3
// when the address is already in use (the caller can pick another
// port or wait for the previous instance), 1 for anything else.
func listenExitCode(err error) int {
	if errors.Is(err, syscall.EADDRINUSE) {
		return 3
	}
	return 1
}

// clusterHandler mounts the cluster's telemetry at the root — the
// cluster_* (and, with -ledger, tenant_*) series at /metrics plus the
// /debug/trace, /debug/timeline, /debug/ledger, /debug/profile and
// /debug/heatmap documents — and each replica's full engine telemetry,
// /debug/accuracy included, under /replica/<i>/, so a scraper can
// follow either the whole cluster or one replica.
func clusterHandler(cl *transpimlib.Cluster) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", cl.Observe().Handler())
	for i := 0; i < cl.Replicas(); i++ {
		prefix := fmt.Sprintf("/replica/%d", i)
		mux.Handle(prefix+"/", http.StripPrefix(prefix, cl.ReplicaObserve(i).Handler()))
	}
	return mux
}
