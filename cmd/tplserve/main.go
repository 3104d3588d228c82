// Command tplserve demonstrates the serving engine: a fleet of
// concurrent clients firing mixed sigmoid/GELU/exp batches at a
// multi-core PIM system through transpimlib.Engine. It reports
// throughput, request latency, batching/coalescing behaviour, the
// table-cache hit rate, and the modeled per-stage costs. All output is
// structured log/slog — human-readable text by default, one JSON
// object per line with -logfmt=json.
//
// With -listen it also exposes the engine's telemetry over HTTP —
// /metrics in Prometheus text format, /debug/trace returning the
// retained request span trees (?format=chrome for a Chrome
// trace_event document), and /debug/accuracy with the shadow sampler's
// accuracy snapshot — and with -hold it keeps serving after the
// workload finishes so the endpoints can be scraped.
//
// With -accuracy the engine shadow-samples that fraction of every
// request's elements against the float64 host reference and keeps
// per-(function, method, tenant) error statistics; each workload job
// runs under its own tenant name so the series separate. -slo installs
// accuracy objectives ("fn=sigmoid,method=l-lut(i),mae=1e-3;…"),
// -acc-gate makes cumulative SLO violations fatal at exit (the CI
// accuracy gate), and -acc-out writes the final accuracy snapshot to a
// JSON file.
//
// With -ledger every request is charged to its (tenant, function,
// method) row of the cost ledger — elements, modeled kernel cycles,
// host↔PIM bytes, degrade/shed/failover counts — served at
// /debug/ledger and summarized at exit. With -timeline D the registry
// is sampled into D-wide windows served at /debug/timeline (per-window
// rates and histogram percentiles); cmd/tpltop renders both live.
//
// With -profile the modeled-cycle profiler attributes every launch's
// cycles to (tenant, function, method, stage, instruction class)
// stacks: /debug/profile serves the profile as JSON, folded flamegraph
// text (?format=folded) or gzipped pprof profile.proto
// (?format=pprof), and /debug/heatmap serves per-DPU issue/DMA/idle
// utilization; cmd/tplprof fetches, folds, and diffs them.
//
// With -faults it injects deterministic faults (the faultsim plan
// language) and reports the engine's recovery activity. SIGINT or
// SIGTERM shuts down gracefully: clients stop submitting, in-flight
// batches drain, and the final summary still prints.
//
// With -replicas N > 1 the workload runs against a replicated cluster
// (transpimlib.Cluster) instead of a single engine: requests route by
// consistent hashing with least-loaded fallback and replica-level
// failover, and the summary adds per-replica routing shares and
// health. -listen then serves the cluster's telemetry — cluster_*
// series (per-replica routed counts, queue depths, health gauges) at
// /metrics, with each replica's full engine telemetry mounted under
// /replica/<i>/ (so tplwatch can follow either the cluster or one
// replica).
//
// Exit codes: 0 success; 1 workload or gate failure; 2 bad usage;
// 3 the -listen address is already in use.
//
// Usage:
//
//	tplserve [-dpus 8] [-shards 2] [-clients 6] [-requests 24]
//	         [-elems 1024] [-window 200us] [-seed 1]
//	         [-replicas 1] [-replication 2]
//	         [-listen :9090] [-hold 0s] [-trace 32] [-profile]
//	         [-ledger] [-timeline 1s]
//	         [-logfmt text|json]
//	         [-accuracy 0.01] [-slo "method=l-lut(i),mae=1e-3"]
//	         [-acc-gate] [-acc-out accuracy.json]
//	         [-faults "seed=42,dpufail=0.05,transfer=0.02"]
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"transpimlib"
	"transpimlib/internal/stats"
)

type job struct {
	name string
	fn   transpimlib.Function
	cfg  transpimlib.Config
	ref  func(float64) float64
}

func mixedWorkload() []job {
	return []job{
		{"sigmoid/L-LUT-i", transpimlib.Sigmoid,
			transpimlib.Config{Method: transpimlib.LLUT, Interpolated: true, SizeLog2: 12},
			func(x float64) float64 { return 1 / (1 + math.Exp(-x)) }},
		{"gelu/DL-LUT-i", transpimlib.GELU,
			transpimlib.Config{Method: transpimlib.DLLUT, Interpolated: true, SizeLog2: 12},
			func(x float64) float64 { return x / 2 * (1 + math.Erf(x/math.Sqrt2)) }},
		{"exp/fxL-LUT-i", transpimlib.Exp,
			transpimlib.Config{Method: transpimlib.LLUTFixed, Interpolated: true, SizeLog2: 12},
			math.Exp},
	}
}

// tenant derives the accuracy-series tenant tag from a job name
// ("sigmoid/L-LUT-i" → "sigmoid").
func (j job) tenant() string {
	if i := strings.IndexByte(j.name, '/'); i > 0 {
		return j.name[:i]
	}
	return j.name
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
			case "mae":
				f, err := strconv.ParseFloat(val, 64)
				if err != nil {
					return nil, fmt.Errorf("bad SLO mae %q: %v", val, err)
				}
				o.MaxMAE = f
			case "ulp":
				f, err := strconv.ParseFloat(val, 64)
				if err != nil {
					return nil, fmt.Errorf("bad SLO ulp %q: %v", val, err)
				}
				o.MaxULP = f
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
// /debug/trace, /debug/timeline and /debug/ledger documents — and each
// replica's full engine telemetry under /replica/<i>/, so a scraper
// can follow either the whole cluster or one replica.
func clusterHandler(cl *transpimlib.Cluster) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", cl.Observe().Handler())
	for i := 0; i < cl.Replicas(); i++ {
		prefix := fmt.Sprintf("/replica/%d", i)
		mux.Handle(prefix+"/", http.StripPrefix(prefix, cl.ReplicaObserve(i).Handler()))
	}
	return mux
}

// logLedger prints the cost ledger's per-(tenant, function, method)
// rows, highest modeled kernel cycles first.
func logLedger(log *slog.Logger, snap transpimlib.LedgerSnapshot) {
	rows := append([]transpimlib.LedgerRow(nil), snap.Rows...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].KernelCycles > rows[j].KernelCycles })
	for _, r := range rows {
		tenant := r.Tenant
		if tenant == "" {
			tenant = "(anonymous)"
		}
		log.Info("ledger row",
			"tenant", tenant, "fn", r.Function, "method", r.Method,
			"requests", r.Requests, "elements", r.Elements,
			"kernel_kcycles", r.KernelCycles/1000,
			"bytes_in", r.BytesIn, "bytes_out", r.BytesOut,
			"modeled_s", r.ModeledSeconds,
			"degraded", r.Degraded, "shed", r.Shed, "failovers", r.Failovers)
	}
	if snap.Overflowed > 0 {
		log.Warn("ledger overflow", "dropped_rows", snap.Overflowed)
	}
}

// sumStats adds up the printed fields of per-replica engine stats for
// the cluster-mode summary.
func sumStats(list []transpimlib.EngineStats) transpimlib.EngineStats {
	var t transpimlib.EngineStats
	for _, s := range list {
		t.Requests += s.Requests
		t.Batches += s.Batches
		t.Elements += s.Elements
		t.RequestErrors += s.RequestErrors
		t.CoalescedBatches += s.CoalescedBatches
		t.CacheHits += s.CacheHits
		t.CacheMisses += s.CacheMisses
		t.SetupSeconds += s.SetupSeconds
		t.TransferInSeconds += s.TransferInSeconds
		t.ComputeSeconds += s.ComputeSeconds
		t.TransferOutSeconds += s.TransferOutSeconds
		t.KernelCycles += s.KernelCycles
		t.BytesIn += s.BytesIn
		t.BytesOut += s.BytesOut
		t.FaultsInjected += s.FaultsInjected
		t.LaunchRetries += s.LaunchRetries
		t.TransferRetries += s.TransferRetries
		t.LaunchTimeouts += s.LaunchTimeouts
		t.Remaps += s.Remaps
		t.Hedges += s.Hedges
		t.DegradedBatches += s.DegradedBatches
		t.TableRepairs += s.TableRepairs
		t.QuarantinedDPUs += s.QuarantinedDPUs
	}
	return t
}

func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "", "text":
		return slog.New(slog.NewTextHandler(os.Stdout, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stdout, nil)), nil
	default:
		return nil, fmt.Errorf("unknown -logfmt %q (want text or json)", format)
	}
}

func main() {
	dpus := flag.Int("dpus", 8, "simulated PIM cores")
	shards := flag.Int("shards", 2, "pipeline shards (dpus must divide evenly)")
	clients := flag.Int("clients", 6, "concurrent client goroutines")
	requests := flag.Int("requests", 24, "requests per client")
	elems := flag.Int("elems", 1024, "elements per request")
	window := flag.Duration("window", 200*time.Microsecond, "batcher coalescing window")
	seed := flag.Int64("seed", 1, "input RNG seed")
	replicas := flag.Int("replicas", 1, "engine replicas; >1 serves through a routed cluster")
	replication := flag.Int("replication", 2, "cluster candidate-set size K per key (with -replicas > 1)")
	listen := flag.String("listen", "", "serve /metrics, /debug/trace and /debug/accuracy on this address (e.g. :9090); exit code 3 when already in use")
	hold := flag.Duration("hold", 0, "keep the HTTP endpoints up this long after the workload (requires -listen)")
	traceDepth := flag.Int("trace", 32, "request traces to retain (0 disables tracing)")
	profile := flag.Bool("profile", false, "modeled-cycle profiler: /debug/profile (per-class ops and cycles as JSON, flamegraph or pprof) and /debug/heatmap (per-DPU issue/DMA/idle)")
	ledger := flag.Bool("ledger", false, "per-tenant cost ledger (/debug/ledger, tenant_* series, exit summary)")
	timeline := flag.Duration("timeline", 0, "windowed metrics store bucket width (/debug/timeline; 0 disables)")
	faults := flag.String("faults", "", "fault-injection plan (e.g. \"seed=42,dpufail=0.05,transfer=0.02\")")
	logfmt := flag.String("logfmt", "text", "log output format: text or json")
	accuracy := flag.Float64("accuracy", 0, "shadow-sample this fraction of every request against the float64 reference (0 disables)")
	sloSpec := flag.String("slo", "", "accuracy SLOs, e.g. \"fn=sigmoid,method=l-lut(i),mae=1e-3;method=cordic,ulp=4096\"")
	accGate := flag.Bool("acc-gate", false, "exit nonzero when a cumulative accuracy SLO is violated at shutdown")
	accOut := flag.String("acc-out", "", "write the final accuracy snapshot to this JSON file")
	flag.Parse()

	log, err := newLogger(*logfmt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tplserve:", err)
		os.Exit(2)
	}
	fatal := func(msg string, args ...any) {
		log.Error(msg, args...)
		os.Exit(1)
	}

	slos, err := parseSLOs(*sloSpec)
	if err != nil {
		fatal("bad -slo", "err", err)
	}
	if len(slos) > 0 && *accuracy <= 0 {
		fatal("-slo requires -accuracy > 0")
	}

	// Graceful shutdown: the first SIGINT/SIGTERM cancels ctx — clients
	// stop submitting, in-flight batches drain through eng.Close, and
	// the summary still prints. A second signal kills the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	tlcfg := transpimlib.TimelineConfig{Enabled: *timeline > 0, BucketWidth: *timeline}
	ecfg := transpimlib.EngineConfig{
		DPUs: *dpus, Shards: *shards, BatchWindow: *window,
		TraceDepth: *traceDepth, Faults: *faults,
		Profiler: transpimlib.ProfilerConfig{Enabled: *profile},
		Accuracy: transpimlib.AccuracyConfig{
			Enabled:    *accuracy > 0,
			SampleRate: *accuracy,
			SLOs:       slos,
		},
		Log: log,
	}
	var (
		eng *transpimlib.Engine
		cl  *transpimlib.Cluster
	)
	if *replicas > 1 {
		// The ledger and timeline attach at the cluster layer: replica
		// engines inherit the ledger (so Cluster.Ledger reconciles) while
		// the timeline samples the cluster registry's cluster_*/tenant_*
		// series.
		cl, err = transpimlib.NewCluster(transpimlib.ClusterConfig{
			Replicas:    *replicas,
			Replication: *replication,
			Engine:      ecfg,
			Seed:        uint64(*seed),
			TraceDepth:  *traceDepth,
			Ledger:      *ledger,
			Timeline:    tlcfg,
			Profiler:    transpimlib.ProfilerConfig{Enabled: *profile},
			Log:         log,
		})
		if err != nil {
			fatal("cluster start failed", "err", err)
		}
		defer cl.Close()
	} else {
		ecfg.Ledger = *ledger
		ecfg.Timeline = tlcfg
		eng, err = transpimlib.NewEngine(ecfg)
		if err != nil {
			fatal("engine start failed", "err", err)
		}
		defer eng.Close()
	}
	evaluate := func(tenant string, fn transpimlib.Function, cfg transpimlib.Config, xs []float32) ([]float32, transpimlib.RequestStats, error) {
		if cl != nil {
			return cl.EvaluateBatchAs(tenant, fn, cfg, xs)
		}
		return eng.EvaluateBatchAs(tenant, fn, cfg, xs)
	}

	if *listen != "" {
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			code := listenExitCode(err)
			if code == 3 {
				log.Error("listen address already in use (is another tplserve running?)",
					"addr", *listen, "err", err)
			} else {
				log.Error("listen failed", "addr", *listen, "err", err)
			}
			os.Exit(code)
		}
		var handler http.Handler
		if cl != nil {
			handler = clusterHandler(cl)
		} else {
			handler = eng.Observe().Handler()
		}
		srv := &http.Server{Handler: handler}
		go func() {
			if err := srv.Serve(ln); err != http.ErrServerClosed {
				log.Error("http server failed", "err", err)
			}
		}()
		defer srv.Close()
		log.Info("telemetry listening", "addr", ln.Addr().String(),
			"endpoints", "/metrics /debug/trace /debug/accuracy /debug/timeline /debug/ledger /debug/profile /debug/heatmap")
	}

	jobs := mixedWorkload()
	log.Info("workload starting",
		"dpus", *dpus, "shards", *shards, "replicas", *replicas, "clients", *clients,
		"requests_per_client", *requests, "elems", *elems,
		"mix", jobs[0].name+" | "+jobs[1].name+" | "+jobs[2].name,
		"accuracy_sample_rate", *accuracy, "slos", len(slos))

	type obs struct {
		lat   time.Duration
		setup float64
		hit   bool
	}
	all := make([][]obs, *clients)
	var wg sync.WaitGroup
	var failures sync.Map
	start := time.Now()
	for c := 0; c < *clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(c)))
			for r := 0; r < *requests; r++ {
				if ctx.Err() != nil {
					return // shutdown requested: stop submitting
				}
				j := jobs[(c+r)%len(jobs)]
				xs := make([]float32, *elems)
				for i := range xs {
					xs[i] = -2 + 4*rng.Float32()
				}
				ys, st, err := evaluate(j.tenant(), j.fn, j.cfg, xs)
				if err != nil {
					if ctx.Err() == nil {
						failures.Store(fmt.Sprintf("client %d req %d", c, r), err)
					}
					return
				}
				// Client-side spot check with the shared error math —
				// the same kernel the shadow sampler uses.
				var col stats.Collector
				for i, x := range xs {
					col.Add(ys[i], j.ref(float64(x)))
				}
				if worst := col.Result().MaxAbs; worst > 0.05 {
					failures.Store(fmt.Sprintf("client %d req %d", c, r),
						fmt.Errorf("%s max abs error %.3g", j.name, worst))
					return
				}
				all[c] = append(all[c], obs{st.Latency, st.SetupSeconds, st.CacheHit})
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	if ctx.Err() != nil {
		log.Info("shutdown requested, draining in-flight batches")
	}
	// Drain in-flight batches and settle counters before the summary.
	if cl != nil {
		cl.Close()
	} else {
		eng.Close()
	}

	bad := 0
	failures.Range(func(k, v any) bool {
		log.Error("request failed", "where", k, "err", fmt.Sprint(v))
		bad++
		return true
	})
	if bad > 0 {
		os.Exit(1)
	}

	var lats []time.Duration
	var warm int
	for _, co := range all {
		for _, o := range co {
			lats = append(lats, o.lat)
			if o.hit && o.setup == 0 {
				warm++
			}
		}
	}
	var st transpimlib.EngineStats
	if cl != nil {
		st = sumStats(cl.ReplicaStats())
	} else {
		st = eng.Stats()
	}
	log.Info("workload complete",
		"requests", st.Requests, "elements", st.Elements,
		"wall", wall.Round(time.Microsecond).String(),
		"throughput_melem_per_s", float64(st.Elements)/wall.Seconds()/1e6)
	log.Info("latency",
		"p50", percentile(lats, 0.50).String(),
		"p95", percentile(lats, 0.95).String(),
		"max", percentile(lats, 1.0).String())
	log.Info("batching",
		"batches", st.Batches, "requests", st.Requests,
		"coalesced_batches", st.CoalescedBatches)
	specsResident := 0
	if cl != nil {
		specsResident = cl.CachedSpecs()
	} else {
		specsResident = eng.CachedSpecs()
	}
	log.Info("table cache",
		"specs_resident", specsResident, "hits", st.CacheHits,
		"misses", st.CacheMisses, "fully_warm_requests", warm)
	log.Info("modeled stage costs",
		"setup_s", st.SetupSeconds, "transfer_in_s", st.TransferInSeconds,
		"compute_s", st.ComputeSeconds, "kernel_kcycles", st.KernelCycles/1000,
		"transfer_out_s", st.TransferOutSeconds)
	log.Info("bytes moved", "host_to_pim", st.BytesIn, "pim_to_host", st.BytesOut)
	if *ledger {
		var snap transpimlib.LedgerSnapshot
		if cl != nil {
			snap = cl.Ledger()
		} else {
			snap = eng.Ledger()
		}
		log.Info("cost ledger", "rows", len(snap.Rows))
		logLedger(log, snap)
	}
	if st.RequestErrors > 0 {
		log.Warn("request errors", "count", st.RequestErrors)
	}
	if *faults != "" {
		log.Info("reliability",
			"faults_injected", st.FaultsInjected, "launch_retries", st.LaunchRetries,
			"transfer_retries", st.TransferRetries, "timeouts", st.LaunchTimeouts)
		log.Info("recovery",
			"remaps", st.Remaps, "hedges", st.Hedges,
			"degraded_batches", st.DegradedBatches, "table_repairs", st.TableRepairs,
			"quarantined_dpus", st.QuarantinedDPUs)
		if eng != nil {
			var quarantined, probation int
			for _, h := range eng.Health() {
				if h.Quarantined {
					quarantined++
				}
				if h.Probation {
					probation++
				}
			}
			log.Info("health",
				"quarantined", quarantined, "probation", probation,
				"fault_events", len(eng.FaultEvents()))
		}
	}
	if cl != nil {
		cs := cl.Stats()
		log.Info("cluster routing",
			"requests", cs.Requests, "shed", cs.Shed,
			"shed_quota", cs.ShedQuota, "shed_queue", cs.ShedQueue,
			"failovers", cs.Failovers, "spills", cs.Spills,
			"degraded", cs.Degraded, "quarantined_replicas", cs.QuarantinedReplicas)
		for i, h := range cl.Health() {
			log.Info("replica",
				"replica", i, "routed", cs.Routed[i], "errors", h.Errors,
				"quarantined", h.Quarantined, "probation", h.Probation)
		}
		if *accuracy > 0 {
			log.Info("per-replica accuracy snapshots served at /replica/<i>/debug/accuracy")
		}
	}
	if eng != nil {
		if snap, ok := eng.Accuracy(); ok {
			log.Info("accuracy",
				"samples", snap.Samples, "series", len(snap.Series),
				"slo_breaches", snap.Breaches, "drift_events", snap.Drifts,
				"out_of_range", snap.OutOfRange)
			for _, s := range snap.Series {
				log.Info("accuracy series",
					"fn", s.Key.Function, "method", s.Key.Method, "tenant", s.Key.Tenant,
					"samples", s.Samples, "mae", s.Cumulative.MeanAbs,
					"max_abs", s.Cumulative.MaxAbs, "max_ulp", s.Cumulative.MaxULP)
			}
			if *accOut != "" {
				data, err := json.MarshalIndent(snap, "", "  ")
				if err == nil {
					err = os.WriteFile(*accOut, append(data, '\n'), 0o644)
				}
				if err != nil {
					fatal("accuracy snapshot write failed", "path", *accOut, "err", err)
				}
				log.Info("accuracy snapshot written", "path", *accOut)
			}
		}
		if tr, ok := eng.TraceLast(); ok {
			root := tr.Root
			log.Info("last trace",
				"id", tr.ID, "name", root.Name,
				"wall", root.Wall().Round(time.Microsecond).String(),
				"spans", countSpans(root))
		}
	}

	// The CI accuracy gate: cumulative per-series errors checked
	// against every configured SLO, independent of window boundaries.
	if *accGate {
		if cl != nil {
			log.Warn("-acc-gate is per-engine; cluster mode skips the gate — read /replica/<i>/debug/accuracy")
		} else if v := eng.AccuracyViolations(); len(v) > 0 {
			for _, x := range v {
				log.Error("accuracy gate violation",
					"fn", x.Key.Function, "method", x.Key.Method, "tenant", x.Key.Tenant,
					"metric", x.Metric, "got", x.Got,
					"max_mae", x.SLO.MaxMAE, "max_ulp", x.SLO.MaxULP)
			}
			os.Exit(1)
		} else {
			log.Info("accuracy gate passed", "slos", len(slos))
		}
	}

	if *listen != "" && *hold > 0 && ctx.Err() == nil {
		log.Info("holding telemetry endpoints", "for", hold.String())
		select {
		case <-ctx.Done():
		case <-time.After(*hold):
		}
	}
}

func countSpans(s *transpimlib.Span) int {
	n := 1
	for _, c := range s.Child {
		n += countSpans(c)
	}
	return n
}

func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	for i := 1; i < len(sorted); i++ { // insertion sort: n is tiny
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	idx := int(p*float64(len(sorted))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
