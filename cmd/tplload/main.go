// Command tplload is an open-loop load generator for the cluster
// serving layer: arrivals fire on a Poisson or bursty schedule
// regardless of completions (so queueing delay shows up as latency,
// not as a lower offered rate), against a transpimlib.Cluster of N
// engine replicas. A warmup phase brings caches and token buckets to
// steady state; the measurement phase then reports p50/p95/p99
// latency, goodput vs. shed rate, and per-replica utilization, as
// human tables and optionally a JSON report.
//
// With -verify every served request's outputs are compared bit-for-bit
// against goldens precomputed on a clean reference engine — valid
// because outputs are placement-independent by the engine differential
// contract — so replica failover and host-mirror degradation can be
// exercised (-fail-replica) while proving zero incorrect results.
// -max-shed bounds the measured shed fraction for CI.
//
// Arrivals are due at absolute offsets from the start, so sleep
// overshoot delays an arrival but never drops one. The report gives the
// achieved rate next to the target: the measured arrivals over the wall
// time the generator took to fire them (at least the window length).
// With a fixed -seed the schedule, and so the offered count, is
// deterministic; a Poisson window of rate×duration arrivals varies by
// about 1/√(rate×duration) across seeds.
//
// Exit codes: 0 success; 1 incorrect results, request errors, a
// violated -max-shed bound, or an achieved rate below 95% of -rate;
// 2 bad usage.
//
// Usage:
//
//	tplload [-replicas 4] [-replication 2] [-dpus 8] [-shards 2]
//	        [-rate 2000] [-arrivals poisson|bursty] [-burst-factor 8]
//	        [-burst-period 100ms] [-warmup 500ms] [-duration 2s]
//	        [-elems 256] [-tenants 4] [-quota 0] [-max-queue 0]
//	        [-fail-replica -1] [-fail-plan "seed=7,dpufail=1"]
//	        [-verify] [-max-shed 1] [-seed 1] [-json report.json]
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
	"os"
	"os/signal"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"text/tabwriter"
	"time"

	"transpimlib"
	"transpimlib/internal/stats"
)

type job struct {
	name string
	fn   transpimlib.Function
	cfg  transpimlib.Config
}

func workloadMix() []job {
	return []job{
		{"sigmoid/L-LUT-i", transpimlib.Sigmoid,
			transpimlib.Config{Method: transpimlib.LLUT, Interpolated: true, SizeLog2: 12}},
		{"gelu/DL-LUT-i", transpimlib.GELU,
			transpimlib.Config{Method: transpimlib.DLLUT, Interpolated: true, SizeLog2: 12}},
		{"exp/fxL-LUT-i", transpimlib.Exp,
			transpimlib.Config{Method: transpimlib.LLUTFixed, Interpolated: true, SizeLog2: 12}},
	}
}

// inputPools are the fixed request payloads: -verify compares served
// bits against goldens computed once per (job, pool) pair, so requests
// draw from a small pool instead of fresh random inputs.
const inputPools = 8

// report is the JSON output document.
type report struct {
	Config struct {
		Replicas    int     `json:"replicas"`
		Replication int     `json:"replication"`
		Rate        float64 `json:"rate_rps"`
		Arrivals    string  `json:"arrivals"`
		Elems       int     `json:"elems"`
		Tenants     int     `json:"tenants"`
		FailReplica int     `json:"fail_replica"`
	} `json:"config"`
	Offered   uint64  `json:"offered_requests"`
	Achieved  float64 `json:"achieved_rate_rps"`
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
	Mismatches uint64          `json:"bit_mismatches"`
	Failovers  uint64          `json:"failovers"`
	Degraded   uint64          `json:"degraded"`
	Replicas   []replicaReport `json:"replicas_detail"`
}

type replicaReport struct {
	Replica     int     `json:"replica"`
	Routed      uint64  `json:"routed"`
	Share       float64 `json:"share"`
	Elements    uint64  `json:"elements"`
	Degraded    uint64  `json:"degraded_batches"`
	Quarantined bool    `json:"quarantined"`
}

func main() {
	replicas := flag.Int("replicas", 4, "engine replicas")
	replication := flag.Int("replication", 2, "candidate-set size K per key")
	dpus := flag.Int("dpus", 8, "simulated PIM cores per replica")
	shards := flag.Int("shards", 2, "pipeline shards per replica")
	rate := flag.Float64("rate", 2000, "mean offered load, requests/sec (open loop)")
	arrivals := flag.String("arrivals", "poisson", "arrival process: poisson or bursty")
	burstFactor := flag.Float64("burst-factor", 8, "bursty: on-phase rate multiplier")
	burstPeriod := flag.Duration("burst-period", 100*time.Millisecond, "bursty: on+off cycle length")
	warmup := flag.Duration("warmup", 500*time.Millisecond, "warmup phase (excluded from the report)")
	duration := flag.Duration("duration", 2*time.Second, "measurement phase")
	elems := flag.Int("elems", 256, "elements per request")
	tenants := flag.Int("tenants", 4, "distinct tenant tags")
	quota := flag.Float64("quota", 0, "per-tenant token-bucket rate, elements/sec (0 disables quotas)")
	quotaBurst := flag.Float64("quota-burst", 0, "per-tenant bucket capacity (0: one second of -quota)")
	maxQueue := flag.Int("max-queue", 0, "backlog bound per replica for queue shedding (0 disables)")
	failReplica := flag.Int("fail-replica", -1, "inject -fail-plan into this replica index")
	failPlan := flag.String("fail-plan", "seed=7,dpufail=1", "fault plan for -fail-replica")
	verify := flag.Bool("verify", false, "bit-compare every served output against a clean reference engine")
	maxShed := flag.Float64("max-shed", 1, "fail (exit 1) when the measured shed fraction exceeds this")
	seed := flag.Int64("seed", 1, "RNG seed for inputs and arrivals")
	jsonOut := flag.String("json", "", "write the JSON report to this file ('-' for stdout)")
	flag.Parse()

	if *arrivals != "poisson" && *arrivals != "bursty" {
		fmt.Fprintf(os.Stderr, "tplload: unknown -arrivals %q (want poisson or bursty)\n", *arrivals)
		os.Exit(2)
	}
	if *replicas < 1 || *rate <= 0 || *elems < 1 || *tenants < 1 {
		fmt.Fprintln(os.Stderr, "tplload: -replicas, -rate, -elems and -tenants must be positive")
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ccfg := transpimlib.ClusterConfig{
		Replicas:    *replicas,
		Replication: *replication,
		Engine:      transpimlib.EngineConfig{DPUs: *dpus, Shards: *shards},
		Seed:        uint64(*seed),
		MaxQueue:    *maxQueue,
	}
	if *failReplica >= 0 {
		ccfg.ReplicaFaults = map[int]string{*failReplica: *failPlan}
	}
	if *quota > 0 {
		q := transpimlib.TenantQuota{Rate: *quota, Burst: *quotaBurst}
		ccfg.DefaultQuota = &q
	}
	cl, err := transpimlib.NewCluster(ccfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tplload:", err)
		os.Exit(1)
	}
	defer cl.Close()

	// Fixed input pools and, under -verify, their goldens from a clean
	// single-engine reference: outputs are placement-independent, so
	// one golden per (job, pool) covers every replica.
	jobs := workloadMix()
	pools := make([][][]float32, len(jobs))
	goldens := make([][][]float32, len(jobs))
	for j := range jobs {
		pools[j] = make([][]float32, inputPools)
		goldens[j] = make([][]float32, inputPools)
		for p := 0; p < inputPools; p++ {
			pools[j][p] = stats.RandomInputs(-2, 2, *elems, uint64(*seed)+uint64(j*inputPools+p+1))
		}
	}
	if *verify {
		ref, err := transpimlib.NewEngine(transpimlib.EngineConfig{DPUs: *dpus, Shards: *shards})
		if err != nil {
			fmt.Fprintln(os.Stderr, "tplload: reference engine:", err)
			os.Exit(1)
		}
		for j, jb := range jobs {
			for p := 0; p < inputPools; p++ {
				ys, _, err := ref.EvaluateBatch(jb.fn, jb.cfg, pools[j][p])
				if err != nil {
					fmt.Fprintln(os.Stderr, "tplload: golden:", err)
					os.Exit(1)
				}
				goldens[j][p] = ys
			}
		}
		ref.Close()
	}

	// Open-loop generator: the arrival schedule draws inter-arrival
	// gaps from the chosen process and fires each request on its own
	// goroutine, never waiting for completions.
	var (
		wg         sync.WaitGroup
		offered    atomic.Uint64
		served     atomic.Uint64
		shedN      atomic.Uint64
		errN       atomic.Uint64
		mismatches atomic.Uint64
		latMu      sync.Mutex
		lats       []time.Duration
	)
	rng := rand.New(rand.NewSource(*seed))
	gap := func(now time.Duration) time.Duration {
		r := *rate
		if *arrivals == "bursty" {
			// Square-wave modulation: the first half of each period
			// runs at burst-factor × the off-phase rate, preserving
			// the configured mean.
			on := now%*burstPeriod < *burstPeriod/2
			base := 2 * r / (*burstFactor + 1)
			if on {
				r = base * *burstFactor
			} else {
				r = base
			}
		}
		return time.Duration(rng.ExpFloat64() / r * float64(time.Second))
	}

	fire := func(i uint64, measured bool) {
		defer wg.Done()
		j := int(i) % len(jobs)
		pool := int(i/3) % inputPools
		tenant := fmt.Sprintf("tenant-%d", int(i)%*tenants)
		start := time.Now()
		ys, _, err := cl.EvaluateBatchAs(tenant, jobs[j].fn, jobs[j].cfg, pools[j][pool])
		if !measured {
			return
		}
		switch {
		case err == nil:
			served.Add(1)
			if *verify {
				for k, y := range ys {
					if math.Float32bits(y) != math.Float32bits(goldens[j][pool][k]) {
						mismatches.Add(1)
						break
					}
				}
			}
			lat := time.Since(start)
			latMu.Lock()
			lats = append(lats, lat)
			latMu.Unlock()
		case errors.Is(err, transpimlib.ErrOverloaded):
			shedN.Add(1)
		default:
			errN.Add(1)
			fmt.Fprintf(os.Stderr, "tplload: request error: %v\n", err)
		}
	}

	begin := time.Now()
	elapsed := func() time.Duration { return time.Since(begin) }
	lastFired := *warmup // when the last measured arrival was fired
	schedule(*warmup+*duration, gap, elapsed, time.Sleep,
		func() bool { return ctx.Err() != nil },
		func(i uint64, due time.Duration) {
			m := due >= *warmup
			if m {
				offered.Add(1)
				lastFired = elapsed()
			}
			wg.Add(1)
			go fire(i, m)
		})
	wg.Wait()
	measured := *duration
	if ctx.Err() != nil {
		measured = time.Since(begin) - *warmup
		if measured < 0 {
			measured = time.Millisecond
		}
	}
	firing := max(measured, lastFired-*warmup)

	// Report.
	var rep report
	rep.Config.Replicas = *replicas
	rep.Config.Replication = *replication
	rep.Config.Rate = *rate
	rep.Config.Arrivals = *arrivals
	rep.Config.Elems = *elems
	rep.Config.Tenants = *tenants
	rep.Config.FailReplica = *failReplica
	rep.Offered = offered.Load()
	rep.Achieved = float64(rep.Offered) / firing.Seconds()
	rep.Served = served.Load()
	rep.Shed = shedN.Load()
	rep.Errors = errN.Load()
	if rep.Offered > 0 {
		rep.ShedRate = float64(rep.Shed) / float64(rep.Offered)
	}
	rep.GoodputME = float64(rep.Served) * float64(*elems) / measured.Seconds() / 1e6
	rep.Mismatches = mismatches.Load()

	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	ms := func(p float64) float64 {
		if len(lats) == 0 {
			return 0
		}
		idx := int(p*float64(len(lats))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(lats) {
			idx = len(lats) - 1
		}
		return float64(lats[idx]) / float64(time.Millisecond)
	}
	rep.LatencyMS.P50, rep.LatencyMS.P95, rep.LatencyMS.P99, rep.LatencyMS.Max =
		ms(0.50), ms(0.95), ms(0.99), ms(1)

	cs := cl.Stats()
	rep.Failovers = cs.Failovers
	rep.Degraded = cs.Degraded
	rstats := cl.ReplicaStats()
	health := cl.Health()
	var routedTotal uint64
	for _, n := range cs.Routed {
		routedTotal += n
	}
	for r := 0; r < *replicas; r++ {
		rr := replicaReport{
			Replica:     r,
			Routed:      cs.Routed[r],
			Elements:    rstats[r].Elements,
			Degraded:    rstats[r].DegradedBatches,
			Quarantined: health[r].Quarantined,
		}
		if routedTotal > 0 {
			rr.Share = float64(cs.Routed[r]) / float64(routedTotal)
		}
		rep.Replicas = append(rep.Replicas, rr)
	}

	// Human tables. With -json - the JSON report owns stdout, so the
	// tables move to stderr to keep the stream machine-parseable.
	tableDst := io.Writer(os.Stdout)
	if *jsonOut == "-" {
		tableDst = os.Stderr
	}
	w := tabwriter.NewWriter(tableDst, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "rate(req/s)\tachieved\toffered\tserved\tshed\tshed%%\terrors\tgoodput(Melem/s)\n")
	fmt.Fprintf(w, "%.0f\t%.0f\t%d\t%d\t%d\t%.1f\t%d\t%.2f\n",
		rep.Config.Rate, rep.Achieved, rep.Offered, rep.Served, rep.Shed, rep.ShedRate*100, rep.Errors, rep.GoodputME)
	fmt.Fprintf(w, "\nlatency\tp50\tp95\tp99\tmax\n")
	fmt.Fprintf(w, "(ms)\t%.3f\t%.3f\t%.3f\t%.3f\n",
		rep.LatencyMS.P50, rep.LatencyMS.P95, rep.LatencyMS.P99, rep.LatencyMS.Max)
	fmt.Fprintf(w, "\nreplica\trouted\tshare%%\telements\tdegraded\tquarantined\n")
	for _, rr := range rep.Replicas {
		fmt.Fprintf(w, "%d\t%d\t%.1f\t%d\t%d\t%v\n",
			rr.Replica, rr.Routed, rr.Share*100, rr.Elements, rr.Degraded, rr.Quarantined)
	}
	if cs.Failovers > 0 || cs.Degraded > 0 || cs.QuarantinedReplicas > 0 {
		fmt.Fprintf(w, "\nfailovers\tdegraded\tquarantined_replicas\n")
		fmt.Fprintf(w, "%d\t%d\t%d\n", cs.Failovers, cs.Degraded, cs.QuarantinedReplicas)
	}
	if *verify {
		fmt.Fprintf(w, "\nbit_mismatches\t%d\n", rep.Mismatches)
	}
	w.Flush()

	if *jsonOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "tplload:", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if *jsonOut == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "tplload:", err)
			os.Exit(1)
		}
	}

	switch {
	case rep.Mismatches > 0:
		fmt.Fprintf(os.Stderr, "tplload: FAIL: %d served requests returned incorrect bits\n", rep.Mismatches)
		os.Exit(1)
	case rep.Errors > 0:
		fmt.Fprintf(os.Stderr, "tplload: FAIL: %d requests errored\n", rep.Errors)
		os.Exit(1)
	case rep.ShedRate > *maxShed:
		fmt.Fprintf(os.Stderr, "tplload: FAIL: shed rate %.3f exceeds -max-shed %.3f\n", rep.ShedRate, *maxShed)
		os.Exit(1)
	case rep.Achieved < 0.95*rep.Config.Rate:
		fmt.Fprintf(os.Stderr, "tplload: FAIL: achieved rate %.0f req/s is below 95%% of -rate %.0f\n",
			rep.Achieved, rep.Config.Rate)
		os.Exit(1)
	}
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
