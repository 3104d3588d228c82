// Command tpltrace replays a serving workload against a traced
// engine and writes the retained request span trees as a Chrome
// trace_event JSON file, loadable in about:tracing or Perfetto
// (ui.perfetto.dev). Each request becomes one process row (pid =
// trace id); within it, spans land on the shard's track (tid), so each
// batch's enqueue → transfer-in → setup → kernel → transfer-out
// sequence is visible on a real timeline.
//
// With -replicas N > 1 the workload runs through a routed cluster
// instead: each trace is then one connected tree — the cluster root
// span, its placement-ladder attempts, and the serving replica's
// pipeline spans grafted underneath — and the Chrome encoding lays
// the rows out per process ("cluster", "replica/<i>").
//
// Usage:
//
//	tpltrace [-o trace.json] [-dpus 8] [-shards 2] [-clients 4]
//	         [-requests 8] [-elems 2048] [-window 200us] [-seed 1]
//	         [-replicas 1] [-json] [-summary]
//
// -json writes the raw span-tree JSON (the /debug/trace form) instead
// of the Chrome encoding; -summary prints a per-stage wall/modeled
// table to stderr.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"transpimlib"
	"transpimlib/internal/telemetry"
)

func main() {
	out := flag.String("o", "trace.json", "output file (- for stdout)")
	dpus := flag.Int("dpus", 8, "simulated PIM cores")
	shards := flag.Int("shards", 2, "pipeline shards")
	clients := flag.Int("clients", 4, "concurrent client goroutines")
	requests := flag.Int("requests", 8, "requests per client")
	elems := flag.Int("elems", 2048, "elements per request")
	window := flag.Duration("window", 200*time.Microsecond, "batcher coalescing window")
	seed := flag.Int64("seed", 1, "input RNG seed")
	replicas := flag.Int("replicas", 1, "engine replicas; >1 traces routed cluster requests end to end")
	rawJSON := flag.Bool("json", false, "emit the span-tree JSON instead of the Chrome encoding")
	summary := flag.Bool("summary", true, "print a per-stage summary to stderr")
	flag.Parse()

	total := *clients * *requests
	ecfg := transpimlib.EngineConfig{
		DPUs: *dpus, Shards: *shards, BatchWindow: *window,
		TraceDepth: total,
	}
	var (
		eng *transpimlib.Engine
		cl  *transpimlib.Cluster
		err error
	)
	if *replicas > 1 {
		cl, err = transpimlib.NewCluster(transpimlib.ClusterConfig{
			Replicas: *replicas, Engine: ecfg,
			Seed: uint64(*seed), TraceDepth: total,
		})
	} else {
		eng, err = transpimlib.NewEngine(ecfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tpltrace:", err)
		os.Exit(1)
	}
	defer func() {
		if cl != nil {
			cl.Close()
		} else {
			eng.Close()
		}
	}()

	jobs := []struct {
		fn  transpimlib.Function
		cfg transpimlib.Config
	}{
		{transpimlib.Sigmoid, transpimlib.Config{Method: transpimlib.LLUT, Interpolated: true, SizeLog2: 12}},
		{transpimlib.GELU, transpimlib.Config{Method: transpimlib.DLLUT, Interpolated: true, SizeLog2: 12}},
		{transpimlib.Exp, transpimlib.Config{Method: transpimlib.LLUTFixed, Interpolated: true, SizeLog2: 12}},
	}

	var wg sync.WaitGroup
	errs := make(chan error, total)
	for c := 0; c < *clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(c)))
			for r := 0; r < *requests; r++ {
				j := jobs[(c+r)%len(jobs)]
				xs := make([]float32, *elems)
				for i := range xs {
					xs[i] = -2 + 4*rng.Float32()
				}
				var err error
				if cl != nil {
					_, _, err = cl.EvaluateBatch(j.fn, j.cfg, xs)
				} else {
					_, _, err = eng.EvaluateBatch(j.fn, j.cfg, xs)
				}
				if err != nil {
					errs <- fmt.Errorf("client %d req %d: %w", c, r, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		fmt.Fprintln(os.Stderr, "tpltrace:", err)
		os.Exit(1)
	}

	var traces []*transpimlib.Trace
	tel := func() *transpimlib.Telemetry {
		if cl != nil {
			return cl.Observe()
		}
		return eng.Observe()
	}()
	if cl != nil {
		traces = cl.Traces()
	} else {
		traces = eng.Traces()
	}
	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tpltrace:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if *rawJSON {
		err = tel.Tracer.WriteJSON(w)
	} else {
		err = telemetry.WriteChromeTrace(w, traces)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tpltrace:", err)
		os.Exit(1)
	}
	if *out != "-" {
		format := "chrome trace_event"
		if *rawJSON {
			format = "span-tree JSON"
		}
		fmt.Printf("tpltrace: wrote %d request traces (%s) to %s\n", len(traces), format, *out)
	}

	if *summary {
		printSummary(traces)
	}
}

// printSummary aggregates wall-clock and modeled seconds per stage
// across all traces — the live-system analogue of the paper's
// per-stage breakdowns.
func printSummary(traces []*transpimlib.Trace) {
	type agg struct {
		wall    time.Duration
		modeled float64
		n       int
	}
	stages := map[string]*agg{}
	order := []string{}
	var walk func(s *transpimlib.Span)
	walk = func(s *transpimlib.Span) {
		name := s.Name
		if len(name) > 5 && name[:5] == "batch" {
			name = "batch"
		}
		if len(name) > 7 && name[:7] == "attempt" {
			name = "attempt"
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
	fmt.Fprintf(os.Stderr, "\n%-14s %6s %14s %14s\n", "stage", "spans", "wall", "modeled")
	for _, name := range order {
		a := stages[name]
		fmt.Fprintf(os.Stderr, "%-14s %6d %14v %13.3gs\n",
			name, a.n, a.wall.Round(time.Microsecond), a.modeled)
	}
}
