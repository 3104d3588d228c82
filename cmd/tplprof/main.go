// Command tplprof is the modeled-cycle profiler's offline tool: it
// writes a deterministic benchmark profile and diffs two profile JSON
// documents to localize cycle regressions frame by frame. A live
// server's profile is one request away: /debug/profile serves JSON,
// ?format=folded flamegraph stacks and ?format=pprof a gzipped
// profile.proto, ?seconds=N an interval profile; tpltop renders its
// hotspots and per-DPU heatmap live.
//
// Modes (exactly one):
//
//	tplprof -bench [-n 4096] [-out profile.json]
//	    Run the deterministic offline benchmark workload (the tplbench
//	    engine snapshot mix plus a fused softmax program) under a
//	    profiling engine and write the resulting profile. Modeled
//	    cycles are machine-independent, so the output is byte-level
//	    reproducible and can be committed as a CI baseline.
//
//	tplprof -diff [-gate 0.10] [-top 20] old.json new.json
//	    Roll both profiles up to (function, method, class), print the
//	    changed frames sorted by |Δ wall cycles|, and exit 1 when any
//	    frame's wall cycles grew more than the gate fraction (new
//	    frames count as infinite growth). Two identical profiles
//	    report zero deltas and exit 0 — the CI cycle-regression gate.
//
// Exit codes: 0 success; 1 gate failure or workload error; 2 bad
// usage or an unreadable profile.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"transpimlib/internal/core"
	"transpimlib/internal/engine"
	"transpimlib/internal/fusion"
	"transpimlib/internal/profiler"
	"transpimlib/internal/stats"
)

var (
	flagTop   = flag.Int("top", 20, "rows in the hotspot / diff tables")
	flagBench = flag.Bool("bench", false, "run the deterministic offline benchmark workload")
	flagN     = flag.Int("n", 4096, "elements per benchmark request (with -bench)")
	flagOut   = flag.String("out", "", "write the -bench profile JSON to this file (default stdout)")
	flagDiff  = flag.Bool("diff", false, "diff two profile JSON files: tplprof -diff [-gate 0.10] old.json new.json")
	flagGate  = flag.Float64("gate", 0, "with -diff: exit 1 when any (function, method, class) frame's wall cycles grew more than this fraction (0 disables)")
)

func main() {
	flag.Parse()
	switch {
	case *flagDiff:
		if flag.NArg() != 2 {
			fatalUsage("-diff needs exactly two arguments: old.json new.json")
		}
		os.Exit(runDiff(flag.Arg(0), flag.Arg(1)))
	case *flagBench:
		os.Exit(runBench())
	default:
		fatalUsage("pick a mode: -bench or -diff (see -help)")
	}
}

func fatalUsage(msg string) {
	fmt.Fprintln(os.Stderr, "tplprof:", msg)
	os.Exit(2)
}

// renderTop prints the hotspot table: the profile's n largest frames
// by attributed wall cycles, with their share of the total.
func renderTop(w io.Writer, p profiler.Profile, n int) {
	fmt.Fprintf(w, "launches %d   wall %d cycles   issue %d cycles   ops %d\n",
		p.Launches, p.TotalWall, p.TotalCycles, p.TotalOps)
	if len(p.Frames) == 0 {
		fmt.Fprintln(w, "no frames recorded")
		return
	}
	fmt.Fprintf(w, "%-10s %-10s %-14s %-8s %-6s %14s %7s %14s\n",
		"TENANT", "FUNCTION", "METHOD", "STAGE", "CLASS", "WALL", "%", "ISSUE")
	for _, f := range p.Top(n) {
		share := 0.0
		if p.TotalWall > 0 {
			share = 100 * float64(f.WallCycles) / float64(p.TotalWall)
		}
		fmt.Fprintf(w, "%-10s %-10s %-14s %-8s %-6s %14d %6.2f%% %14d\n",
			orDash(f.Tenant), f.Function, f.Method, f.Stage, f.Class,
			f.WallCycles, share, f.Cycles)
	}
	if len(p.Frames) > n {
		fmt.Fprintf(w, "... %d more frames\n", len(p.Frames)-n)
	}
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// --- bench mode ---

// benchProfile runs the deterministic offline workload — the tplbench
// engine-snapshot mix (sigmoid L-LUTi, GELU DL-LUTi, exp fixed
// L-LUTi over two rounds) plus a fused softmax program — on a
// profiling engine and returns its cumulative profile. Everything
// that reaches the profile is modeled, so two runs on any machines
// produce identical frames.
func benchProfile(n int) (profiler.Profile, error) {
	eng, err := engine.New(engine.Config{
		DPUs: 8, Shards: 2,
		Profiler: profiler.Config{Enabled: true},
	})
	if err != nil {
		return profiler.Profile{}, err
	}
	defer eng.Close()

	specs := []struct {
		fn core.Function
		p  core.Params
	}{
		{core.Sigmoid, core.Params{Method: core.LLUT, Interp: true, SizeLog2: 12}},
		{core.GELU, core.Params{Method: core.DLLUT, Interp: true, SizeLog2: 12}},
		{core.Exp, core.Params{Method: core.LLUTFixed, Interp: true, SizeLog2: 12}},
	}
	xs := stats.RandomInputs(-2, 2, n, 0x7e1e)
	for round := 0; round < 2; round++ {
		for _, sp := range specs {
			if _, _, err := eng.EvaluateBatchTenant("bench", sp.fn, sp.p, xs); err != nil {
				return profiler.Profile{}, err
			}
		}
	}

	// One fused program so phase-labeled frames are part of the
	// baseline too.
	sm := fusion.NewProgram("softmax")
	x := sm.Input()
	m := sm.ReduceMax(x)
	e := sm.Func(core.Exp, sm.Sub(x, sm.Broadcast(m)))
	s := sm.ReduceSum(e)
	sm.Return(sm.Mul(e, sm.Div(sm.Const(1), sm.Broadcast(s))))
	prog, err := eng.CompileProgram(sm, core.Params{Method: core.LLUT, Interp: true, SizeLog2: 12})
	if err != nil {
		return profiler.Profile{}, err
	}
	sx := stats.RandomInputs(-7.5, 7.5, n, 11)
	if _, _, err := eng.EvaluateProgramTenant("bench", prog, [][]float32{sx}, nil); err != nil {
		return profiler.Profile{}, err
	}

	p, _ := eng.ProfileSnapshot()
	// Pin the timestamps: the profile is committed as a baseline and
	// diffed structurally, so wall-clock noise has no business in it.
	p.StartUnixNano, p.EndUnixNano = 0, 0
	return p, nil
}

func runBench() int {
	p, err := benchProfile(*flagN)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tplprof:", err)
		return 1
	}
	out, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "tplprof:", err)
		return 1
	}
	out = append(out, '\n')
	if *flagOut == "" {
		os.Stdout.Write(out)
		return 0
	}
	if err := os.WriteFile(*flagOut, out, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "tplprof:", err)
		return 1
	}
	renderTop(os.Stderr, p, *flagTop)
	fmt.Fprintf(os.Stderr, "wrote %s\n", *flagOut)
	return 0
}

// --- diff mode ---

func loadProfile(path string) (profiler.Profile, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return profiler.Profile{}, err
	}
	var p profiler.Profile
	if err := json.Unmarshal(body, &p); err != nil {
		return profiler.Profile{}, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

func runDiff(oldPath, newPath string) int {
	oldP, err := loadProfile(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tplprof:", err)
		return 2
	}
	newP, err := loadProfile(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tplprof:", err)
		return 2
	}
	// The gate granularity: tenant and stage collapse, so a workload
	// re-labeling cannot masquerade as a regression (or hide one).
	deltas := profiler.Diff(profiler.Rollup(oldP), profiler.Rollup(newP))
	if len(deltas) == 0 {
		fmt.Printf("no cycle deltas between %s and %s\n", oldPath, newPath)
		return 0
	}

	fmt.Printf("%d changed (function, method, class) frames, by |Δ wall|:\n", len(deltas))
	fmt.Printf("%-10s %-14s %-6s %14s %14s %14s %9s\n",
		"FUNCTION", "METHOD", "CLASS", "OLD WALL", "NEW WALL", "Δ WALL", "GROWTH")
	shown := deltas
	if *flagTop >= 0 && len(shown) > *flagTop {
		shown = shown[:*flagTop]
	}
	for _, d := range shown {
		fmt.Printf("%-10s %-14s %-6s %14d %14d %+14d %9s\n",
			d.Function, d.Method, d.Class, d.OldWall, d.WallCycles, d.DeltaWall, growthLabel(d))
	}
	if len(deltas) > len(shown) {
		fmt.Printf("... %d more\n", len(deltas)-len(shown))
	}

	if *flagGate > 0 {
		var violations []profiler.FrameDelta
		for _, d := range deltas {
			if d.DeltaWall > 0 && d.Growth > *flagGate {
				violations = append(violations, d)
			}
		}
		if len(violations) > 0 {
			sort.Slice(violations, func(i, j int) bool { return violations[i].Growth > violations[j].Growth })
			fmt.Printf("\nGATE FAILED (+%.0f%% wall-cycle growth allowed):\n", *flagGate*100)
			for _, d := range violations {
				fmt.Printf("  %s/%s/%s: %d -> %d wall cycles (%s)\n",
					d.Function, d.Method, d.Class, d.OldWall, d.WallCycles, growthLabel(d))
			}
			return 1
		}
		fmt.Printf("\ngate passed: no frame grew more than %.0f%%\n", *flagGate*100)
	}
	return 0
}

// growthLabel renders a delta's relative growth; frames absent from
// the old profile read "new".
func growthLabel(d profiler.FrameDelta) string {
	if d.OldWall == 0 {
		if d.WallCycles > 0 {
			return "new"
		}
		return "gone"
	}
	return fmt.Sprintf("%+.1f%%", d.Growth*100)
}
