package main

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"sort"
	"strings"

	"transpimlib/internal/core"
	"transpimlib/internal/workloads"
)

// render writes the selected sections of d as text, each headed by the
// cost profile it ran on; measured adds this host's wall times beside
// Figs. 6 and 9.
func render(w io.Writer, d *Doc, sel map[string]bool, flt filter, measured bool) error {
	for _, s := range sections {
		if !sel[s] {
			continue
		}
		if !present(d, s) {
			return fmt.Errorf("the document has no %s section", s)
		}
		switch s {
		case "table1":
			fmt.Fprintf(w, "== Table 1: CORDIC rotation matrices, angles, and stretching factors ==\n%-12s %-22s %-16s %s\n",
				"mode", "phi_i", "1/K (32 iters)", "functions")
			for _, r := range d.Table1.Rows {
				fmt.Fprintf(w, "%-12s %-22s %-16.10f %s\n", r.Mode, r.Phi, r.InvGain, r.Functions)
			}
		case "table2":
			fmt.Fprintf(w, "== Table 2: implementation methods and supported functions ==\n%-12s", "method")
			for _, fn := range core.Functions() {
				fmt.Fprintf(w, "%8s", fn)
			}
			for _, r := range d.Table2.Rows {
				fmt.Fprintf(w, "\n%-12s", r.Method)
				for _, fn := range core.Functions() {
					fmt.Fprintf(w, "%8s", map[bool]string{false: "-", true: "x"}[slices.Contains(r.Functions, fn.String())])
				}
			}
			fmt.Fprintln(w)
		case "fig1":
			fmt.Fprintf(w, "== Figure 1(b) vs 1(c): activation on host vs on PIM, §4.3, %d cores (profile %s) ==\n", d.Fig1.Cores, d.Fig1.Profile)
			for _, c := range d.Fig1.Rows {
				fmt.Fprintln(w, "  "+c.String())
			}
		case "fig4":
			fmt.Fprintln(w, "== Figure 4: lookup-table entry density over [0, 5] (entries per 0.25-wide bucket) ==")
			for _, r := range d.Fig4.Rows {
				fmt.Fprintf(w, "  %-22s%s   (%d entries)\n", r.LUT, strings.Trim(fmt.Sprintf("%4d", r.Buckets), "[]"), r.Entries)
			}
		case "fig5", "fig6", "fig7", "explain":
			points(w, d.Points, flt, s, measured)
		case "fig8":
			fmt.Fprintf(w, "== Figure 8: execution cycles per element for range reduction/extension (profile %s) ==\n", d.Fig8.Profile)
			for _, r := range d.Fig8.Rows {
				fmt.Fprintf(w, "  %-6s %8d   (%s)\n", r.Op, r.Cycles, r.Steps)
			}
		case "fig9":
			figure9Text(w, d.Fig9, measured)
		case "takeaways":
			fmt.Fprintf(w, "== Key Takeaway checks (profile %s, %d inputs) ==\n", d.Takeaways.Profile, d.Takeaways.Inputs)
			for _, v := range d.Takeaways.Rows {
				fmt.Fprintf(w, "  [%s] %s: %s\n         %s\n", map[bool]string{false: "FAIL", true: "PASS"}[v.Pass], v.ID, v.Claim, v.Detail)
			}
		case "accuracy":
			fmt.Fprintf(w, "== Accuracy at LUT 2^12, CORDIC 30 iterations, degree 11 (profile %s, %d inputs) ==\n%-8s %-14s %-5s %12s %12s %12s %10s %10s\n",
				d.Accuracy.Profile, d.Accuracy.Inputs, "fn", "method", "mem", "rmse", "rel-rmse", "max-abs", "max-ulp", "cyc/elem")
			for _, r := range d.Accuracy.Rows {
				if e := r.Errors; flt.match(r.Key) {
					fmt.Fprintf(w, "%-8s %-14s %-5s %12.3g %12.3g %12.3g %10.1f %10.1f\n",
						r.Op, r.Method, r.Storage, e.RMSE, e.RelRMSE, e.MaxAbs, e.MaxULP, r.CyclesPerElem)
				}
			}
		case "isa":
			fmt.Fprintf(w, "== ISA-level cost-model validation: assembly on the internal/isa interpreter vs pimsim charges (profile %s) ==\n%-44s %10s %10s %8s\n",
				d.ISA.Profile, "routine", "asm instrs", "charge", "ratio")
			for _, r := range d.ISA.Rows {
				fmt.Fprintf(w, "%-44s %10.1f %10.1f %7.2fx\n", r.Routine, r.AsmInstrs, r.Charge, r.Ratio)
			}
			fmt.Fprintln(w, "ratios near 1 mean the cost model charges what the ISA actually executes;\nsoftfloat ratios < 1 reflect truncating asm vs charged round-to-nearest.")
		case "fused":
			fmt.Fprintf(w, "== Fused programs vs per-op baseline, %d cores, n=%d per workload (profile %s) ==\n", d.Fused.Cores, d.Fused.Inputs, d.Fused.Profile)
			for _, r := range d.Fused.Rows {
				fmt.Fprintln(w, "  "+r.String())
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}

// present reports whether d holds the section s is drawn from.
func present(d *Doc, s string) bool {
	return map[string]bool{"table1": d.Table1 != nil, "table2": d.Table2 != nil, "fig1": d.Fig1 != nil, "fig4": d.Fig4 != nil,
		"fig5": d.Points != nil, "fig6": d.Points != nil, "fig7": d.Points != nil, "explain": d.Points != nil, "fig8": d.Fig8 != nil,
		"fig9": d.Fig9 != nil, "takeaways": d.Takeaways != nil, "accuracy": d.Accuracy != nil, "isa": d.ISA != nil, "fused": d.Fused != nil}[s]
}

// points renders Fig. 5, 6 or 7, or the explain view: each point's
// kernel cycles by instruction class (§4.2.1's "the number of
// floating-point multiplications determines the execution cycles").
func points(w io.Writer, sec *Section[Point], flt filter, view string, measured bool) {
	title := map[string]string{
		"fig5":    "Figure 5: execution cycles per element on one PIM core vs RMSE",
		"fig6":    "Figure 6: modeled setup seconds (host table generation + Host→PIM transfer) vs RMSE",
		"fig7":    "Figure 7: memory consumption per PIM core (bytes) vs RMSE",
		"explain": "Cycles per element by instruction class",
	}[view]
	var fn, curve string
	for _, p := range sec.Rows {
		if !flt.match(p.Key) {
			continue
		}
		if p.Op != fn {
			fn, curve = p.Op, ""
			fmt.Fprintf(w, "== %s — %s (profile %s, %d inputs) ==\n", title, fn, sec.Profile, sec.Inputs)
		}
		if c := p.Method + " " + p.Storage; c != curve && view != "explain" {
			curve = c
			fmt.Fprintf(w, "  %s\n", c)
		}
		switch view {
		case "fig5":
			fmt.Fprintf(w, "    size=%-6s rmse=%10.3g  %9.1f\n", p.Size, p.RMSE, p.CyclesPerElem)
		case "fig6":
			fmt.Fprintf(w, "    size=%-6s rmse=%10.3g  %9.3g", p.Size, p.RMSE, p.SetupSeconds)
			if measured {
				fmt.Fprintf(w, "  measured build %9.3g", p.wall)
			}
			fmt.Fprintln(w)
		case "fig7":
			fmt.Fprintf(w, "    size=%-6s rmse=%10.3g  %9d\n", p.Size, p.RMSE, p.TableBytes)
		default:
			fmt.Fprintf(w, "%s %s %s size=%s: rmse %.3g, %d B of tables, setup %.3g s (host gen %.3g s + transfer %.3g s), %.1f cycles/elem\n",
				p.Method, p.Storage, p.Wrap, p.Size, p.RMSE, p.TableBytes, p.SetupSeconds, p.BuildSeconds, p.SetupSeconds-p.BuildSeconds, p.CyclesPerElem)
			var classes []string
			var total float64
			for c, cyc := range p.ClassCycles {
				classes = append(classes, c)
				total += float64(cyc)
			}
			sort.Slice(classes, func(i, j int) bool {
				ci, cj := p.ClassCycles[classes[i]], p.ClassCycles[classes[j]]
				return ci > cj || ci == cj && classes[i] < classes[j]
			})
			for _, c := range classes {
				cyc, n := float64(p.ClassCycles[c]), float64(sec.Inputs)
				fmt.Fprintf(w, "  %-8s %10.2f ops/elem %12.1f cycles/elem %6.1f%%\n", c, float64(p.ClassOps[c])/n, cyc/n, 100*cyc/total)
			}
		}
	}
}

// figure9Text renders Fig. 9. measured adds this host's math-library
// costs and its CPU baselines, projected to the full element count.
func figure9Text(w io.Writer, sec *Section[workloads.Result], measured bool) {
	fmt.Fprintf(w, "== Figure 9 — %d PIM cores × 16 threads @350 MHz; CPU model: 2×16-core Xeon @2.1 GHz (profile %s) ==\n", sec.Cores, sec.Profile)
	fmt.Fprintf(w, "   (kernel = PIM compute; transfer = Host↔PIM, projected to full %d-core scale)\n", workloads.FullDPUs)
	for _, r := range sec.Rows {
		fmt.Fprintln(w, "  "+r.String())
	}
	if !measured {
		return
	}
	c := workloads.Calibrate(1 << 20)
	fmt.Fprintf(w, "-- measured on this host: exp=%.1fns log=%.1fns sqrt=%.1fns div=%.1fns flop=%.1fns per call --\n",
		c.ExpNs, c.LogNs, c.SqrtNs, c.DivNs, c.FlopNs)
	bs, sig, soft := fig9Inputs()
	for _, threads := range []int{1, runtime.GOMAXPROCS(0)} {
		for _, r := range []workloads.Result{workloads.BlackscholesCPU(bs, threads), workloads.SigmoidCPU(sig, threads), workloads.SoftmaxCPU(soft, threads)} {
			full := map[bool]int{false: workloads.FullActivationElements, true: workloads.FullBlackscholesElements}[r.Workload == "blackscholes"]
			r.KernelSeconds, r.Elements = r.KernelSeconds*float64(full)/float64(r.Elements), full
			fmt.Fprintln(w, "  "+r.String())
		}
	}
}
