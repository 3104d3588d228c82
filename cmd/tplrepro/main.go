// Command tplrepro reproduces the paper as one JSON document: Tables
// 1–2, Figs. 1 and 4–9, the Key Takeaway and §4.2.4 verdicts, the
// accuracy table, per-class cycle breakdowns of every sweep point, the
// ISA cost-model validation and the fused-program table, with rows
// keyed like TransPimLib's microbenchmark runs (operation, method,
// storage, wrap, cost profile). Every number is modeled, so the
// committed REPRO_baseline.json regenerates byte for byte. It renders
// any section as text:
//
//	tplrepro -o REPRO_baseline.json                 # regenerate the golden
//	tplrepro -in REPRO_baseline.json -show fig5 -key sin
//	tplrepro -show fig8,takeaways -profile hbm-pim  # another machine
//	tplrepro -show explain -key "tanh/dl-lut(i)/wram" -n 4096
//	tplrepro -show fig6,fig9 -measured              # add this host's wall times
//
// It exits 1 when a Key Takeaway or fused bit-identity check fails or a
// section cannot be computed, and 2 on a usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"transpimlib/internal/core"
	"transpimlib/internal/pimsim"
)

// sections lists what -show accepts, in rendering order.
var sections = []string{"table1", "table2", "fig1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
	"takeaways", "accuracy", "explain", "isa", "fused"}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tplrepro", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "", "write the document as JSON to this file (- for stdout) instead of rendering text")
	in := fs.String("in", "", "render from this stored document instead of computing one")
	show := fs.String("show", "all", "comma-separated sections: "+strings.Join(sections, ", ")+"; or all")
	key := fs.String("key", "all", `row filter op[/method[/storage[/wrap[/profile]]]], e.g. "sin/l-lut(i)/wram"`)
	profile := fs.String("profile", "upmem", "PIM cost profile of the microbenchmark sections: upmem, hbm-pim or fp32")
	n := fs.Int("n", 1<<16, "microbenchmark inputs per sweep point and takeaway check (paper: 2^16)")
	measured := fs.Bool("measured", false, "also print this host's wall times (fig6: table builds; fig9: CPU baselines and math-library calibration); never written to the document")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "tplrepro: "+format+"\n", a...)
		return 2
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	sel := map[string]bool{}
	for _, s := range strings.Split(*show, ",") {
		if s != "all" && !slices.Contains(sections, s) {
			return usage("unknown section %q (want %s or all)", s, strings.Join(sections, ", "))
		}
		for _, name := range sections {
			sel[name] = sel[name] || s == "all" || s == name
		}
	}
	flt, err := parseKey(*key)
	cost, ok := pimsim.Profiles()[*profile]
	switch {
	case err != nil:
		return usage("%v", err)
	case fs.NArg() > 0:
		return usage("unexpected arguments %q", fs.Args())
	case !ok:
		return usage("unknown profile %q (want upmem, hbm-pim or fp32)", *profile)
	case *n < 1:
		return usage("-n %d: need at least one input", *n)
	case *in != "" && (set["o"] || set["profile"] || set["n"]):
		return usage("-in renders a stored document; -o, -profile and -n compute one")
	case *measured && (*in != "" || *out != ""):
		return usage("-measured times this host beside freshly computed text tables; it never reads or writes a document")
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "tplrepro:", err)
		return 1
	}
	var doc *Doc
	if *in != "" {
		data, err := os.ReadFile(*in)
		if err == nil {
			err = json.Unmarshal(data, &doc)
		}
		if err != nil {
			return fail(err)
		}
	} else if doc, err = compute(sel, flt, *profile, cost, *n, *measured); err != nil {
		return fail(err)
	}
	if *out != "" {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err == nil && *out == "-" {
			_, err = stdout.Write(append(data, '\n'))
		} else if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			return fail(err)
		}
	} else if err := render(stdout, doc, sel, flt, *measured); err != nil {
		return fail(err)
	}

	status := 0
	if doc.Takeaways != nil && sel["takeaways"] {
		for _, v := range doc.Takeaways.Rows {
			if !v.Pass {
				fmt.Fprintf(stderr, "tplrepro: %s failed: %s (%s)\n", v.ID, v.Claim, v.Detail)
				status = 1
			}
		}
	}
	if doc.Fused != nil && sel["fused"] {
		for _, r := range doc.Fused.Rows {
			if !r.BitIdentical {
				fmt.Fprintf(stderr, "tplrepro: fused %s: outputs differ from the per-op baseline\n", r.Workload)
				status = 1
			}
		}
	}
	return status
}

// filter selects keyed rows whose op/method/storage/wrap/profile path
// starts with it; empty selects every row.
type filter string

func parseKey(s string) (filter, error) {
	if s == "all" {
		return "", nil
	}
	if _, err := core.ParseFunction(strings.Split(s, "/")[0]); err != nil || strings.Count(s, "/") > 4 {
		return "", fmt.Errorf("-key %q: want op[/method[/storage[/wrap[/profile]]]] with a known op", s)
	}
	return filter(strings.TrimSuffix(s, "/") + "/"), nil
}

func (f filter) fn(fn core.Function) bool {
	return strings.HasPrefix(string(f), fn.String()+"/") || f == ""
}

func (f filter) match(k Key) bool {
	return strings.HasPrefix(strings.Join([]string{k.Op, k.Method, k.Storage, k.Wrap, k.Profile, ""}, "/"), string(f))
}
