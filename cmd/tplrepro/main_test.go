package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runArgs(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestUsageErrors: unknown sections, functions and profiles, an empty
// sample and flags that contradict the mode are usage errors that
// print nothing on stdout — not a bare header or rows of NaN with
// exit 0.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-show", "sigmod"},
		{"-show", "fig9", "-key", "sigmod"},
		{"-show", "fig5", "-key", "sin/l-lut/wram/nowrap/upmem/it12"},
		{"-profile", "bogus"},
		{"-show", "fig5", "-key", "sin", "-n", "0"},
		{"-in", "REPRO_baseline.json", "-n", "5"},
		{"-in", "REPRO_baseline.json", "-profile", "upmem"},
		{"-measured", "-o", "x.json"},
		{"-show", "fig8", "extra"},
	} {
		code, stdout, stderr := runArgs(t, args...)
		if code != 2 || stdout != "" || stderr == "" {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want exit 2 with only a message", args, code, stdout, stderr)
		}
	}
}

// TestProfileReachesEverySection: Fig. 8 and the Key Takeaway checks
// run on the chosen profile, not on upmem under an hbm-pim header, and
// each section's header names it.
func TestProfileReachesEverySection(t *testing.T) {
	_, upmem, _ := runArgs(t, "-show", "fig8,takeaways", "-n", "512")
	// Key Takeaway 1 does not hold on the HBM-PIM-like machine, whose
	// cheap multiplies let the M-LUT win, so this run exits 1.
	code, hbm, stderr := runArgs(t, "-show", "fig8,takeaways", "-n", "512", "-profile", "hbm-pim")
	if code != 1 || !strings.Contains(stderr, "KT1 failed") || !strings.Contains(hbm, "[FAIL] KT1") {
		t.Errorf("hbm-pim: exit %d, stderr %q; want KT1 to fail", code, stderr)
	}
	if got := strings.Count(hbm, "(profile hbm-pim"); got != 2 {
		t.Errorf("%d of 2 section headers name hbm-pim:\n%s", got, hbm)
	}
	sinRow := func(out string) string {
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "sin ") {
				return line
			}
		}
		t.Fatalf("no Fig. 8 sine row in:\n%s", out)
		return ""
	}
	if !strings.Contains(sinRow(upmem), " 609 ") || sinRow(hbm) == sinRow(upmem) {
		t.Errorf("Fig. 8 sine row upmem %q, hbm-pim %q: want 609 cycles on upmem only", sinRow(upmem), sinRow(hbm))
	}
	kt1 := func(out string) string { return out[strings.Index(out, "L-LUTi"):strings.Index(out, "fixed L-LUTi")] }
	if kt1(upmem) == kt1(hbm) {
		t.Errorf("KT1 measured the same cycles on both profiles: %s", kt1(hbm))
	}
}

// TestStoredDocument: a written document renders exactly as a fresh
// computation does.
func TestStoredDocument(t *testing.T) {
	path := filepath.Join(t.TempDir(), "doc.json")
	if code, _, stderr := runArgs(t, "-show", "table1,table2,fig4,fig8,isa", "-o", path); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	_, fresh, _ := runArgs(t, "-show", "table1,table2,fig4,fig8,isa")
	code, stored, stderr := runArgs(t, "-in", path, "-show", "table1,table2,fig4,fig8,isa")
	if code != 0 || stored != fresh {
		t.Fatalf("exit %d (%s); stored rendering differs:\n%s\nfresh:\n%s", code, stderr, stored, fresh)
	}
	if code, _, stderr := runArgs(t, "-in", path, "-show", "fig5"); code != 1 || !strings.Contains(stderr, "no fig5 section") {
		t.Errorf("rendering an absent section: exit %d, %q", code, stderr)
	}
}

// TestFailedChecksExit1: a failed takeaway or a fused mismatch in the
// document makes the command fail.
func TestFailedChecksExit1(t *testing.T) {
	path := filepath.Join(t.TempDir(), "doc.json")
	doc := `{"takeaways": {"profile": "upmem", "inputs": 1, "rows": [{"id": "KT9", "claim": "c", "pass": false, "detail": "d"}]},
		"fused": {"profile": "upmem", "cores": 1, "inputs": 1, "rows": [{"workload": "softmax", "bit_identical": false}]}}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	for section, want := range map[string]string{"takeaways": "KT9 failed", "fused": "fused softmax"} {
		if code, _, stderr := runArgs(t, "-in", path, "-show", section); code != 1 || !strings.Contains(stderr, want) {
			t.Errorf("-show %s: exit %d, stderr %q; want 1 naming %q", section, code, stderr, want)
		}
	}
}

// TestGoldenUpToDate recomputes the cheap sections of the committed
// REPRO_baseline.json, plus sine's interpolated L-LUT sweep points, and
// requires them byte for byte. CI regenerates the whole document.
func TestGoldenUpToDate(t *testing.T) {
	data, err := os.ReadFile("../../REPRO_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden Doc
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	var got, sine Doc
	for doc, args := range map[*Doc][]string{&got: {"-show", "table1,table2,fig4,fig8,isa"}, &sine: {"-show", "fig5", "-key", "sin/l-lut(i)"}} {
		path := filepath.Join(t.TempDir(), "doc.json")
		if code, _, stderr := runArgs(t, append(args, "-o", path)...); code != 0 {
			t.Fatalf("%q: exit %d: %s", args, code, stderr)
		}
		if data, err = os.ReadFile(path); err == nil {
			err = json.Unmarshal(data, doc)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	got.Points = sine.Points
	want := golden.Points.Rows[:0:0]
	for _, p := range golden.Points.Rows {
		if filter("sin/l-lut(i)/").match(p.Key) {
			want = append(want, p)
		}
	}
	golden.Points.Rows = want
	for name, pair := range map[string][2]any{
		"table1": {golden.Table1, got.Table1}, "table2": {golden.Table2, got.Table2}, "fig4": {golden.Fig4, got.Fig4},
		"points": {golden.Points, got.Points}, "fig8": {golden.Fig8, got.Fig8}, "isa": {golden.ISA, got.ISA},
	} {
		w, _ := json.Marshal(pair[0])
		g, _ := json.Marshal(pair[1])
		if !bytes.Equal(w, g) {
			t.Errorf("%s differs from REPRO_baseline.json (regenerate with tplrepro -o REPRO_baseline.json):\ngot  %s\nwant %s", name, g, w)
		}
	}
}
