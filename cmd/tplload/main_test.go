package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// fakeClock is an injected clock whose every sleep ends late by a
// fixed overshoot, like an OS timer on a loaded machine.
type fakeClock struct {
	now, overshoot time.Duration
	sleeps         int
}

func (c *fakeClock) elapsed() time.Duration { return c.now }

func (c *fakeClock) sleep(d time.Duration) {
	c.now += d + c.overshoot
	c.sleeps++
}

// TestScheduleAbsoluteArrivals: with 100 µs gaps over 10 ms every one
// of the 100 arrivals fires, at its absolute due time or at most one
// overshoot late, although each sleep overshoots by 2.5 gaps; overdue
// arrivals fire without sleeping.
func TestScheduleAbsoluteArrivals(t *testing.T) {
	const gap = 100 * time.Microsecond
	clk := &fakeClock{overshoot: 250 * time.Microsecond}
	var n uint64
	schedule(10*time.Millisecond, func(time.Duration) time.Duration { return gap },
		clk.elapsed, clk.sleep, func() bool { return false },
		func(i uint64, due time.Duration) {
			if i != n {
				t.Fatalf("arrival %d fired as index %d", n, i)
			}
			if want := time.Duration(i) * gap; due != want {
				t.Fatalf("arrival %d due at %v, want %v", i, due, want)
			}
			if late := clk.now - due; late < 0 || late > clk.overshoot {
				t.Fatalf("arrival %d fired %v after its due time, want within [0, %v]", i, late, clk.overshoot)
			}
			n++
		})
	if n != 100 {
		t.Fatalf("fired %d arrivals, want 100", n)
	}
	if clk.sleeps >= 40 {
		t.Errorf("slept %d times for 100 arrivals: overdue arrivals must fire without sleeping", clk.sleeps)
	}
}

// TestScheduleStops: stop ends the run before the next arrival fires.
func TestScheduleStops(t *testing.T) {
	clk := &fakeClock{}
	var n int
	schedule(time.Second, func(time.Duration) time.Duration { return time.Millisecond },
		clk.elapsed, clk.sleep, func() bool { return n == 5 },
		func(uint64, time.Duration) { n++ })
	if n != 5 {
		t.Fatalf("fired %d arrivals after stop, want 5", n)
	}
}

func TestListenExitCode(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// Binding the same address again must map to the dedicated exit
	// code so scripts can distinguish "port taken" from other failures.
	_, err = net.Listen("tcp", ln.Addr().String())
	if err == nil {
		t.Fatal("second bind unexpectedly succeeded")
	}
	if code := listenExitCode(err); code != 3 {
		t.Fatalf("listenExitCode(EADDRINUSE) = %d, want 3", code)
	}
	if code := listenExitCode(errors.New("some other failure")); code != 1 {
		t.Fatalf("listenExitCode(other) = %d, want 1", code)
	}
	// The same through the command: a taken -listen address exits 3.
	if code, _, stderr := runCmd(t, "-dpus", "2", "-shards", "1", "-clients", "1", "-requests", "1",
		"-elems", "8", "-listen", ln.Addr().String()); code != 3 {
		t.Fatalf("tplload -listen on a taken address exited %d, want 3\n%s", code, stderr)
	}
}

func TestParseSLOs(t *testing.T) {
	slos, err := parseSLOs("fn=sigmoid,method=l-lut(i),mae=1e-3; method=cordic,ulp=4096")
	if err != nil {
		t.Fatal(err)
	}
	if len(slos) != 2 {
		t.Fatalf("parsed %d SLOs, want 2", len(slos))
	}
	if slos[0].Function != "sigmoid" || slos[0].Method != "l-lut(i)" || slos[0].MaxMAE != 1e-3 {
		t.Fatalf("slo[0] = %+v", slos[0])
	}
	if slos[1].Method != "cordic" || slos[1].MaxULP != 4096 || slos[1].MaxMAE != 0 {
		t.Fatalf("slo[1] = %+v", slos[1])
	}

	if s, err := parseSLOs(""); err != nil || s != nil {
		t.Fatalf("empty spec: %v, %v", s, err)
	}
	for _, bad := range []string{"mae", "mae=abc", "nope=1", "fn=sin"} {
		if _, err := parseSLOs(bad); err == nil {
			t.Fatalf("parseSLOs(%q) accepted", bad)
		}
	}
}

// runCmd drives the command in process and returns its exit code and
// output.
func runCmd(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestAccuracyGateFailsOnCluster: an unmeetable SLO fails the gate
// whether one replica or two serve the requests.
func TestAccuracyGateFailsOnCluster(t *testing.T) {
	for _, replicas := range []string{"1", "2"} {
		code, out, stderr := runCmd(t, "-replicas", replicas, "-clients", "2", "-requests", "3",
			"-elems", "256", "-accuracy", "1", "-slo", "mae=1e-12", "-acc-gate")
		if code != 1 || !strings.Contains(out, "VIOLATED") {
			t.Fatalf("-replicas %s: exit %d, want 1 with violations\n%s%s", replicas, code, out, stderr)
		}
	}
}

// TestRunModes drives each load mode end to end at a small scale.
func TestRunModes(t *testing.T) {
	chrome := filepath.Join(t.TempDir(), "trace.json")
	small := []string{"-dpus", "2", "-shards", "1", "-elems", "64"}
	for _, tc := range []struct {
		name  string
		args  []string
		check func(t *testing.T, rep report, out string)
	}{
		{"closed loop, SLO gate passes",
			[]string{"-clients", "2", "-requests", "3", "-accuracy", "1", "-slo", "mae=1e-3", "-acc-gate", "-ledger", "-profile"},
			func(t *testing.T, rep report, out string) {
				if rep.Served != 6 || !strings.Contains(out, "passed") || !strings.Contains(out, "ledger") {
					t.Fatalf("served %d, want 6 and a passed gate\n%s", rep.Served, out)
				}
			}},
		{"open loop, faulted replica, verified",
			[]string{"-replicas", "2", "-rate", "50", "-warmup", "100ms", "-duration", "1s",
				"-faults", "seed=7,dpufail=1", "-fail-replica", "1", "-verify"},
			func(t *testing.T, rep report, out string) {
				if !rep.Verified || rep.Mismatches != 0 || rep.Served == 0 || rep.Served != rep.Offered {
					t.Fatalf("verified %v, %d mismatches, %d/%d served", rep.Verified, rep.Mismatches, rep.Served, rep.Offered)
				}
				if len(rep.Replicas[1].FaultEvents) == 0 {
					t.Fatal("replica 1 injected no faults — the run tested nothing")
				}
			}},
		{"chaos shape with replay",
			[]string{"-clients", "1", "-requests", "12", "-verify",
				"-faults", "seed=42,dpufail=0.05,dpuslow=0.05x4,bitflip=0.02,tin=0.05,tout=0.05"},
			func(t *testing.T, rep report, out string) {
				if rep.Replay != "identical" || rep.Mismatches != 0 || len(rep.Replicas[0].FaultEvents) == 0 {
					t.Fatalf("replay %q, %d mismatches, %d events", rep.Replay, rep.Mismatches, len(rep.Replicas[0].FaultEvents))
				}
			}},
		{"chrome trace export",
			[]string{"-replicas", "2", "-clients", "2", "-requests", "3", "-trace", "16", "-chrome", chrome},
			func(t *testing.T, rep report, out string) {
				data, err := os.ReadFile(chrome)
				if err != nil {
					t.Fatal(err)
				}
				var doc struct {
					TraceEvents []struct{ Name, Ph string } `json:"traceEvents"`
				}
				if err := json.Unmarshal(data, &doc); err != nil {
					t.Fatal(err)
				}
				roots := 0
				for _, ev := range doc.TraceEvents {
					if ev.Ph == "X" && ev.Name == "cluster_request" {
						roots++
					}
				}
				if roots != 6 || !strings.Contains(out, "stage") {
					t.Fatalf("%d request roots in the Chrome trace, want 6\n%s", roots, out)
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := append(append(append([]string(nil), small...), tc.args...), "-json", "-")
			code, stdout, stderr := runCmd(t, args...)
			if code != 0 {
				t.Fatalf("exit %d\n%s", code, stderr)
			}
			var rep report
			if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
				t.Fatalf("JSON report: %v\n%s", err, stdout)
			}
			tc.check(t, rep, stderr)
		})
	}
}
