package main

import (
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"transpimlib"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// testCluster builds a small fully instrumented cluster and drives a
// deterministic sequential workload through it: fixed seed, fixed
// request order, no concurrency — so placement, and therefore each
// replica's metric exposition structure, is reproducible. Seed 4
// routes the sigmoid and exp keys to replica 0, whose exposition the
// golden pins.
func testCluster(t *testing.T) *transpimlib.Cluster {
	t.Helper()
	cl, err := transpimlib.NewCluster(transpimlib.ClusterConfig{
		Replicas:   2,
		Engine:     transpimlib.EngineConfig{DPUs: 2, Shards: 1},
		Seed:       4,
		TraceDepth: 8,
		Ledger:     true,
		Timeline:   transpimlib.TimelineConfig{Enabled: true, BucketWidth: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	for r := 0; r < 3; r++ {
		for _, j := range jobs {
			xs := make([]float32, 64)
			for i := range xs {
				xs[i] = -2 + 4*float32(i)/64
			}
			if _, _, err := cl.EvaluateBatchAs(j.fn.String(), j.fn, j.cfg, xs); err != nil {
				t.Fatal(err)
			}
		}
	}
	return cl
}

// get runs one request through the handler without a network listener.
func get(h http.Handler, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

// normalizeExposition strips the sample values from a Prometheus text
// exposition, keeping comments, series names and label sets — the
// structural part that is deterministic across runs (counts and
// latencies are not).
func normalizeExposition(s string) string {
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			if i := strings.LastIndexByte(line, ' '); i > 0 {
				line = line[:i]
			}
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestClusterHandlerReplicaMounts pins the handler's mount layout:
// cluster telemetry at the root, each replica's full engine telemetry
// under /replica/<i>/, with the replica exposition structure held to a
// golden file.
func TestClusterHandlerReplicaMounts(t *testing.T) {
	h := clusterHandler(testCluster(t))

	root := get(h, "/metrics")
	if root.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", root.Code)
	}
	for _, want := range []string{"cluster_requests_total", "cluster_replica_queue_depth"} {
		if !strings.Contains(root.Body.String(), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	if strings.Contains(root.Body.String(), "engine_requests_total") {
		t.Error("/metrics leaks replica engine series into the cluster exposition")
	}

	for _, path := range []string{"/replica/0/metrics", "/replica/1/metrics"} {
		rec := get(h, path)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d", path, rec.Code)
		}
		if !strings.Contains(rec.Body.String(), "engine_requests_total") {
			t.Errorf("%s missing engine series", path)
		}
	}
	if rec := get(h, "/replica/2/metrics"); rec.Code != http.StatusNotFound {
		t.Errorf("/replica/2/metrics (out of range): %d, want 404", rec.Code)
	}

	got := normalizeExposition(get(h, "/replica/0/metrics").Body.String())
	golden := filepath.Join("testdata", "replica0.metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("replica 0 exposition structure drifted from %s (run with -update to regenerate)\ngot:\n%s", golden, got)
	}
}

// TestClusterHandlerTimeline pins the windowed-store endpoint: the
// cluster-level /debug/timeline serves windows with traffic-bearing
// rate series after a tick, replica timelines stay 404 (the store is
// cluster-scoped unless a replica enables its own), and /debug/ledger
// serves non-empty tenant rows.
func TestClusterHandlerTimeline(t *testing.T) {
	cl := testCluster(t)
	h := clusterHandler(cl)

	// Close the first window deterministically instead of waiting for
	// the background ticker.
	cl.Observe().Timeline.Tick(time.Now())

	rec := get(h, "/debug/timeline")
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/timeline: %d", rec.Code)
	}
	var snap transpimlib.TimelineSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.BucketSeconds <= 0 || len(snap.Windows) == 0 {
		t.Fatalf("timeline snapshot empty: %+v", snap)
	}
	last := snap.Windows[len(snap.Windows)-1]
	if last.Values["cluster_requests_total:rate"] <= 0 {
		t.Errorf("no cluster request rate in window: %v", last.Values)
	}

	if rec := get(h, "/replica/0/debug/timeline"); rec.Code != http.StatusNotFound {
		t.Errorf("/replica/0/debug/timeline: %d, want 404 (replica store not enabled)", rec.Code)
	}

	rec = get(h, "/debug/ledger")
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/ledger: %d", rec.Code)
	}
	var led transpimlib.LedgerSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &led); err != nil {
		t.Fatal(err)
	}
	if len(led.Rows) == 0 {
		t.Fatal("ledger has no tenant rows after traffic")
	}
	for _, r := range led.Rows {
		if r.Tenant == "" || r.Elements == 0 {
			t.Errorf("ledger row incomplete: %+v", r)
		}
	}
}

// TestClusterHandlerConcurrentScrape hammers every mounted endpoint
// while clients keep submitting — the -race guard for the observer
// paths sharing state with the serving path.
func TestClusterHandlerConcurrentScrape(t *testing.T) {
	cl := testCluster(t)
	h := clusterHandler(cl)
	paths := []string{
		"/metrics", "/debug/trace", "/debug/timeline", "/debug/ledger",
		"/replica/0/metrics", "/replica/1/metrics",
		"/replica/0/debug/trace", "/replica/1/debug/trace",
	}
	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			j := jobs[c%3]
			xs := make([]float32, 128)
			for i := range xs {
				xs[i] = -1 + 2*float32(i)/128
			}
			for r := 0; r < 10; r++ {
				if _, _, err := cl.EvaluateBatchAs(j.fn.String(), j.fn, j.cfg, xs); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				p := paths[(s+i)%len(paths)]
				if rec := get(h, p); rec.Code != http.StatusOK {
					t.Errorf("%s: %d", p, rec.Code)
					return
				}
			}
		}(s)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			cl.Observe().Timeline.Tick(time.Now())
		}
	}()
	wg.Wait()
}
