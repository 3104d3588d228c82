package engine

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"transpimlib/internal/core"
	"transpimlib/internal/stats"
	"transpimlib/internal/telemetry"
)

// TestLedgerReconcilesCycles: with the ledger on, the sum of the
// ledger's per-row kernel cycles must equal — exactly, ±0 — both the
// engine's batch-counter cycle total and the simulator's attributed
// cycles, across a multi-tenant mixed workload with coalescing and
// splitting in play.
func TestLedgerReconcilesCycles(t *testing.T) {
	e, err := New(Config{DPUs: 4, Shards: 2, MaxBatch: 128, Ledger: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	fnA, parA := llutSpec()
	parB := core.Params{Method: core.CORDIC, Iterations: 20}
	tenants := []string{"acme", "globex", ""}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 8; i++ {
				n := 1 + rng.Intn(300) // some requests split, some coalesce
				xs := stats.RandomInputs(-3, 3, n, uint64(w*100+i))
				var err error
				if w%2 == 0 {
					_, _, err = e.EvaluateBatchTenant(tenants[w%3], fnA, parA, xs)
				} else {
					_, _, err = e.EvaluateBatchTenant(tenants[w%3], core.Sin, parB, xs)
				}
				if err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()

	snap := e.Ledger()
	if len(snap.Rows) == 0 {
		t.Fatal("ledger is empty after traffic")
	}
	var ledCycles, ledElems, ledIn, ledOut, ledReqs uint64
	for _, r := range snap.Rows {
		ledCycles += r.KernelCycles
		ledElems += r.Elements
		ledIn += r.BytesIn
		ledOut += r.BytesOut
		ledReqs += r.Requests
	}
	st := e.Stats()
	if ledCycles != st.KernelCycles {
		t.Errorf("ledger cycles %d != engine cycles %d", ledCycles, st.KernelCycles)
	}
	if got := e.System().AttributedKernelCycles(); ledCycles != got {
		t.Errorf("ledger cycles %d != simulator attributed cycles %d", ledCycles, got)
	}
	if ledElems != st.Elements {
		t.Errorf("ledger elements %d != engine elements %d", ledElems, st.Elements)
	}
	if ledIn != st.BytesIn || ledOut != st.BytesOut {
		t.Errorf("ledger bytes (%d,%d) != engine bytes (%d,%d)", ledIn, ledOut, st.BytesIn, st.BytesOut)
	}
	if ledReqs != st.Requests {
		t.Errorf("ledger requests %d != engine requests %d", ledReqs, st.Requests)
	}
}

// TestLedgerPartitionExact drives two tenants through one coalesced
// batch and checks the prefix partition: per-row shares sum to the
// batch totals with no element lost to rounding.
func TestLedgerPartitionExact(t *testing.T) {
	e, err := New(Config{DPUs: 2, Shards: 1, MaxBatch: 4096, BatchWindow: 20 * time.Millisecond, Ledger: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	fn, par := llutSpec()

	var wg sync.WaitGroup
	for _, tn := range []struct {
		tenant string
		n      int
	}{{"a", 7}, {"b", 13}, {"a", 29}} {
		wg.Add(1)
		go func(tenant string, n int) {
			defer wg.Done()
			xs := stats.RandomInputs(-3, 3, n, uint64(n))
			if _, _, err := e.EvaluateBatchTenant(tenant, fn, par, xs); err != nil {
				t.Error(err)
			}
		}(tn.tenant, tn.n)
	}
	wg.Wait()

	snap := e.Ledger()
	byTenant := map[string]telemetry.LedgerEntry{}
	var cyc, elems uint64
	for _, r := range snap.Rows {
		byTenant[r.Tenant] = r.LedgerEntry
		cyc += r.KernelCycles
		elems += r.Elements
	}
	st := e.Stats()
	if cyc != st.KernelCycles || elems != st.Elements {
		t.Errorf("partitioned totals (%d cycles, %d elems) != engine (%d, %d)",
			cyc, elems, st.KernelCycles, st.Elements)
	}
	if byTenant["a"].Elements != 36 || byTenant["b"].Elements != 13 {
		t.Errorf("per-tenant elements a=%d b=%d, want 36/13", byTenant["a"].Elements, byTenant["b"].Elements)
	}
	if byTenant["a"].Requests != 2 || byTenant["b"].Requests != 1 {
		t.Errorf("per-tenant requests a=%d b=%d, want 2/1", byTenant["a"].Requests, byTenant["b"].Requests)
	}
}

// TestLedgerDisabledBitIdentical: the ledger is pure observation — a
// ledger-on engine must produce bit-identical outputs and identical
// modeled accounting to a ledger-off engine over the same workload.
func TestLedgerDisabledBitIdentical(t *testing.T) {
	run := func(ledger bool) ([]float32, Stats) {
		e, err := New(Config{DPUs: 2, Shards: 1, MaxBatch: 128, Ledger: ledger})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		fn, par := llutSpec()
		xs := stats.RandomInputs(-7, 7, 300, 42)
		out, _, err := e.EvaluateBatchTenant("acme", fn, par, xs)
		if err != nil {
			t.Fatal(err)
		}
		st := e.Stats()
		st.QueueDepth = 0
		return out, st
	}
	outOn, stOn := run(true)
	outOff, stOff := run(false)
	for i := range outOn {
		if outOn[i] != outOff[i] {
			t.Fatalf("output %d diverges: %v vs %v", i, outOn[i], outOff[i])
		}
	}
	if stOn != stOff {
		t.Fatalf("stats diverge:\non  = %+v\noff = %+v", stOn, stOff)
	}
}

// TestMethodLabelExport: the exported label matches the internal one
// used by accuracy series.
func TestMethodLabelExport(t *testing.T) {
	p := core.Params{Method: core.LLUT, Interp: true, SizeLog2: 12}
	if got := MethodLabel(p); got != methodLabel(p) || got != "l-lut(i)" {
		t.Fatalf("MethodLabel = %q", got)
	}
	if got := MethodLabel(core.Params{Method: core.CORDIC}); got != "cordic" {
		t.Fatalf("MethodLabel cordic = %q", got)
	}
}
