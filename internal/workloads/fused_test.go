package workloads

import (
	"testing"

	"transpimlib/internal/engine"
	"transpimlib/internal/faultsim"
)

// TestFusedDegradedUnderFaults: with every DPU launch failing, each
// fused workload rides the recovery ladder to the host mirror
// (Degraded) and its outputs stay bit-identical to the per-op
// baseline's.
func TestFusedDegradedUnderFaults(t *testing.T) {
	plan, err := faultsim.ParsePlan("seed=9,dpufail=1")
	if err != nil {
		t.Fatal(err)
	}
	const dpus = 16
	e, err := engine.New(engine.Config{DPUs: dpus, MaxBatch: dpus * 1024, Ledger: true, Faults: &plan})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for _, cs := range FusedCases() {
		r, err := RunFused(e, cs, dpus*1024, true)
		if err != nil {
			t.Fatalf("%s: %v", cs.Name, err)
		}
		if !r.Degraded || !r.BitIdentical {
			t.Errorf("%s: degraded=%v bit-identical=%v, want both", cs.Name, r.Degraded, r.BitIdentical)
		}
	}
}
