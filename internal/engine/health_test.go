package engine

import (
	"reflect"
	"testing"
)

// TestQuarantineEntry: a DPU is quarantined exactly at the consecutive-
// failure threshold, and a success before it resets the streak.
func TestQuarantineEntry(t *testing.T) {
	h := NewHealthTracker(2, laneProbation)
	h.RecordFailure(0, 1)
	h.RecordFailure(0, 2)
	if !h.Available(0, 3) {
		t.Fatal("dpu 0 quarantined below the threshold")
	}
	h.RecordSuccess(0) // streak reset
	h.RecordFailure(0, 4)
	h.RecordFailure(0, 5)
	if !h.Available(0, 6) {
		t.Fatal("dpu 0 quarantined after a reset streak of 2")
	}
	h.RecordFailure(0, 6) // third consecutive → quarantine
	if h.Available(0, 7) {
		t.Fatal("dpu 0 available at the quarantine threshold")
	}
	if h.QuarantinedCount() != 1 {
		t.Fatalf("quarantinedCount = %d, want 1", h.QuarantinedCount())
	}
	if h.Available(1, 7) != true {
		t.Fatal("healthy dpu 1 unavailable")
	}
}

// TestQuarantineExitAndProbation: the penalty lapses after
// laneProbation seqs, the core returns on probation, and
// probationSuccesses clean launches fully re-admit it.
func TestQuarantineExitAndProbation(t *testing.T) {
	h := NewHealthTracker(1, laneProbation)
	for i := uint64(1); i <= 3; i++ {
		h.RecordFailure(0, 10)
	}
	if h.Available(0, 10+laneProbation-1) {
		t.Fatal("available before the penalty lapsed")
	}
	if !h.Available(0, 10+laneProbation) {
		t.Fatal("not re-admitted on probation after the penalty")
	}
	sn := h.Snapshot()[0]
	if !sn.Probation || sn.Quarantined {
		t.Fatalf("post-penalty state = %+v, want probation", sn)
	}
	h.RecordSuccess(0)
	if sn := h.Snapshot()[0]; !sn.Probation {
		t.Fatal("probation cleared after one success, want two")
	}
	h.RecordSuccess(0)
	if sn := h.Snapshot()[0]; sn.Probation || sn.Quarantined {
		t.Fatalf("state after full re-admission = %+v", sn)
	}
}

// TestProbationFailureRequarantines: any failure on probation
// re-quarantines immediately with a doubled penalty.
func TestProbationFailureRequarantines(t *testing.T) {
	h := NewHealthTracker(1, laneProbation)
	for i := 0; i < 3; i++ {
		h.RecordFailure(0, 10)
	}
	if !h.Available(0, 10+laneProbation) {
		t.Fatal("not on probation")
	}
	h.RecordFailure(0, 30) // single probation failure
	if h.Available(0, 31) {
		t.Fatal("probation failure did not re-quarantine")
	}
	// Penalty doubled: 2×laneProbation from seq 30.
	if h.Available(0, 30+2*laneProbation-1) {
		t.Fatal("re-quarantine penalty did not double")
	}
	if !h.Available(0, 30+2*laneProbation) {
		t.Fatal("not re-admitted after the doubled penalty")
	}
}

// TestHealthDeterminism: identical failure/success sequences produce
// identical scoreboards — the property that makes chaos-run remapping
// replayable.
func TestHealthDeterminism(t *testing.T) {
	run := func() []LaneHealth {
		h := NewHealthTracker(4, laneProbation)
		script := []struct {
			dpu  int
			seq  uint64
			fail bool
		}{
			{0, 1, true}, {1, 1, false}, {0, 2, true}, {0, 3, true},
			{2, 4, true}, {1, 5, true}, {0, 20, false}, {3, 21, true},
		}
		for _, s := range script {
			if s.fail {
				h.RecordFailure(s.dpu, s.seq)
			} else {
				h.RecordSuccess(s.dpu)
			}
			h.Available(s.dpu, s.seq)
		}
		return h.Snapshot()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical scripts diverged:\n%+v\n%+v", a, b)
	}
}

// TestBackoffSchedule: the modeled backoff starts at retryBackoff and
// doubles per attempt.
func TestBackoffSchedule(t *testing.T) {
	want := []float64{1e-6, 2e-6, 4e-6, 8e-6}
	for i, w := range want {
		if got := backoff(uint64(i + 1)); got != w {
			t.Errorf("backoff(%d) = %g, want %g", i+1, got, w)
		}
	}
}
