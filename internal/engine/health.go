package engine

import "sync"

// ReliabilityConfig tunes the engine's recovery ladder when fault
// injection is enabled (Config.Faults). The zero value disables both
// knobs. Durations are modeled simulator seconds, not wall clock —
// recovery costs show up in the same accounting as the work they
// protect, and tests stay fast and scheduler-independent.
type ReliabilityConfig struct {
	// LaunchTimeout, when > 0, fails a launch attempt whose modeled
	// kernel time (slowest lane) exceeds it — the straggler cutoff. The
	// slowest lane is blamed on the health tracker. Zero disables.
	LaunchTimeout float64
	// HedgeRatio, when > 1, relaunches a batch's slowest lane on its
	// own when that lane's modeled cycles exceed HedgeRatio times the
	// lane median, keeping the cheaper of the two runs. Zero disables.
	HedgeRatio float64
}

// The recovery ladder's fixed knobs.
const (
	// maxRetries bounds launch and transfer retries per batch; when they
	// are exhausted the batch degrades to the host mirror.
	maxRetries = 3
	// retryBackoff is the modeled pause before the first retry; it
	// doubles per subsequent attempt.
	retryBackoff = 1e-6
	// quarantineAfter consecutive failures quarantine a core (or, in a
	// cluster, a replica); a failure during probation re-quarantines it
	// immediately.
	quarantineAfter = 3
	// probationSuccesses clean launches fully re-admit a probationary
	// core.
	probationSuccesses = 2
	// laneProbation is how many batch sequence numbers a DPU sits
	// quarantined before it is re-admitted on probation.
	laneProbation = 16
)

// queueDepth bounds the submit queue: callers block (backpressure)
// while it is full. The cluster router reads the backlog as a
// replica's load (Engine.QueueDepth), so the bound is also the range
// of that signal.
const queueDepth = 64

// backoff returns the modeled pause before retry attempt n (1-based):
// retryBackoff doubling per attempt.
func backoff(attempt uint64) float64 {
	d := retryBackoff
	for i := uint64(1); i < attempt; i++ {
		d *= 2
	}
	return d
}

// LaneHealth is one DPU's row of the health scoreboard.
type LaneHealth struct {
	DPU         int    // global core id
	Errors      uint64 // lifetime failures (injected hard fails, timeouts)
	Consecutive int    // current consecutive-failure streak
	Quarantined bool   // excluded from launches until the penalty lapses
	Probation   bool   // re-admitted, needs clean launches to clear
}

// HealthTracker is the per-DPU error/latency scoreboard driving shard
// remapping: consecutive failures quarantine a core, quarantined cores
// are excluded from launch plans, and after a (doubling) penalty the
// core is re-admitted on probation — a failure there re-quarantines it
// immediately, successes clear it. Quarantine time is measured in
// batch sequence numbers, the engine's deterministic clock.
type HealthTracker struct {
	probation uint64 // first quarantine length in seqs

	mu    sync.Mutex
	lanes []laneState
}

type laneState struct {
	errors      uint64
	consecutive int
	quarantined bool
	probation   bool
	since       uint64 // seq at quarantine entry
	penalty     uint64 // quarantine length in seqs; doubles per re-entry
	probationOK int    // clean launches accumulated on probation
}

// NewHealthTracker tracks n units (DPUs, or a cluster's replicas) that
// sit out probation sequence numbers on their first quarantine. The
// other thresholds are the ladder's constants: quarantineAfter and
// probationSuccesses.
func NewHealthTracker(n int, probation uint64) *HealthTracker {
	return &HealthTracker{probation: probation, lanes: make([]laneState, n)}
}

// RecordFailure charges one failure (hard fail or timeout) against a
// DPU at batch seq. Reaching the consecutive threshold — or any
// failure while on probation — quarantines the core, doubling the
// penalty on every re-entry. It reports whether this call moved the
// core into quarantine, so a caller can refresh its gauges on the
// transition.
func (h *HealthTracker) RecordFailure(dpu int, seq uint64) (quarantined bool) {
	h.mu.Lock()
	st := &h.lanes[dpu]
	st.errors++
	st.consecutive++
	if st.probation || st.consecutive >= quarantineAfter {
		quarantined = !st.quarantined
		st.quarantined = true
		st.probation = false
		st.probationOK = 0
		st.since = seq
		if st.penalty == 0 {
			st.penalty = h.probation
		} else {
			st.penalty *= 2
		}
	}
	h.mu.Unlock()
	return quarantined
}

// RecordSuccess clears a DPU's failure streak; enough successes on
// probation fully re-admit it.
func (h *HealthTracker) RecordSuccess(dpu int) {
	h.mu.Lock()
	st := &h.lanes[dpu]
	st.consecutive = 0
	if st.probation {
		st.probationOK++
		if st.probationOK >= probationSuccesses {
			st.probation = false
			st.probationOK = 0
		}
	}
	h.mu.Unlock()
}

// Available reports whether a DPU may serve the batch at seq. A
// quarantined core whose penalty has lapsed transitions to probation
// (and becomes available) here.
func (h *HealthTracker) Available(dpu int, seq uint64) bool {
	h.mu.Lock()
	st := &h.lanes[dpu]
	if st.quarantined {
		if seq >= st.since+st.penalty {
			st.quarantined = false
			st.probation = true
			st.probationOK = 0
		} else {
			h.mu.Unlock()
			return false
		}
	}
	h.mu.Unlock()
	return true
}

// QuarantinedCount returns how many DPUs are currently quarantined.
func (h *HealthTracker) QuarantinedCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for i := range h.lanes {
		if h.lanes[i].quarantined {
			n++
		}
	}
	return n
}

// Snapshot returns the scoreboard, one row per DPU.
func (h *HealthTracker) Snapshot() []LaneHealth {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]LaneHealth, len(h.lanes))
	for i := range h.lanes {
		st := &h.lanes[i]
		out[i] = LaneHealth{
			DPU:         i,
			Errors:      st.errors,
			Consecutive: st.consecutive,
			Quarantined: st.quarantined,
			Probation:   st.probation,
		}
	}
	return out
}
