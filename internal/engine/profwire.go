package engine

import (
	"strconv"

	"transpimlib/internal/profiler"
)

// Profiler wiring: Engine.launch fills the shard's LaunchContext after
// each launch and hands it, with the per-lane records the simulator
// measured, to the collector on the launching goroutine, so no lock is
// needed; contexts live one per shard because shards launch
// concurrently.

// Profiler returns the modeled-cycle collector, nil unless
// Config.Profiler.Enabled.
func (e *Engine) Profiler() *profiler.Collector { return e.prof }

// ProfileSnapshot returns the cumulative profile; ok is false when
// profiling is disabled.
func (e *Engine) ProfileSnapshot() (profiler.Profile, bool) {
	if e.prof == nil {
		return profiler.Profile{}, false
	}
	return e.prof.Snapshot(), true
}

// phaseNames pre-renders the common fused-program phase labels so
// naming a phase's launch stays allocation-free for realistic graphs.
var phaseNames = [...]string{
	"phase0", "phase1", "phase2", "phase3", "phase4", "phase5", "phase6", "phase7",
	"phase8", "phase9", "phase10", "phase11", "phase12", "phase13", "phase14", "phase15",
}

// phaseStage names fused-program phase phi for the profiler's stage
// label.
func phaseStage(phi int) string {
	if phi >= 0 && phi < len(phaseNames) {
		return phaseNames[phi]
	}
	return "phase" + strconv.Itoa(phi)
}
