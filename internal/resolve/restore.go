package resolve

import (
	"probdedup/internal/core"
)

// SnapshotState captures the composed detector's live state for a
// durable snapshot (see core.Detector.SnapshotState). The integrator
// persists nothing of its own: the entity components and the
// uncertain-duplicate context are deterministic functions of the
// resident tuples and the live pair decisions, so RestoreIntegrator
// rebuilds them from the detector state — the same derivation batch
// Resolve runs, keeping recovery correct by construction.
func (ig *Integrator) SnapshotState() *core.DetectorState {
	return ig.det.SnapshotState()
}

// RestoreIntegrator rebuilds an online integration engine from a
// detector snapshot taken with SnapshotState, bit-identically: the
// composed detector is restored (core.RestoreDetector), and the entity
// components are re-derived from its one pair set through the same
// grouping step batch Resolve uses (components hold no fused tuple, so
// none is built). opts must be the configuration the snapshot was
// taken under. The restore emits no entity deltas; the first
// post-restore operation reports changes relative to the restored
// state, exactly as the never-crashed engine would have.
func RestoreIntegrator(opts core.Options, emit func(EntityDelta) bool, st *core.DetectorState) (*Integrator, error) {
	ig, err := newIntegrator(opts, emit, func(collect func(core.MatchDelta) bool) (*core.Detector, error) {
		return core.RestoreDetector(opts, collect, st)
	})
	if err != nil {
		return nil, err
	}
	for _, members := range matchGroups(ig.det.ResidentIDs(), ig.det.Flush().Matches) {
		ig.install(members)
	}
	return ig, nil
}
