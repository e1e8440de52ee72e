package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"probdedup/internal/decision"
	"probdedup/internal/pdb"
	"probdedup/internal/prepare"
	"probdedup/internal/ssr"
	"probdedup/internal/verify"
)

// DetectorState is the portable snapshot of a Detector's live state —
// everything a recovered detector cannot re-derive from its Options:
// the resident tuples in arrival order (already standardized; the
// incremental-index contract ties candidate tie-breaking to insertion
// order), every live M and P decision, the cumulative work counters, and
// the placement state of a bounded-staleness reduction index. What is
// deliberately absent is re-derived on restore: exact-tier index state
// and the pre-filter summaries are pure functions of the residents in
// insertion order, and the symbol plane is content-addressed, so
// re-interning assigns equivalent (if differently numbered) symbols.
type DetectorState struct {
	// Schema is the detector's attribute names.
	Schema []string
	// Residents holds the standardized resident tuples in arrival
	// order. The slices and tuples are shared with the live detector —
	// read-only by contract (resident tuples are immutable).
	Residents []*pdb.XTuple
	// Pairs lists every live pair, each of class M or P, sorted by
	// (A, B).
	Pairs []Match
	// Compared and Dropped are the cumulative work counters.
	Compared, Dropped int
	// Epoch is the bounded-staleness placement state
	// (ssr.StatefulEpochIndex); nil for exact-tier reductions.
	Epoch *ssr.EpochState
}

// SnapshotState captures the detector's live state for a durable
// snapshot. The returned state shares the resident tuples with the
// detector (they are immutable while resident and stay valid after
// removal); the slices themselves are fresh copies, so concurrent
// detector operations never mutate a taken snapshot.
func (d *Detector) SnapshotState() *DetectorState {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := &DetectorState{
		Schema:    append([]string(nil), d.eng.xr.Schema...),
		Residents: make([]*pdb.XTuple, 0, len(d.live.slotOf)),
		Pairs:     make([]Match, 0, len(d.live.pairs)),
		Compared:  d.compared,
		Dropped:   d.dropped,
	}
	slots := make([]slot, 0, len(d.live.slotOf))
	for _, s := range d.live.slots {
		if s.x != nil {
			slots = append(slots, s)
		}
	}
	sort.Slice(slots, func(i, j int) bool { return slots[i].seq < slots[j].seq })
	for _, s := range slots {
		st.Residents = append(st.Residents, s.x)
	}
	for i := range d.live.pairs {
		st.Pairs = append(st.Pairs, d.live.match(int32(i)))
	}
	slices.SortFunc(st.Pairs, func(a, b Match) int { return verify.ComparePairs(a.Pair, b.Pair) })
	if ei, ok := d.idx.(ssr.StatefulEpochIndex); ok {
		st.Epoch = ei.ExportEpochState()
	}
	return st
}

// RestoreDetector rebuilds a detector from a snapshot taken with
// SnapshotState, bit-identically: the same resident relation, live
// pair set, index state and counters, so every future operation
// behaves exactly as it would have on the original. opts must be the
// configuration the snapshot was taken under (the snapshot records
// state, not configuration). The restore produces no emitted deltas —
// the snapshot's pairs were already reported when they entered the
// live set.
//
// Restoring re-runs no comparisons and no pre-filter cascade: residents
// are re-registered in arrival order (re-interning the symbol plane and
// re-summarizing the pre-filter), exact-tier index state is re-derived
// by re-filing them — ssr.RestoringIndex.Restore where the index has
// it (every built-in exact-tier index but SNMCertain and
// SNMAlternatives), else one ssr.InsertBatch of every resident that
// admits no add and whose deltas are discarded (those two empty window
// indexes file it in one pass); the index contract makes the
// maintained candidate set a pure function of the residents in
// insertion order — and the live pair decisions are installed directly
// from the snapshot. The pre-filter's Enumerated and Filtered counters
// are not part of the snapshot and start at 0. A bounded-staleness
// index restores its persisted placement state instead
// (ssr.StatefulEpochIndex). The state is validated as it is applied;
// untrusted snapshots (a corrupt or crafted file) fail with an error,
// never a panic.
func RestoreDetector(opts Options, emit func(MatchDelta) bool, st *DetectorState) (*Detector, error) {
	d, err := NewDetector(st.Schema, opts, emit)
	if err != nil {
		return nil, err
	}
	_, stateful := d.idx.(ssr.StatefulEpochIndex)
	if stateful != (st.Epoch != nil) && len(st.Residents) > 0 {
		return nil, fmt.Errorf("core: snapshot epoch state (present=%t) does not match reduction tier (bounded-staleness=%t)",
			st.Epoch != nil, stateful)
	}
	var filed []*pdb.XTuple // the residents the index files in one batch
	for _, x := range st.Residents {
		if x == nil {
			return nil, fmt.Errorf("core: snapshot contains a nil resident")
		}
		x = x.Clone()
		if err := x.Validate(len(st.Schema)); err != nil {
			return nil, fmt.Errorf("core: snapshot resident: %w", err)
		}
		if _, dup := d.live.slotOf[x.ID]; dup {
			return nil, fmt.Errorf("core: snapshot lists resident %q twice", x.ID)
		}
		prepare.InternXTuple(d.eng.symtab, x)
		d.register(x)
		if ri, ok := d.idx.(ssr.RestoringIndex); ok {
			ri.Restore(x)
		} else if !stateful {
			filed = append(filed, x)
		}
	}
	// Discarded deltas: the maintained candidate set is what the restore
	// is after; the pair decisions come from the snapshot.
	ssr.InsertBatch(d.idx, filed, func(verify.Pair) bool { return false })
	if stateful && st.Epoch != nil {
		err := d.idx.(ssr.StatefulEpochIndex).RestoreEpochState(st.Epoch, d.live.tuple)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	for _, m := range st.Pairs {
		p := m.Pair
		if p.A >= p.B {
			return nil, fmt.Errorf("core: snapshot pair (%q,%q) is not in canonical order", p.A, p.B)
		}
		a, okA := d.live.slotOf[p.A]
		if !okA {
			return nil, fmt.Errorf("core: snapshot pair references non-resident tuple %q", p.A)
		}
		b, okB := d.live.slotOf[p.B]
		if !okB {
			return nil, fmt.Errorf("core: snapshot pair references non-resident tuple %q", p.B)
		}
		if _, dup := d.live.find(a, b); dup {
			return nil, fmt.Errorf("core: snapshot lists pair (%q,%q) twice", p.A, p.B)
		}
		if m.Class != decision.M && m.Class != decision.P {
			return nil, fmt.Errorf("core: snapshot pair (%q,%q) has class %d; only M and P pairs are live", p.A, p.B, int(m.Class))
		}
		if math.IsNaN(m.Sim) {
			return nil, fmt.Errorf("core: snapshot pair (%q,%q) has NaN similarity", p.A, p.B)
		}
		d.live.put(a, b, m.Sim, m.Class)
	}
	if st.Compared < 0 || st.Dropped < 0 {
		return nil, fmt.Errorf("core: snapshot has negative work counters")
	}
	d.compared, d.dropped = st.Compared, st.Dropped
	return d, nil
}
