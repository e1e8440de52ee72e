package resolve

import (
	"fmt"
	"sort"
	"sync"

	"probdedup/internal/core"
	"probdedup/internal/decision"
	"probdedup/internal/lineage"
	"probdedup/internal/pdb"
	"probdedup/internal/verify"
)

// EntityDeltaKind classifies one change to the live entity set.
type EntityDeltaKind int

const (
	// EntityCreated reports a brand-new entity none of whose members
	// belonged to a resident entity before (a fresh arrival, or a batch
	// of fresh arrivals matching among themselves).
	EntityCreated EntityDeltaKind = iota
	// EntityMerged reports an entity that absorbed the members of one
	// or more prior entities (From), possibly together with fresh
	// arrivals.
	EntityMerged
	// EntitySplit reports an entity holding a strict subset of one
	// prior entity's members (From) — a match drop or a tuple removal
	// disconnected the component.
	EntitySplit
	// EntityRefused reports an entity whose membership is unchanged
	// but whose integration context was re-derived: an
	// uncertain-duplicate partner appeared, disappeared, or changed
	// identity, so the entity's lineage and confidence may differ.
	EntityRefused
	// EntityRetired reports an entity that left the result because its
	// last member was removed.
	EntityRetired
)

// String names the kind (the wire form of pdedup -follow -integrate).
func (k EntityDeltaKind) String() string {
	switch k {
	case EntityCreated:
		return "created"
	case EntityMerged:
		return "merged"
	case EntitySplit:
		return "split"
	case EntityRefused:
		return "refused"
	case EntityRetired:
		return "retired"
	}
	return fmt.Sprintf("EntityDeltaKind(%d)", int(k))
}

// EntityDelta is one change to the live integrated result, emitted by
// an Integrator as tuples arrive and leave.
type EntityDelta struct {
	// Kind classifies the change.
	Kind EntityDeltaKind
	// Entity is the entity's state after the change; for
	// EntityRetired, its last state before leaving the result.
	Entity Entity
	// From lists the prior entity IDs this entity replaced, in sorted
	// order: the absorbed entities of a merge, or the split origin.
	// Nil for created, refused and retired events.
	From []string
}

// IntegratorStats summarizes an Integrator's state and cumulative
// work.
type IntegratorStats struct {
	// Detector holds the composed online detection engine's stats.
	Detector core.DetectorStats
	// Entities is the current number of resolved entities.
	Entities int
	// Events counts the entity deltas enqueued since construction.
	Events int
	// Stopped reports that the emit callback ended delta delivery.
	Stopped bool
}

// component is one live connected component of the declared-match
// graph: its members (sorted by tuple ID) and their fused entity.
type component struct {
	members []string
	entity  Entity
}

// Integrator is the long-lived online integration engine — the
// incremental form of Resolve, one layer above the Detector. Tuples
// arrive (Add/AddBatch) and leave (Remove); a composed core.Detector
// maintains the live M and P pairs and the Integrator folds its
// MatchDelta stream into a live Resolution: declared matches (M)
// maintain entity membership through component-local rebuilds (only
// the connected components an operation touches are re-grouped and
// re-fused, never the whole relation), and possible matches (P) are
// kept as uncertain duplicates whose lineage and confidences are
// re-derived per touched entity.
//
// The exactness contract extends the Detector's one layer up: after
// any sequence of Add, AddBatch and Remove calls, Flush returns
// exactly the Resolution the batch Resolve would produce over
// core.Detect on the resident relation, at any Options.Workers
// setting. Per-arrival cost is proportional to the touched components
// and their uncertain-duplicate neighborhoods, not to the resident
// count.
//
// The emit callback receives typed EntityDelta events (created,
// merged, split, refused, retired) in a deterministic order per
// operation, sequentially, outside the integrator's lock — it may
// call back into the integrator. All methods are safe for concurrent
// use.
type Integrator struct {
	mu  sync.Mutex
	det *core.Detector
	cal Calibration

	// compOf locates every resident tuple's live component. It is the
	// integrator's only per-tuple state: the resident tuples, the match
	// (M) and possible-match (P) partners and the pair decisions are
	// the detector's, read through core.Detector.Resident, core.Partners
	// and core.Detector.Flush instead of mirrored.
	compOf map[string]*component
	ncomps int
	events int

	// pending collects the detector's match deltas during one
	// operation; the detector delivers them before Add/AddBatch/Remove
	// return. Guarded by mu.
	pending []core.MatchDelta

	// emits buffers entity deltas in state-change order under mu and
	// delivers them strictly outside it, one goroutine at a time, so
	// the callback can re-enter the integrator (the Detector's
	// delivery pipeline, shared via core.EmitQueue).
	emits *core.EmitQueue[EntityDelta]
}

// NewIntegrator builds an empty online integration engine over the
// given schema, composing a core.Detector internally (opts are
// validated exactly as in core.NewDetector; the reduction method must
// support incremental maintenance). Uncertain-duplicate probabilities
// are calibrated like batch Resolve's default: LinearCalibration over
// opts.Final with lo=0.1, hi=0.9.
//
// emit receives every entity delta as it happens and may be nil when
// only Flush snapshots are needed; returning false permanently stops
// delta delivery (state maintenance continues).
func NewIntegrator(schema []string, opts core.Options, emit func(EntityDelta) bool) (*Integrator, error) {
	return newIntegrator(opts, emit, func(collect func(core.MatchDelta) bool) (*core.Detector, error) {
		return core.NewDetector(schema, opts, collect)
	})
}

// newIntegrator is the one constructor behind NewIntegrator and
// RestoreIntegrator: it composes the detector build returns, handing it
// the callback that collects the detector's match deltas into pending.
func newIntegrator(opts core.Options, emit func(EntityDelta) bool, build func(collect func(core.MatchDelta) bool) (*core.Detector, error)) (*Integrator, error) {
	ig := &Integrator{
		cal:    LinearCalibration(opts.Final, 0.1, 0.9),
		compOf: map[string]*component{},
		emits:  core.NewEmitQueue(emit),
	}
	det, err := build(func(md core.MatchDelta) bool {
		ig.pending = append(ig.pending, md)
		return true
	})
	if err != nil {
		return nil, err
	}
	ig.det = det
	return ig, nil
}

// Add inserts one tuple: the composed detector classifies it against
// its incremental candidates, and the resulting match deltas are
// folded into the live entity set — rebuilding only the touched
// components. Entity deltas are emitted after the state update,
// outside the integrator's lock.
func (ig *Integrator) Add(x *pdb.XTuple) error {
	ig.mu.Lock()
	err := ig.addLocked(x)
	ig.mu.Unlock()
	ig.drainEvents()
	return err
}

func (ig *Integrator) addLocked(x *pdb.XTuple) error {
	ig.pending = core.ReuseScratch(ig.pending)
	if err := ig.det.Add(x); err != nil {
		return err
	}
	return ig.applyOp(ig.pending, []string{x.ID}, "")
}

// AddBatch inserts the tuples as one unit of work: the detector
// verifies the batch's net pair deltas (fanning out across
// Options.Workers) and the integrator folds them into the entity set
// with one component rebuild. The emitted entity-delta stream is the
// batch's net effect. On failure the detector's partial-apply
// boundary holds (see core.Detector.AddBatch); the tuples that did
// become resident are integrated before the error is returned.
func (ig *Integrator) AddBatch(xs []*pdb.XTuple) error {
	ig.mu.Lock()
	err := ig.addBatchLocked(xs)
	ig.mu.Unlock()
	ig.drainEvents()
	return err
}

func (ig *Integrator) addBatchLocked(xs []*pdb.XTuple) error {
	ig.pending = core.ReuseScratch(ig.pending)
	batchErr := ig.det.AddBatch(xs)
	// A batch tuple is new when the detector holds it and no component
	// does yet (an ID already integrated is a rejected duplicate).
	var added []string
	for _, x := range xs {
		if x == nil || ig.compOf[x.ID] != nil {
			continue
		}
		if _, ok := ig.det.Resident(x.ID); ok {
			added = append(added, x.ID)
		}
	}
	if err := ig.applyOp(ig.pending, added, ""); err != nil {
		return err
	}
	return batchErr
}

// Remove drops the tuple: the detector retracts its pair decisions,
// and the component it belonged to is rebuilt without it — splitting
// it when the removal disconnects the match graph, retiring the
// entity when the last member leaves. Removing an ID that is not
// resident fails with an error wrapping core.ErrUnknownID and changes
// nothing.
func (ig *Integrator) Remove(id string) error {
	ig.mu.Lock()
	err := ig.removeLocked(id)
	ig.mu.Unlock()
	ig.drainEvents()
	return err
}

func (ig *Integrator) removeLocked(id string) error {
	ig.pending = core.ReuseScratch(ig.pending)
	if err := ig.det.Remove(id); err != nil {
		return err
	}
	err := ig.applyOp(ig.pending, nil, id)
	delete(ig.compOf, id)
	return err
}

// snapshotEntity returns an entity whose Members slice is the
// caller's own copy: events and Flush results may be reordered or
// truncated by consumers (batch Resolve's output allows it), and
// handing out the live component's backing array would let such a
// mutation corrupt the incremental state.
func snapshotEntity(e Entity) Entity {
	e.Members = append([]string(nil), e.Members...)
	return e
}

// applyOp folds one operation's match deltas into the live entity
// state: the components an M-edge change, arrival or removal touches
// are rebuilt locally (re-grouped over the detector's match partners,
// which already reflect the operation, and re-fused per component), and
// typed entity deltas are enqueued in a deterministic order —
// retirements first, then membership changes, then refusals, each
// sorted by entity ID. removed names a tuple the detector already
// dropped; added lists tuple IDs that became resident in this
// operation.
func (ig *Integrator) applyOp(deltas []core.MatchDelta, added []string, removed string) error {
	// Phase 1: mark what the deltas touch. dirty collects components
	// whose membership may change; refused collects components whose
	// uncertain-duplicate context changed without a membership change.
	dirty := map[*component]bool{}
	refused := map[*component]bool{}
	mark := func(id string) {
		if c := ig.compOf[id]; c != nil {
			dirty[c] = true
		}
	}
	markRefused := func(p verify.Pair) {
		ca, cb := ig.compOf[p.A], ig.compOf[p.B]
		// Intra-component possible matches carry no uncertainty in the
		// result (Resolve ignores them), and endpoints without a
		// component yet are fresh arrivals the rebuild phase covers.
		if ca != nil && cb != nil && ca != cb {
			refused[ca] = true
			refused[cb] = true
		}
	}
	for _, md := range deltas {
		switch md.Class {
		case decision.M:
			mark(md.Pair.A)
			mark(md.Pair.B)
		case decision.P:
			markRefused(md.Pair)
		}
	}
	if removed != "" {
		mark(removed)
	}

	// Phase 2: component-local rebuild. The affected universe is the
	// union of the dirty components' members (minus the removed
	// tuple) plus the fresh arrivals; match edges never cross from a
	// touched component to an untouched one without both being dirty,
	// so re-grouping within this universe is exact.
	affected := map[string]bool{}
	oldComps := make([]*component, 0, len(dirty))
	for c := range dirty {
		oldComps = append(oldComps, c)
		for _, m := range c.members {
			if m != removed {
				affected[m] = true
			}
		}
	}
	for _, id := range added {
		affected[id] = true
	}

	// Snapshot the old assignment for event classification. oldFull is
	// the old component's complete member count (removed tuple
	// included) — the reference for the unchanged-membership check —
	// while oldLive counts survivors, detecting retirement.
	oldEntityOf := map[string]string{} // surviving member → old entity ID
	oldFull := map[string]int{}        // old entity ID → full member count
	oldLive := map[string]int{}        // old entity ID → surviving member count
	oldEntity := map[string]Entity{}   // old entity ID → entity snapshot
	oldCompByID := map[string]*component{}
	for _, c := range oldComps {
		oldEntity[c.entity.ID] = c.entity
		oldCompByID[c.entity.ID] = c
		oldFull[c.entity.ID] = len(c.members)
		n := 0
		for _, m := range c.members {
			if m == removed {
				continue
			}
			oldEntityOf[m] = c.entity.ID
			n++
		}
		oldLive[c.entity.ID] = n
	}

	// Re-group the affected universe over the match partners,
	// deterministically (seeds in sorted order, members sorted).
	ids := make([]string, 0, len(affected))
	for id := range affected {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	assigned := map[string]bool{}
	var groups [][]string
	for _, id := range ids {
		if assigned[id] {
			continue
		}
		members := []string{}
		stack := []string{id}
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if assigned[cur] {
				continue
			}
			assigned[cur] = true
			members = append(members, cur)
			stack = core.Partners(ig.det, stack, cur, decision.M)
		}
		sort.Strings(members)
		groups = append(groups, members)
	}

	// Phase 3: rebuild and classify. Components whose membership is
	// unchanged are reused (no re-fusion, no membership event); the
	// rest are re-fused and reported as created/merged/split.
	var events []EntityDelta
	isNew := map[*component]bool{}
	reused := map[*component]bool{}
	built := 0
	for _, members := range groups {
		srcsSet := map[string]bool{}
		fromOld := 0
		for _, m := range members {
			if eid, ok := oldEntityOf[m]; ok {
				srcsSet[eid] = true
				fromOld++
			}
		}
		srcs := make([]string, 0, len(srcsSet))
		for eid := range srcsSet {
			srcs = append(srcs, eid)
		}
		sort.Strings(srcs)

		if len(srcs) == 1 && fromOld == len(members) && oldFull[srcs[0]] == len(members) {
			// Identical membership: the component survives as is (an
			// added or dropped match edge inside it changed nothing).
			reused[oldCompByID[srcs[0]]] = true
			continue
		}
		e, err := buildEntity(members, ig.det.Resident)
		if err != nil {
			return fmt.Errorf("resolve: re-fusing component %v: %w", members, err)
		}
		c := &component{members: members, entity: e}
		for _, m := range members {
			ig.compOf[m] = c
		}
		isNew[c] = true
		built++
		kind := EntityCreated
		var from []string
		switch {
		case fromOld == 0:
			kind = EntityCreated
		case len(srcs) >= 2 || fromOld < len(members):
			kind = EntityMerged
			from = srcs
		default:
			kind = EntitySplit
			from = srcs
		}
		events = append(events, EntityDelta{Kind: kind, Entity: snapshotEntity(e), From: from})
	}

	// Retired: a dirty component none of whose members survive — the
	// removed tuple was its last member.
	for eid, n := range oldLive {
		if n == 0 {
			events = append(events, EntityDelta{Kind: EntityRetired, Entity: snapshotEntity(oldEntity[eid])})
		}
	}
	ig.ncomps += built + len(reused) - len(oldComps)

	// Phase 4: refusal propagation. A rebuilt component's entity ID
	// changed, so every uncertain-duplicate partner of its members
	// holds a renamed dup symbol: unchanged components P-adjacent to a
	// new component are re-derived. Dead components (replaced or
	// retired) and new ones (already reported) are filtered out.
	dead := map[*component]bool{}
	for _, c := range oldComps {
		if !reused[c] {
			dead[c] = true
		}
	}
	var partners []string
	for c := range isNew {
		for _, m := range c.members {
			partners = core.Partners(ig.det, partners[:0], m, decision.P)
			for _, n := range partners {
				if cn := ig.compOf[n]; cn != nil && cn != c {
					refused[cn] = true
				}
			}
		}
	}
	var refusedEvents []EntityDelta
	for c := range refused {
		if dead[c] || isNew[c] {
			continue
		}
		refusedEvents = append(refusedEvents, EntityDelta{Kind: EntityRefused, Entity: snapshotEntity(c.entity)})
	}

	// Phase 5: deterministic event order — retirements, then
	// membership changes, then refusals, each sorted by entity ID.
	rank := func(k EntityDeltaKind) int {
		if k == EntityRetired {
			return 0
		}
		return 1
	}
	sort.SliceStable(events, func(i, j int) bool {
		ri, rj := rank(events[i].Kind), rank(events[j].Kind)
		if ri != rj {
			return ri < rj
		}
		return events[i].Entity.ID < events[j].Entity.ID
	})
	sort.Slice(refusedEvents, func(i, j int) bool {
		return refusedEvents[i].Entity.ID < refusedEvents[j].Entity.ID
	})
	events = append(events, refusedEvents...)
	ig.enqueueEvents(events)
	return nil
}

// enqueueEvents buffers one operation's entity deltas for delivery
// outside the state lock (callers hold ig.mu); drainEvents delivers
// after the lock is released. Both delegate to the shared
// core.EmitQueue.
func (ig *Integrator) enqueueEvents(events []EntityDelta) {
	ig.events += len(events)
	ig.emits.Enqueue(events...)
}

func (ig *Integrator) drainEvents() { ig.emits.Drain() }

// Flush materializes the live integrated state as an exact Resolution
// — the same Resolution batch Resolve would produce over core.Detect
// on the resident relation: canonical entity and member order,
// uncertain duplicates with lineage symbols declared in sorted order,
// and the lineage-annotated result relation.
func (ig *Integrator) Flush() (*Resolution, error) {
	ig.mu.Lock()
	defer ig.mu.Unlock()
	seen := map[*component]bool{}
	var entities []Entity // nil when empty, matching batch Resolve's zero value
	for _, c := range ig.compOf {
		if !seen[c] {
			seen[c] = true
			entities = append(entities, snapshotEntity(c.entity))
		}
	}
	sort.Slice(entities, func(i, j int) bool { return entities[i].Members[0] < entities[j].Members[0] })
	r := &Resolution{Universe: lineage.NewUniverse(), Entities: entities}
	if err := finishResolution(r, possibleOf(ig.det.Flush()), ig.cal); err != nil {
		return nil, err
	}
	return r, nil
}

// FlushResult exposes the composed detector's exact pairwise Result
// on the residents (see core.Detector.Flush).
func (ig *Integrator) FlushResult() *core.Result {
	return ig.det.Flush()
}

// Len returns the resident tuple count.
func (ig *Integrator) Len() int {
	return ig.det.Len()
}

// ResidentIDs returns the IDs of all resident tuples in sorted order.
func (ig *Integrator) ResidentIDs() []string {
	return ig.det.ResidentIDs()
}

// Stats summarizes the integrator's state and cumulative work.
func (ig *Integrator) Stats() IntegratorStats {
	det := ig.det.Stats()
	ig.mu.Lock()
	defer ig.mu.Unlock()
	return IntegratorStats{
		Detector: det,
		Entities: ig.ncomps,
		Events:   ig.events,
		Stopped:  ig.emits.Stopped(),
	}
}
