package resolve

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"probdedup/internal/core"
	"probdedup/internal/decision"
	"probdedup/internal/pdb"
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
	// Entity is the entity's state after the change, its Tuple fused
	// for this event from the members' resident tuples; for
	// EntityRetired, its last state, built before the member leaves the
	// Detector. The event owns it: no later event or Flush shares its
	// Members or Tuple.
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

// Integrator is the long-lived online integration engine — the
// incremental form of Resolve, one layer above the Detector. Tuples
// arrive (Add/AddBatch) and leave (Remove); a composed core.Detector
// maintains the live M and P pairs and the Integrator folds its
// MatchDelta stream into a live Resolution: declared matches (M)
// maintain entity membership through component-local rebuilds (only
// the connected components an operation touches are re-grouped, never
// the whole relation), and possible matches (P) are
// kept as uncertain duplicates whose lineage and confidences are
// re-derived per touched entity. A live component is an Entity that
// holds only its ID and sorted members, tracked by pointer; the fused
// tuple is a derived artifact, built from the Detector's residents for
// the event, Flush or uncertain-duplicate merge that reads it and never
// retained. The emitted events fold, in order, to Flush's entities.
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

	// compOf locates every resident tuple's live component, an Entity
	// with its ID and sorted members but no Tuple, shared by pointer
	// among the members; the pointer is the component's identity. It is
	// the integrator's only per-tuple state: the resident tuples, the
	// match (M) and possible-match (P) partners and the pair decisions
	// are the detector's, read through core.Detector.Resident,
	// core.Partners and core.Detector.Flush instead of mirrored, and
	// fused tuples are built per output (snapshotEntity).
	compOf map[string]*Entity
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
		compOf: map[string]*Entity{},
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
	return ig.applyOp(ig.pending, []string{x.ID}, "", nil)
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
	if err := ig.applyOp(ig.pending, added, "", nil); err != nil {
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
	// A singleton's retirement is fused while its member is resident.
	var retired []EntityDelta
	if e := ig.compOf[id]; e != nil && len(e.Members) == 1 {
		ent, err := ig.snapshotEntity(e.Members)
		if err != nil {
			return err
		}
		retired = append(retired, EntityDelta{Kind: EntityRetired, Entity: ent})
	}
	if err := ig.det.Remove(id); err != nil {
		return err
	}
	err := ig.applyOp(ig.pending, nil, id, retired)
	delete(ig.compOf, id)
	return err
}

// snapshotEntity fuses a member group (sorted by ID) from the
// detector's residents into an Entity the caller owns: its Members is
// a copy and its Tuple is built for this call. Events and Flush results
// may be edited by consumers (batch Resolve's output allows it), and
// nothing of them is shared with the live components or with another
// output.
func (ig *Integrator) snapshotEntity(members []string) (Entity, error) {
	return buildEntity(slices.Clone(members), ig.det.Resident)
}

// applyOp folds one operation's match deltas into the live entity
// state in one pass over the touched components, which it tracks by
// identity (pointer), never by entity ID. removed names a tuple the
// detector already dropped, and retired holds its entity's retirement
// when it was the last member (fused by removeLocked before the
// detector dropped it); added lists tuple IDs that became resident in
// this operation.
//
// A component is dirty when an M delta or the removal touches it, and
// refused when a P delta links it to another live component. The
// touched universe — the arrivals plus the dirty components' surviving
// members — is re-grouped over the detector's match partners, which
// already reflect the operation; match edges never cross from a dirty
// component to a clean one, so the walk stays inside the universe.
// Groups are disjoint, so compOf of a group's members still names
// their old components while the group is classified: one source of
// the group's size is kept as is, anything else is installed as a new
// entity (created, merged or split). A dirty component left without a
// survivor is retired. Every component P-adjacent to a new entity holds
// a renamed dup symbol and is refused, unless it is new or replaced.
// Each event's tuple is fused for that event alone.
//
// Events are enqueued in a deterministic order: the retirement, then
// membership changes, then refusals, each sorted by entity ID.
func (ig *Integrator) applyOp(deltas []core.MatchDelta, added []string, removed string, retired []EntityDelta) error {
	dirty := map[*Entity]bool{}
	refused := map[*Entity]bool{}
	for _, md := range deltas {
		a, b := ig.compOf[md.Pair.A], ig.compOf[md.Pair.B]
		switch {
		case md.Class == decision.M:
			for _, e := range [2]*Entity{a, b} {
				if e != nil {
					dirty[e] = true
				}
			}
		case md.Class == decision.P && a != nil && b != nil && a != b:
			// An endpoint without a component is a fresh arrival the
			// regrouping covers; an intra-component possible match
			// carries no uncertainty in the result.
			refused[a], refused[b] = true, true
		}
	}
	if e := ig.compOf[removed]; e != nil {
		dirty[e] = true
	}

	touched := append([]string(nil), added...)
	for e := range dirty {
		for _, m := range e.Members {
			if m != removed {
				touched = append(touched, m)
			}
		}
	}
	var changes []EntityDelta
	var built []*Entity
	for _, members := range ig.regroup(touched) {
		var srcs []*Entity
		old := 0
		for _, m := range members {
			if e := ig.compOf[m]; e != nil {
				old++
				if !slices.Contains(srcs, e) {
					srcs = append(srcs, e)
				}
			}
		}
		if len(srcs) == 1 && old == len(members) && len(srcs[0].Members) == len(members) {
			delete(dirty, srcs[0]) // kept: an M edge inside it changed nothing
			continue
		}
		ent, err := ig.snapshotEntity(members)
		if err != nil {
			return fmt.Errorf("resolve: re-fusing component %v: %w", members, err)
		}
		built = append(built, ig.install(members))
		ev := EntityDelta{Kind: EntityCreated, Entity: ent}
		if old > 0 {
			ev.Kind = EntitySplit
			if len(srcs) >= 2 || old < len(members) {
				ev.Kind = EntityMerged
			}
			for _, src := range srcs {
				ev.From = append(ev.From, src.ID)
			}
			sort.Strings(ev.From)
		}
		changes = append(changes, ev)
	}
	// dirty now holds the replaced components and the retired one: the
	// removed tuple's, when it was its only member.
	ig.ncomps -= len(dirty)

	var partners []string
	for _, e := range built {
		for _, m := range e.Members {
			partners = core.Partners(ig.det, partners[:0], m, decision.P)
			for _, n := range partners {
				if cn := ig.compOf[n]; cn != nil && cn != e {
					refused[cn] = true
				}
			}
		}
	}
	for _, e := range built {
		delete(refused, e)
	}
	var refusals []EntityDelta
	for e := range refused {
		if !dirty[e] {
			ent, err := ig.snapshotEntity(e.Members)
			if err != nil {
				return err
			}
			refusals = append(refusals, EntityDelta{Kind: EntityRefused, Entity: ent})
		}
	}
	byID := func(a, b EntityDelta) int { return strings.Compare(a.Entity.ID, b.Entity.ID) }
	slices.SortFunc(changes, byID)
	slices.SortFunc(refusals, byID)
	ig.enqueueEvents(append(append(retired, changes...), refusals...))
	return nil
}

// regroup partitions the touched tuple IDs into connected components
// over the detector's match partners, deterministically: seeds in
// sorted order, each group's members sorted.
func (ig *Integrator) regroup(ids []string) [][]string {
	sort.Strings(ids)
	assigned := map[string]bool{}
	var groups [][]string
	for _, id := range ids {
		if assigned[id] {
			continue
		}
		var members []string
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
	return groups
}

// install makes one member group (sorted by ID) a live component — its
// entity ID and members, no fused tuple — and points every member at
// it: the one step by which both applyOp and RestoreIntegrator create
// components.
func (ig *Integrator) install(members []string) *Entity {
	e := &Entity{ID: strings.Join(members, "+"), Members: members}
	for _, m := range members {
		ig.compOf[m] = e
	}
	ig.ncomps++
	return e
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
// and the lineage-annotated result relation. Every entity is fused from
// the residents for this call (the uncertain-duplicate merges read
// those tuples), so the cost is that of batch Resolve's fusion step.
func (ig *Integrator) Flush() (*Resolution, error) {
	ig.mu.Lock()
	defer ig.mu.Unlock()
	seen := map[*Entity]bool{}
	var groups [][]string
	for _, e := range ig.compOf {
		if !seen[e] {
			seen[e] = true
			groups = append(groups, slices.Clone(e.Members))
		}
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i][0] < groups[j][0] })
	return resolveGroups(groups, ig.det.Resident, possibleOf(ig.det.Flush()), ig.cal)
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
