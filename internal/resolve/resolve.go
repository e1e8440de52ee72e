// Package resolve turns pairwise duplicate decisions into an integrated
// probabilistic result — the entity-resolution / data-fusion step the
// paper's Sec. VI sketches:
//
//   - declared matches (set M) are grouped into entities by transitive
//     closure and fused into single probabilistic x-tuples,
//   - possible matches (set P) across entities are kept as *uncertain
//     duplicates*: the result contains both the merged representation and
//     the separate representations as mutually exclusive sets of tuples,
//     wired up with ULDB-style lineage over a "dup(a,b)" symbol whose
//     probability is calibrated from the pair's similarity.
//
// Resolve is the batch form. Integrator is the online form over a
// composed core.Detector: it folds the detector's match deltas into
// live entity components and owns nothing else per tuple — the
// resident tuples, the M and P partners and the pair decisions are
// read from the detector (core.Detector.Resident, core.Partners,
// core.Detector.Flush), so the live pair graph exists once.
package resolve

import (
	"fmt"
	"slices"
	"sort"

	"probdedup/internal/core"
	"probdedup/internal/decision"
	"probdedup/internal/fusion"
	"probdedup/internal/lineage"
	"probdedup/internal/pdb"
	"probdedup/internal/verify"
)

// Calibration maps a derived similarity to the probability that the pair
// is truly a duplicate (used for possible matches). It must return values
// in [0,1].
type Calibration func(sim float64) float64

// LinearCalibration interpolates linearly between the thresholds: sim ≤ Tλ
// maps to lo, sim ≥ Tμ maps to hi. The default for Resolve uses lo=0.1 and
// hi=0.9 — a possible match near Tμ is an almost-certain duplicate.
func LinearCalibration(t decision.Thresholds, lo, hi float64) Calibration {
	return func(sim float64) float64 {
		switch {
		case t.Mu == t.Lambda && sim == t.Lambda:
			return (lo + hi) / 2
		case sim <= t.Lambda:
			return lo
		case sim >= t.Mu:
			return hi
		default:
			frac := (sim - t.Lambda) / (t.Mu - t.Lambda)
			return lo + frac*(hi-lo)
		}
	}
}

// Entity is one resolved real-world entity.
type Entity struct {
	// ID is the fused tuple ID (member IDs joined with '+').
	ID string
	// Members are the source tuple IDs merged into this entity.
	Members []string
	// Tuple is the fused probabilistic representation, symbol-free. An
	// Integrator fuses it for each event and Flush from the members'
	// resident tuples and keeps none.
	Tuple *pdb.XTuple
}

// UncertainDuplicate is a possible match between two resolved entities.
type UncertainDuplicate struct {
	// A and B are entity IDs.
	A, B string
	// Sym is the lineage symbol "dup(A,B)".
	Sym string
	// P is the calibrated duplicate probability.
	P float64
	// Merged is the fused representation valid when Sym is true.
	Merged *pdb.XTuple
}

// LTuple is a result tuple with lineage.
type LTuple struct {
	Tuple   *pdb.XTuple
	Lineage lineage.Expr
}

// Resolution is the integrated probabilistic result.
type Resolution struct {
	// Entities are the fused certain-duplicate groups.
	Entities []Entity
	// Uncertain lists the possible matches retained as uncertainty in the
	// result.
	Uncertain []UncertainDuplicate
	// Universe holds the lineage symbols (one per uncertain duplicate).
	Universe *lineage.Universe
	// Tuples is the lineage-annotated result relation: entities unaffected
	// by uncertain duplicates carry lineage ⊤; an uncertain pair (A,B)
	// contributes merged(A,B) with lineage dup(A,B) and A, B each with
	// lineage ¬dup(A,B).
	Tuples []LTuple
}

// Resolve builds the integrated result from a detection run on the given
// x-relation. cal may be nil (LinearCalibration over opts' final
// thresholds with lo=0.1, hi=0.9 is used).
//
// The result is canonical: member order inside an entity, entity order,
// uncertain-duplicate order and lineage symbol declaration order all
// derive from sorted tuple/entity IDs, so the same resident tuples and
// the same match sets produce the same Resolution regardless of tuple
// order or map iteration — the contract the incremental Integrator's
// Flush reproduces.
func Resolve(xr *pdb.XRelation, res *core.Result, final decision.Thresholds, cal Calibration) (*Resolution, error) {
	if cal == nil {
		cal = LinearCalibration(final, 0.1, 0.9)
	}
	byID := make(map[string]*pdb.XTuple, len(xr.Tuples))
	ids := make([]string, 0, len(xr.Tuples))
	for _, x := range xr.Tuples {
		byID[x.ID] = x
		ids = append(ids, x.ID)
	}
	lookup := func(id string) (*pdb.XTuple, bool) {
		x, ok := byID[id]
		return x, ok
	}

	// 1. Transitive closure over declared matches.
	return resolveGroups(matchGroups(ids, res.Matches), lookup, possibleOf(res), cal)
}

// resolveGroups runs the steps batch Resolve and Integrator.Flush share
// on member groups in matchGroups' canonical order: one fused entity per
// group (step 2), then the uncertain duplicates, lineage and result
// relation (steps 3+4, finishResolution).
func resolveGroups(groups [][]string, lookup func(string) (*pdb.XTuple, bool), possible map[verify.Pair]core.Match, cal Calibration) (*Resolution, error) {
	r := &Resolution{Universe: lineage.NewUniverse()}
	for _, members := range groups {
		e, err := buildEntity(members, lookup)
		if err != nil {
			return nil, err
		}
		r.Entities = append(r.Entities, e)
	}
	if err := finishResolution(r, possible, cal); err != nil {
		return nil, err
	}
	return r, nil
}

// matchGroups partitions the tuple IDs into transitive-closure groups
// over the declared matches. Each group is sorted by tuple ID and the
// groups are sorted by their smallest member — the canonical order
// every caller (batch and incremental) agrees on.
func matchGroups(ids []string, matches verify.PairSet) [][]string {
	uf := newUnionFind()
	for _, id := range ids {
		uf.add(id)
	}
	for p := range matches {
		uf.union(p.A, p.B)
	}
	groups := map[string][]string{}
	for _, id := range ids {
		root := uf.find(id)
		groups[root] = append(groups[root], id)
	}
	out := make([][]string, 0, len(groups))
	for _, members := range groups {
		sort.Strings(members)
		out = append(out, members)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// possibleOf extracts the possible matches of a detection result as a
// pair → match map, the form the per-component steps consume.
func possibleOf(res *core.Result) map[verify.Pair]core.Match {
	possible := make(map[verify.Pair]core.Match, len(res.Possible))
	for p := range res.Possible {
		possible[p] = res.ByPair[p]
	}
	return possible
}

// buildEntity fuses one member group (sorted by ID) into an Entity —
// the per-component unit of step 2, reused by the incremental
// Integrator to fuse the entity of each event it emits. lookup finds a
// member tuple by ID: batch Resolve's map, or the Integrator's detector
// (core.Detector.Resident).
func buildEntity(members []string, lookup func(string) (*pdb.XTuple, bool)) (Entity, error) {
	fused, err := fuseMembers(members, lookup)
	if err != nil {
		return Entity{}, err
	}
	return Entity{ID: fused.ID, Members: members, Tuple: fused}, nil
}

// finishResolution derives the cross-entity sections of a Resolution
// whose Entities are already built: uncertain duplicates with lineage
// symbols (step 3) and the lineage-annotated result relation (step 4).
// possible holds the detection run's possible matches per pair. The
// output is deterministic: uncertain pairs are processed in sorted
// entity-ID order, which also fixes the universe's declaration order
// and the ¬dup conjunction order of every entity's lineage.
func finishResolution(r *Resolution, possible map[verify.Pair]core.Match, cal Calibration) error {
	// Index the entities once, after the slice has stopped growing (so
	// the pointers stay valid): by entity ID for the merge lookups of
	// step 3, and by member tuple ID for mapping possible matches to
	// entities.
	entitiesByID := make(map[string]*Entity, len(r.Entities))
	entityOf := map[string]*Entity{} // source tuple ID → entity
	for i := range r.Entities {
		e := &r.Entities[i]
		entitiesByID[e.ID] = e
		for _, m := range e.Members {
			entityOf[m] = e
		}
	}

	// 3. Possible matches across distinct entities become uncertain
	// duplicates with lineage. Multiple P pairs between the same two
	// entities collapse to the strongest one.
	strongest := map[verify.Pair]core.Match{}
	for p, m := range possible {
		ea, eb := entityOf[p.A], entityOf[p.B]
		if ea == nil || eb == nil || ea.ID == eb.ID {
			continue
		}
		key := verify.NewPair(ea.ID, eb.ID)
		if cur, ok := strongest[key]; !ok || m.Sim > cur.Sim {
			strongest[key] = m
		}
	}
	var keys []verify.Pair
	for k := range strongest {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, verify.ComparePairs)
	uncertainEntity := map[string]lineage.Expr{} // entity ID → ¬dup ∧ ¬dup …
	for _, key := range keys {
		m := strongest[key]
		ea, eb := key.A, key.B
		symID := fmt.Sprintf("dup(%s,%s)", ea, eb)
		p := cal(m.Sim)
		sym, err := r.Universe.Declare(symID, p)
		if err != nil {
			return err
		}
		merged, err := fusion.MergeXTuples(ea+"+"+eb, entitiesByID[ea].Tuple, entitiesByID[eb].Tuple, 1, 1)
		if err != nil {
			return err
		}
		r.Uncertain = append(r.Uncertain, UncertainDuplicate{
			A: ea, B: eb, Sym: symID, P: p, Merged: merged,
		})
		r.Tuples = append(r.Tuples, LTuple{Tuple: merged, Lineage: sym})
		for _, eid := range []string{ea, eb} {
			neg := lineage.Not(lineage.Var(symID))
			if ex, ok := uncertainEntity[eid]; ok {
				uncertainEntity[eid] = lineage.And(ex, neg)
			} else {
				uncertainEntity[eid] = neg
			}
		}
	}

	// 4. Entity tuples: lineage ⊤ unless touched by an uncertain duplicate.
	for i := range r.Entities {
		e := &r.Entities[i]
		lin, ok := uncertainEntity[e.ID]
		if !ok {
			lin = lineage.True
		}
		r.Tuples = append(r.Tuples, LTuple{Tuple: e.Tuple, Lineage: lin})
	}
	return nil
}

// fuseMembers merges the member tuples pairwise with equal source
// weights, folding in the canonical sorted-ID order the members arrive
// in — never in map-iteration order, so two runs over the same input
// produce bit-identical fused tuples. The fused ID is the member IDs
// joined with '+'. The fused prefix of i members carries weight i
// against the next member's 1, so every member weighs the same.
func fuseMembers(members []string, lookup func(string) (*pdb.XTuple, bool)) (*pdb.XTuple, error) {
	var cur *pdb.XTuple
	for i, m := range members {
		x, ok := lookup(m)
		if !ok {
			return nil, fmt.Errorf("resolve: entity member %q is not resident", m)
		}
		if i == 0 {
			cur = deannotate(x)
			continue
		}
		next, err := fusion.MergeXTuples(cur.ID+"+"+m, cur, deannotate(x), float64(i), 1)
		if err != nil {
			return nil, err
		}
		cur = next
	}
	return cur, nil
}

// deannotate deep-copies a member tuple with engine-internal value
// annotations (interned symbols, see internal/sym) stripped. Fused
// tuples are derived artifacts: they must compare bit-identical across
// pipelines regardless of which detection engine — batch, online, or
// none — held the members, and symbol annotations are engine-local.
func deannotate(x *pdb.XTuple) *pdb.XTuple {
	y := x.Clone()
	for ai := range y.Alts {
		vals := y.Alts[ai].Values
		for i := range vals {
			vals[i] = vals[i].Annotate(func(v pdb.Value) pdb.Value { return pdb.V(v.S()) })
		}
	}
	return y
}

// Confidence returns P(tuple in result) for a lineage-annotated tuple.
func (r *Resolution) Confidence(t LTuple) (float64, error) {
	return r.Universe.Probability(t.Lineage)
}

// CheckExclusive verifies the Sec. VI invariant: for every uncertain
// duplicate, the merged tuple and each separate entity tuple are mutually
// exclusive.
func (r *Resolution) CheckExclusive() error {
	byTupleID := map[string]LTuple{}
	for _, t := range r.Tuples {
		byTupleID[t.Tuple.ID] = t
	}
	for _, ud := range r.Uncertain {
		merged := byTupleID[ud.Merged.ID]
		for _, eid := range []string{ud.A, ud.B} {
			sep, ok := byTupleID[eid]
			if !ok {
				return fmt.Errorf("resolve: entity %s missing from result", eid)
			}
			ex, err := r.Universe.MutuallyExclusive(merged.Lineage, sep.Lineage)
			if err != nil {
				return err
			}
			if !ex {
				return fmt.Errorf("resolve: %s and %s are not mutually exclusive", ud.Merged.ID, eid)
			}
		}
	}
	return nil
}

// unionFind is a tiny disjoint-set structure over string IDs.
type unionFind struct {
	parent map[string]string
	rank   map[string]int
}

func newUnionFind() *unionFind {
	return &unionFind{parent: map[string]string{}, rank: map[string]int{}}
}

func (u *unionFind) add(id string) {
	if _, ok := u.parent[id]; !ok {
		u.parent[id] = id
	}
}

func (u *unionFind) find(id string) string {
	for u.parent[id] != id {
		u.parent[id] = u.parent[u.parent[id]]
		id = u.parent[id]
	}
	return id
}

func (u *unionFind) union(a, b string) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
}
