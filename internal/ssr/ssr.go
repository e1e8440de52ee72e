package ssr

import (
	"sort"

	"probdedup/internal/fusion"
	"probdedup/internal/keys"
	"probdedup/internal/pdb"
	"probdedup/internal/rank"
	"probdedup/internal/verify"
)

// Method reduces the search space of an x-relation to candidate pairs,
// which it enumerates one at a time: every engine runs EnumeratePairs,
// and Candidates collects it when a set is wanted.
//
// Most methods enumerate in memory proportional to the relation. Two
// are algorithm-bound exceptions: SNMMultiPass and SNMAlternatives keep
// the paper's executed-matching set (Fig. 12) while enumerating, which
// grows with the emitted pair count.
type Method interface {
	// Name identifies the method in reports and benchmarks.
	Name() string
	// EnumeratePairs yields each candidate pair once, in canonical
	// order (see verify.NewPair). It returns false if a yield call
	// stopped the enumeration early, true otherwise.
	EnumeratePairs(xr *pdb.XRelation, yield func(verify.Pair) bool) bool
}

// orCross returns m, or the cross product for a nil method — the
// detection engine's default reduction.
func orCross(m Method) Method {
	if m == nil {
		return CrossProduct{}
	}
	return m
}

// Candidates collects a method's enumeration into a set; a nil method
// means the cross product.
func Candidates(m Method, xr *pdb.XRelation) verify.PairSet {
	out := verify.PairSet{}
	orCross(m).EnumeratePairs(xr, func(p verify.Pair) bool {
		out[p] = true
		return true
	})
	return out
}

// AllPairs returns every unordered tuple pair of the relation (the
// universe against which reduction is measured).
func AllPairs(xr *pdb.XRelation) []verify.Pair {
	var out []verify.Pair
	for i := 0; i < len(xr.Tuples); i++ {
		for j := i + 1; j < len(xr.Tuples); j++ {
			out = append(out, verify.NewPair(xr.Tuples[i].ID, xr.Tuples[j].ID))
		}
	}
	return out
}

// CrossProduct is the exhaustive baseline: compare everything with
// everything.
type CrossProduct struct{}

// Name implements Method.
func (CrossProduct) Name() string { return "cross-product" }

// sortedIDsByKey sorts the tuples of a certain relation by their key value
// (stable on insertion order) and returns the tuple IDs in sorted order —
// the core of the classical sorted neighborhood method.
func sortedIDsByKey(r *pdb.Relation, def keys.Def) []string {
	ents := make([]KeyEntry, len(r.Tuples))
	for i, t := range r.Tuples {
		ents[i] = KeyEntry{Key: def.FromCertainTuple(t), ID: t.ID}
	}
	return sortEntryIDs(ents)
}

// sortedIDsByResolvedKey orders the x-relation by conflict-resolved keys
// computed tuple by tuple — equivalent to resolving the whole relation
// first (fusion.ResolveRelation) and sorting it, without materializing
// the certain relation.
func sortedIDsByResolvedKey(xr *pdb.XRelation, strategy fusion.Strategy, def keys.Def) []string {
	ents := make([]KeyEntry, len(xr.Tuples))
	for i, x := range xr.Tuples {
		ents[i] = KeyEntry{Key: def.FromValues(strategy.ResolveX(x)), ID: x.ID}
	}
	return sortEntryIDs(ents)
}

// sortEntryIDs stable-sorts the entries by key and projects the IDs.
func sortEntryIDs(ents []KeyEntry) []string {
	sort.SliceStable(ents, func(a, b int) bool { return ents[a].Key < ents[b].Key })
	ids := make([]string, len(ents))
	for i, e := range ents {
		ids[i] = e.ID
	}
	return ids
}

// WorldSelection chooses which possible worlds a multi-pass method visits.
type WorldSelection int

const (
	// AllWorlds enumerates every possible world (guarded by MaxWorlds).
	AllWorlds WorldSelection = iota
	// TopWorlds takes the K most probable worlds.
	TopWorlds
	// DissimilarWorlds takes K highly probable, pairwise dissimilar worlds
	// (Sec. V-A.1's careful selection).
	DissimilarWorlds
)

// SNMMultiPass is approach V-A.1: one sorted-neighborhood pass per selected
// possible world. Only worlds containing all tuples are considered (tuple
// membership must not influence detection), which the conditioned world
// space guarantees.
type SNMMultiPass struct {
	Key keys.Def
	// Window is the number of consecutive entries a pair must fall
	// within; 0 means the minimum window, 2. The detection engines
	// (package core) refuse a negative window and a window of 1; the
	// methods of this package run them as 2.
	Window int
	// Select picks the world subset; K bounds TopWorlds/DissimilarWorlds.
	Select WorldSelection
	K      int
	// MaxWorlds guards full enumeration (default 100000).
	MaxWorlds int
}

// Name implements Method.
func (m SNMMultiPass) Name() string {
	switch m.Select {
	case TopWorlds:
		return "snm-multipass-top"
	case DissimilarWorlds:
		return "snm-multipass-dissimilar"
	default:
		return "snm-multipass-all"
	}
}

// SNMCertain is approach V-A.2: create certain key values by conflict
// resolution, then run the classical single-pass sorted neighborhood
// method. With the MostProbable strategy this equals a single pass over the
// most probable world, so its matchings are a subset of SNMMultiPass's.
type SNMCertain struct {
	Key keys.Def
	// Window is the number of consecutive entries a pair must fall
	// within; 0 means the minimum window, 2. The detection engines
	// (package core) refuse a negative window and a window of 1; the
	// methods of this package run them as 2.
	Window   int
	Strategy fusion.Strategy
}

// Name implements Method.
func (m SNMCertain) Name() string { return "snm-certain" }

// SNMAlternatives is approach V-A.3 (Figs. 11–12): every tuple contributes
// one key value per alternative (identical key values of one tuple merge);
// the combined entry list is sorted; of neighboring entries referencing the
// same tuple all but one are omitted; the window then slides over the
// remaining entries while an executed-matching set prevents matching a pair
// twice.
type SNMAlternatives struct {
	Key keys.Def
	// Window is the number of consecutive entries a pair must fall
	// within; 0 means the minimum window, 2. The detection engines
	// (package core) refuse a negative window and a window of 1; the
	// methods of this package run them as 2.
	Window int
}

// Name implements Method.
func (m SNMAlternatives) Name() string { return "snm-alternatives" }

// SortedEntries exposes the sorted (key, tupleID) list after the
// same-tuple-neighbor omission — the right-hand side of Fig. 11 — mainly
// for tests and the experiment harness.
func (m SNMAlternatives) SortedEntries(xr *pdb.XRelation) []KeyEntry {
	var ents []KeyEntry
	for _, x := range xr.Tuples {
		for _, kp := range m.Key.XTupleKeyDist(x, false) {
			ents = append(ents, KeyEntry{Key: kp.Key, ID: x.ID})
		}
	}
	sort.SliceStable(ents, func(a, b int) bool { return ents[a].Key < ents[b].Key })
	// Omit entries whose predecessor references the same tuple.
	kept := ents[:0]
	for _, e := range ents {
		if n := len(kept); n > 0 && kept[n-1].ID == e.ID {
			continue
		}
		kept = append(kept, e)
	}
	return kept
}

// KeyEntry is one (key value, tuple) row of the sorting-alternatives
// relation.
type KeyEntry struct {
	Key string
	ID  string
}

// SNMRanked is approach V-A.4 (Fig. 13): keep the key values uncertain and
// order the tuples with a probabilistic ranking function (expected rank,
// O(n log n)), then window as usual. Each tuple occurs exactly once in the
// sorted sequence.
type SNMRanked struct {
	Key keys.Def
	// Window is the number of consecutive entries a pair must fall
	// within; 0 means the minimum window, 2. The detection engines
	// (package core) refuse a negative window and a window of 1; the
	// methods of this package run them as 2.
	Window int
	// Strategy selects the ordering: ExpectedRank (default, the paper's
	// ranking-function approach), MedianKey (robust variant) or ModeKey.
	Strategy RankStrategy
}

// Name implements Method.
func (m SNMRanked) Name() string {
	if m.Strategy == ExpectedRank {
		return "snm-ranked"
	}
	return "snm-ranked-" + m.Strategy.String()
}

// RankedIDs returns the tuple IDs in rank order (Fig. 13 right for the
// default expected-rank strategy).
func (m SNMRanked) RankedIDs(xr *pdb.XRelation) []string {
	items := make([]rank.Item, len(xr.Tuples))
	for i, x := range xr.Tuples {
		items[i] = rank.Item{ID: x.ID, Keys: m.Key.XTupleKeyDist(x, true)}
	}
	var order []int
	switch m.Strategy {
	case MedianKey:
		order = rank.MedianOrder(items)
	case ModeKey:
		order = rank.ModeOrder(items)
	default:
		order = rank.Order(items)
	}
	ids := make([]string, len(order))
	for i, idx := range order {
		ids[i] = items[idx].ID
	}
	return ids
}

// BlockingCertain is classical blocking over conflict-resolved certain key
// values (Sec. V-B).
type BlockingCertain struct {
	Key      keys.Def
	Strategy fusion.Strategy
}

// Name implements Method.
func (m BlockingCertain) Name() string { return "blocking-certain" }

// BlockingAlternatives inserts an x-tuple into the block of every key value
// of every alternative (Fig. 14). Multiple insertions of one tuple into the
// same block collapse to one.
type BlockingAlternatives struct {
	Key keys.Def
}

// Name implements Method.
func (m BlockingAlternatives) Name() string { return "blocking-alternatives" }

// Blocks exposes the block structure (key value → member tuple IDs, each
// member once) for tests and the experiment harness.
func (m BlockingAlternatives) Blocks(xr *pdb.XRelation) map[string][]string {
	blocks := map[string][]string{}
	seen := map[string]map[string]bool{}
	for _, x := range xr.Tuples {
		for _, kp := range m.Key.XTupleKeyDist(x, false) {
			if seen[kp.Key] == nil {
				seen[kp.Key] = map[string]bool{}
			}
			if seen[kp.Key][x.ID] {
				continue
			}
			seen[kp.Key][x.ID] = true
			blocks[kp.Key] = append(blocks[kp.Key], x.ID)
		}
	}
	return blocks
}

// BlockingCluster partitions tuples into K blocks by clustering their
// uncertain key values (UK-means over expected key positions), the
// clustering option of Sec. V-B.
type BlockingCluster struct {
	Key keys.Def
	// K is the number of blocks (default: n/8, at least 2).
	K int
	// Seed makes the clustering deterministic.
	Seed int64
}

// Name implements Method.
func (m BlockingCluster) Name() string { return "blocking-cluster" }

// Measure computes the reduction quality of a method (nil: the cross
// product) against ground truth. The method's candidates are
// enumerated, not materialized, and the universe size is computed
// arithmetically.
func Measure(m Method, xr *pdb.XRelation, truth verify.PairSet) verify.Reduction {
	cands, trueIn := 0, 0
	orCross(m).EnumeratePairs(xr, func(p verify.Pair) bool {
		cands++
		if truth[p] {
			trueIn++
		}
		return true
	})
	return verify.Reduction{
		CandidatePairs:   cands,
		TotalPairs:       TotalPairs(len(xr.Tuples)),
		TrueInCandidates: trueIn,
		TrueTotal:        len(truth),
	}
}
