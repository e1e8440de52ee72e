package ssr

import (
	"math/rand"
	"sort"
	"strconv"

	"probdedup/internal/cluster"
	"probdedup/internal/fusion"
	"probdedup/internal/pdb"
	"probdedup/internal/verify"
	"probdedup/internal/worlds"
)

// Streamer is a Method that can enumerate its candidate pairs one at a
// time instead of materializing them as a set. Every pair is yielded
// exactly once (in canonical order, see verify.NewPair); enumeration
// stops early when yield returns false.
//
// All reduction methods of this package implement Streamer. Candidates
// is layered on EnumeratePairs, so the streamed and the materialized
// pair sets are identical by construction.
//
// Most streamers run in memory proportional to the relation. Two are
// algorithm-bound exceptions: SNMMultiPass and SNMAlternatives keep
// the paper's executed-matching set (Fig. 12) while enumerating, which
// grows with the emitted pair count; the StreamOf adapter for plain
// Methods materializes Candidates once before replaying it.
type Streamer interface {
	Method
	// EnumeratePairs yields each candidate pair once. It returns false
	// if a yield call stopped the enumeration early, true otherwise.
	EnumeratePairs(xr *pdb.XRelation, yield func(verify.Pair) bool) bool
}

// Partition is one independent unit of candidate enumeration: a block
// whose pairs can be enumerated (and compared) concurrently with every
// other partition. Partitions of one Partitions() call never yield the
// same pair twice, so no cross-partition deduplication is needed.
type Partition struct {
	// Label identifies the partition (typically the block key).
	Label string
	// Size is the number of member tuples.
	Size int
	// Enumerate yields the partition's candidate pairs; it returns
	// false if a yield call stopped the enumeration early.
	Enumerate func(yield func(verify.Pair) bool) bool
}

// Partitioner is a Method whose search space decomposes into
// independent partitions — the blocking variants of Sec. V-B. The
// detection engine enumerates them one after another and reports
// their count (core.StreamStats.Partitions).
type Partitioner interface {
	Method
	// Partitions splits the candidate space into independent units.
	// The union of all partitions equals Candidates, without overlap.
	Partitions(xr *pdb.XRelation) []Partition
}

// TotalPairs returns the size n(n-1)/2 of the unreduced search space
// over n tuples, in O(1) — use this instead of len(AllPairs(xr)) when
// only the count is needed.
func TotalPairs(n int) int { return n * (n - 1) / 2 }

// StreamOf returns m itself when it already streams, or an adapter
// that materializes m.Candidates once and replays the set. The adapter
// keeps arbitrary user-defined Methods usable with the streaming
// engine; its enumeration order is unspecified. A nil method means no
// reduction and streams the cross product, mirroring the detection
// engine's default.
func StreamOf(m Method) Streamer {
	if m == nil {
		return CrossProduct{}
	}
	if s, ok := m.(Streamer); ok {
		return s
	}
	return adaptedStreamer{m}
}

type adaptedStreamer struct{ Method }

func (a adaptedStreamer) EnumeratePairs(xr *pdb.XRelation, yield func(verify.Pair) bool) bool {
	for p := range a.Method.Candidates(xr) {
		if !yield(p) {
			return false
		}
	}
	return true
}

// collectPairs materializes a stream into a PairSet — the shared
// implementation of every method's Candidates.
func collectPairs(s Streamer, xr *pdb.XRelation) verify.PairSet {
	out := verify.PairSet{}
	s.EnumeratePairs(xr, func(p verify.Pair) bool {
		out[p] = true
		return true
	})
	return out
}

// windowStream slides a window of the given size over ordered tuple
// IDs and yields all pairs of IDs co-occurring in a window. Same-ID
// pairs are skipped. When every ID occurs once in ids (SNMCertain,
// SNMRanked), each unordered pair is yielded at most once.
func windowStream(ids []string, window int, yield func(verify.Pair) bool) bool {
	if window < 2 {
		window = 2
	}
	for i := range ids {
		lo := i - (window - 1)
		if lo < 0 {
			lo = 0
		}
		for j := lo; j < i; j++ {
			if ids[j] != ids[i] {
				if !yield(verify.NewPair(ids[j], ids[i])) {
					return false
				}
			}
		}
	}
	return true
}

// dedupYield wraps yield with an executed-matching set (Fig. 12): a
// pair already seen is skipped instead of yielded again. Used by the
// variants whose raw window passes can revisit a pair (multi-pass over
// worlds, per-alternative keys).
func dedupYield(seen verify.PairSet, yield func(verify.Pair) bool) func(verify.Pair) bool {
	return func(p verify.Pair) bool {
		if seen[p] {
			return true
		}
		seen[p] = true
		return yield(p)
	}
}

// ---- Streamer implementations ----

// EnumeratePairs implements Streamer.
func (CrossProduct) EnumeratePairs(xr *pdb.XRelation, yield func(verify.Pair) bool) bool {
	for i := 0; i < len(xr.Tuples); i++ {
		for j := i + 1; j < len(xr.Tuples); j++ {
			if !yield(verify.NewPair(xr.Tuples[i].ID, xr.Tuples[j].ID)) {
				return false
			}
		}
	}
	return true
}

// EnumeratePairs implements Streamer. The executed-matching set spans
// the per-world passes, so a pair found in several worlds is yielded
// once.
func (m SNMMultiPass) EnumeratePairs(xr *pdb.XRelation, yield func(verify.Pair) bool) bool {
	y := dedupYield(verify.PairSet{}, yield)
	for _, w := range m.selectWorlds(xr) {
		r := worlds.Materialize(xr, w)
		if !windowStream(sortedIDsByKey(r, m.Key), m.Window, y) {
			return false
		}
	}
	return true
}

// selectWorlds picks the world subset the multi-pass method visits.
func (m SNMMultiPass) selectWorlds(xr *pdb.XRelation) []worlds.World {
	switch m.Select {
	case TopWorlds:
		return worlds.TopK(xr, true, m.K)
	case DissimilarWorlds:
		return worlds.Dissimilar(xr, true, m.K, 4*m.K)
	default:
		limit := m.MaxWorlds
		if limit <= 0 {
			limit = 100_000
		}
		all, err := worlds.Enumerate(xr, true, limit)
		if err != nil {
			// Fall back to the most probable worlds when enumeration is
			// infeasible; the method stays total.
			all = worlds.TopK(xr, true, 1024)
		}
		return all
	}
}

// EnumeratePairs implements Streamer. Each tuple occurs once in the
// conflict-resolved ordering, so no deduplication is needed.
func (m SNMCertain) EnumeratePairs(xr *pdb.XRelation, yield func(verify.Pair) bool) bool {
	strategy := m.Strategy
	if strategy == nil {
		strategy = fusion.MostProbable{}
	}
	return windowStream(sortedIDsByResolvedKey(xr, strategy, m.Key), m.Window, yield)
}

// EnumeratePairs implements Streamer. A tuple occurs once per distinct
// alternative key, so the executed-matching set (Fig. 12) prevents a
// pair from being yielded twice.
func (m SNMAlternatives) EnumeratePairs(xr *pdb.XRelation, yield func(verify.Pair) bool) bool {
	kept := m.SortedEntries(xr)
	ids := make([]string, len(kept))
	for i, e := range kept {
		ids[i] = e.ID
	}
	return windowStream(ids, m.Window, dedupYield(verify.PairSet{}, yield))
}

// EnumeratePairs implements Streamer. Each tuple occurs once in the
// ranked ordering, so no deduplication is needed.
func (m SNMRanked) EnumeratePairs(xr *pdb.XRelation, yield func(verify.Pair) bool) bool {
	return windowStream(m.RankedIDs(xr), m.Window, yield)
}

// EnumeratePairs implements Streamer.
func (m BlockingCertain) EnumeratePairs(xr *pdb.XRelation, yield func(verify.Pair) bool) bool {
	return enumeratePartitions(m.Partitions(xr), yield)
}

// EnumeratePairs implements Streamer.
func (m BlockingAlternatives) EnumeratePairs(xr *pdb.XRelation, yield func(verify.Pair) bool) bool {
	return enumeratePartitions(m.Partitions(xr), yield)
}

// EnumeratePairs implements Streamer.
func (m BlockingCluster) EnumeratePairs(xr *pdb.XRelation, yield func(verify.Pair) bool) bool {
	return enumeratePartitions(m.Partitions(xr), yield)
}

// EnumeratePairs implements Streamer.
func (p Pruning) EnumeratePairs(xr *pdb.XRelation, yield func(verify.Pair) bool) bool {
	perTuple := p.lengthProfiles(xr)
	for i := 0; i < len(xr.Tuples); i++ {
		for j := i + 1; j < len(xr.Tuples); j++ {
			if compatibleLengths(p.MaxDiff, perTuple[i], perTuple[j]) {
				if !yield(verify.NewPair(xr.Tuples[i].ID, xr.Tuples[j].ID)) {
					return false
				}
			}
		}
	}
	return true
}

// EnumeratePairs implements Streamer: the inner method's stream is
// filtered pair by pair against the precomputed length profiles, so
// neither side is materialized.
func (f Filter) EnumeratePairs(xr *pdb.XRelation, yield func(verify.Pair) bool) bool {
	keep := f.Prune.keepFunc(xr)
	return StreamOf(f.Inner).EnumeratePairs(xr, func(p verify.Pair) bool {
		if !keep(p.A, p.B) {
			return true
		}
		return yield(p)
	})
}

// ---- Partitioner implementations (blocking variants) ----

// enumeratePartitions streams the partitions sequentially.
func enumeratePartitions(parts []Partition, yield func(verify.Pair) bool) bool {
	for _, part := range parts {
		if !part.Enumerate(yield) {
			return false
		}
	}
	return true
}

// blockPartition builds the partition of one disjoint block: all
// intra-block pairs.
func blockPartition(label string, members []string) Partition {
	return Partition{
		Label: label,
		Size:  len(members),
		Enumerate: func(yield func(verify.Pair) bool) bool {
			for i := 0; i < len(members); i++ {
				for j := i + 1; j < len(members); j++ {
					if members[i] != members[j] {
						if !yield(verify.NewPair(members[i], members[j])) {
							return false
						}
					}
				}
			}
			return true
		},
	}
}

// disjointPartitions converts a map of disjoint blocks into partitions
// in deterministic (sorted-label) order, skipping singleton blocks.
func disjointPartitions(blocks map[string][]string) []Partition {
	labels := make([]string, 0, len(blocks))
	for k := range blocks {
		if len(blocks[k]) > 1 {
			labels = append(labels, k)
		}
	}
	sort.Strings(labels)
	parts := make([]Partition, len(labels))
	for i, k := range labels {
		parts[i] = blockPartition(k, blocks[k])
	}
	return parts
}

// Partitions implements Partitioner: conflict-resolved keys yield
// disjoint blocks. The keys are computed tuple by tuple, without
// materializing the resolved relation.
func (m BlockingCertain) Partitions(xr *pdb.XRelation) []Partition {
	strategy := m.Strategy
	if strategy == nil {
		strategy = fusion.MostProbable{}
	}
	blocks := map[string][]string{}
	for _, x := range xr.Tuples {
		k := m.Key.FromValues(strategy.ResolveX(x))
		blocks[k] = append(blocks[k], x.ID)
	}
	return disjointPartitions(blocks)
}

// Partitions implements Partitioner: one block per cluster of the
// uncertain key values (disjoint by construction).
func (m BlockingCluster) Partitions(xr *pdb.XRelation) []Partition {
	items := make([]cluster.Item, len(xr.Tuples))
	for i, x := range xr.Tuples {
		items[i] = cluster.Item{ID: x.ID, Keys: m.Key.XTupleKeyDist(x, true)}
	}
	c := m.clusterItems(items)
	blocks := map[string][]string{}
	for i, b := range c.Assign {
		label := "b" + strconv.Itoa(b)
		blocks[label] = append(blocks[label], items[i].ID)
	}
	return disjointPartitions(blocks)
}

// clusterItems is the method's one clustering recipe, shared by the batch
// partitions and the incremental reseal: UK-means over the items in
// order, K clusters (len/8, at least 2, when K ≤ 0) and a fresh rng from
// Seed.
func (m BlockingCluster) clusterItems(items []cluster.Item) cluster.Clustering {
	k := m.K
	if k <= 0 {
		k = max(len(items)/8, 2)
	}
	return cluster.UKMeans(items, k, 0, rand.New(rand.NewSource(m.Seed)))
}

// Partitions implements Partitioner. An x-tuple joins the block of
// every alternative key value (Fig. 14), so two tuples can share more
// than one block; a pair is yielded only in the lexicographically
// smallest key block the two tuples share. That canonical-block rule
// makes the partitions overlap-free without a global executed set, so
// blocks stay independently enumerable.
func (m BlockingAlternatives) Partitions(xr *pdb.XRelation) []Partition {
	blocks := m.Blocks(xr)
	// Per tuple, the sorted list of keys under which it was blocked.
	keysOf := make(map[string][]string, len(xr.Tuples))
	for k, members := range blocks {
		for _, id := range members {
			keysOf[id] = append(keysOf[id], k)
		}
	}
	for _, ks := range keysOf {
		sort.Strings(ks)
	}
	labels := make([]string, 0, len(blocks))
	for k, members := range blocks {
		if len(members) > 1 {
			labels = append(labels, k)
		}
	}
	sort.Strings(labels)
	parts := make([]Partition, len(labels))
	for i, k := range labels {
		label, members := k, blocks[k]
		parts[i] = Partition{
			Label: label,
			Size:  len(members),
			Enumerate: func(yield func(verify.Pair) bool) bool {
				for i := 0; i < len(members); i++ {
					for j := i + 1; j < len(members); j++ {
						if members[i] == members[j] {
							continue
						}
						if first, ok := firstCommonKey(keysOf[members[i]], keysOf[members[j]]); !ok || first != label {
							continue
						}
						if !yield(verify.NewPair(members[i], members[j])) {
							return false
						}
					}
				}
				return true
			},
		}
	}
	return parts
}

// firstCommonKey merge-walks two sorted key lists and returns their
// smallest common element.
func firstCommonKey(a, b []string) (string, bool) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return a[i], true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return "", false
}

// Interface conformance checks.
var (
	_ Streamer = CrossProduct{}
	_ Streamer = SNMMultiPass{}
	_ Streamer = SNMCertain{}
	_ Streamer = SNMAlternatives{}
	_ Streamer = SNMRanked{}
	_ Streamer = BlockingCertain{}
	_ Streamer = BlockingAlternatives{}
	_ Streamer = BlockingCluster{}
	_ Streamer = Pruning{}
	_ Streamer = Filter{}

	_ Partitioner = BlockingCertain{}
	_ Partitioner = BlockingAlternatives{}
	_ Partitioner = BlockingCluster{}
)
