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

// TotalPairs returns the size n(n-1)/2 of the unreduced search space
// over n tuples, in O(1) — use this instead of len(AllPairs(xr)) when
// only the count is needed.
func TotalPairs(n int) int { return n * (n - 1) / 2 }

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

// ---- Enumerations ----

// EnumeratePairs implements Method.
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

// EnumeratePairs implements Method. The executed-matching set spans
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

// EnumeratePairs implements Method. Each tuple occurs once in the
// conflict-resolved ordering, so no deduplication is needed.
func (m SNMCertain) EnumeratePairs(xr *pdb.XRelation, yield func(verify.Pair) bool) bool {
	strategy := m.Strategy
	if strategy == nil {
		strategy = fusion.MostProbable{}
	}
	return windowStream(sortedIDsByResolvedKey(xr, strategy, m.Key), m.Window, yield)
}

// EnumeratePairs implements Method. A tuple occurs once per distinct
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

// EnumeratePairs implements Method. Each tuple occurs once in the
// ranked ordering, so no deduplication is needed.
func (m SNMRanked) EnumeratePairs(xr *pdb.XRelation, yield func(verify.Pair) bool) bool {
	return windowStream(m.RankedIDs(xr), m.Window, yield)
}

// ---- Blocking (Sec. V-B) ----

// enumerateBlocks yields the pairs of distinct members within each
// block of two or more members: block by block in sorted-label order,
// in member order within a block. own, when non-nil, keeps only the
// pairs it assigns to the block, so blocks that share members yield no
// pair twice; disjoint blocks pass nil.
func enumerateBlocks(blocks map[string][]string, own func(label, a, b string) bool, yield func(verify.Pair) bool) bool {
	labels := make([]string, 0, len(blocks))
	for k, members := range blocks {
		if len(members) > 1 {
			labels = append(labels, k)
		}
	}
	sort.Strings(labels)
	for _, label := range labels {
		members := blocks[label]
		for i, a := range members {
			for _, b := range members[i+1:] {
				if a == b || (own != nil && !own(label, a, b)) {
					continue
				}
				if !yield(verify.NewPair(a, b)) {
					return false
				}
			}
		}
	}
	return true
}

// EnumeratePairs implements Method: conflict-resolved keys yield
// disjoint blocks. The keys are computed tuple by tuple, without
// materializing the resolved relation.
func (m BlockingCertain) EnumeratePairs(xr *pdb.XRelation, yield func(verify.Pair) bool) bool {
	strategy := m.Strategy
	if strategy == nil {
		strategy = fusion.MostProbable{}
	}
	blocks := map[string][]string{}
	for _, x := range xr.Tuples {
		k := m.Key.FromValues(strategy.ResolveX(x))
		blocks[k] = append(blocks[k], x.ID)
	}
	return enumerateBlocks(blocks, nil, yield)
}

// EnumeratePairs implements Method: one block per cluster of the
// uncertain key values (disjoint by construction).
func (m BlockingCluster) EnumeratePairs(xr *pdb.XRelation, yield func(verify.Pair) bool) bool {
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
	return enumerateBlocks(blocks, nil, yield)
}

// clusterItems is the method's one clustering recipe, shared by the batch
// enumeration and the incremental reseal: UK-means over the items in
// order, K clusters (len/8, at least 2, when K ≤ 0) and a fresh rng from
// Seed.
func (m BlockingCluster) clusterItems(items []cluster.Item) cluster.Clustering {
	k := m.K
	if k <= 0 {
		k = max(len(items)/8, 2)
	}
	return cluster.UKMeans(items, k, 0, rand.New(rand.NewSource(m.Seed)))
}

// EnumeratePairs implements Method. An x-tuple joins the block of
// every alternative key value (Fig. 14), so two tuples can share more
// than one block; a pair is yielded only in the lexicographically
// smallest key block the two tuples share. That canonical-block rule
// makes the blocks overlap-free without a global executed set.
func (m BlockingAlternatives) EnumeratePairs(xr *pdb.XRelation, yield func(verify.Pair) bool) bool {
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
	return enumerateBlocks(blocks, func(label, a, b string) bool {
		first, ok := firstCommonKey(keysOf[a], keysOf[b])
		return ok && first == label
	}, yield)
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
