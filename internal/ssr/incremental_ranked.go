package ssr

import (
	"probdedup/internal/keys"
	"probdedup/internal/pdb"
	"probdedup/internal/rank"
)

// ---- Sorted neighborhood over ranked uncertain keys ----

// snmRankedIndex maintains the exact SNMRanked window pair set online for
// all three rank strategies.
//
// MedianKey and ModeKey order by per-tuple statistics that never change
// once computed, so insertion is a plain ordered splice.
//
// ExpectedRank is the interesting case: a tuple's expected rank depends on
// the whole relation's key-mass table (rank.Universe). The index exploits
// a locality property of the expected-rank semantics: when a tuple with
// key span [lo, hi] arrives or departs, a resident whose own key span lies
// entirely below lo keeps a bit-identical rank, and one entirely above hi
// shifts by exactly one position — and any strictly-above resident already
// ranks at least one full position after any strictly-below one (for s
// strictly below t, every third item contributes at least as much rank
// mass to t as to s, and t gains a full unit from s itself, so
// E[rank(t)] ≥ E[rank(s)] + 1). Both effects preserve relative order, so
// only residents whose span overlaps [lo, hi] ("movers") can change
// position. Movers are plentiful on fuzzy keys (any shared key mass
// overlaps spans) but few of them actually change relative order, so
// after the universe update the index re-checks order only at
// mover-adjacent positions — two non-movers can never reorder, so
// clean mover-adjacent pairs imply the whole sequence is still sorted
// — and splices out exactly the movers caught out of order
// (extractDisordered), re-placing that handful by binary search under
// the new ranks. Every splice goes through the one windowSeq;
// intra-operation churn cancels in the pairNet.
//
// Rank values are evaluated through the same rank.Universe code path the
// batch ExpectedRanks uses, over contributions in the same arrival order,
// so incremental and batch ranks agree bit for bit and the maintained
// order equals the batch RankedIDs order of the residents in insertion
// order.
type snmRankedIndex struct {
	key      keys.Def
	strategy RankStrategy
	seq      windowSeq
	deltas   []PairDelta // the operation's splices, netted by flush
	net      pairNet
	items    map[string]rank.Item
	uni      *rank.Universe           // ExpectedRank only
	own      map[string]rank.OwnStats // per-resident own-mass tables
	sortKey  map[string]string        // MedianKey/ModeKey: static primary key
	rankMemo map[string]float64       // per-operation expected-rank memo
}

// Incremental implements IncrementalMethod.
func (m SNMRanked) Incremental() (IncrementalIndex, error) {
	idx := &snmRankedIndex{
		key:      m.Key,
		strategy: m.Strategy,
		seq:      newWindowSeq(m.Window, seqChunkCap),
		items:    map[string]rank.Item{},
		sortKey:  map[string]string{},
	}
	if m.Strategy == ExpectedRank {
		idx.uni = rank.NewUniverse()
		idx.own = map[string]rank.OwnStats{}
	}
	return idx, nil
}

func (s *snmRankedIndex) Len() int { return s.seq.n }

func itemTopKey(it rank.Item) string {
	if len(it.Keys) == 0 {
		return ""
	}
	return it.Keys[0].Key
}

// rankOf memoizes expected ranks within one operation (the universe is
// stable between mutations, so memoized values stay valid).
func (s *snmRankedIndex) rankOf(id string) float64 {
	if r, ok := s.rankMemo[id]; ok {
		return r
	}
	r := s.uni.RankOfWith(s.items[id], s.own[id])
	s.rankMemo[id] = r
	return r
}

// less is the strategy's strict total order — the same comparator the
// batch RankedIDs sort uses, with the unique tuple ID as final tiebreak.
func (s *snmRankedIndex) less(a, b string) bool {
	switch s.strategy {
	case MedianKey:
		if ka, kb := s.sortKey[a], s.sortKey[b]; ka != kb {
			return ka < kb
		}
		if ta, tb := itemTopKey(s.items[a]), itemTopKey(s.items[b]); ta != tb {
			return ta < tb
		}
		return a < b
	case ModeKey:
		if ka, kb := s.sortKey[a], s.sortKey[b]; ka != kb {
			return ka < kb
		}
		return a < b
	default:
		if ra, rb := s.rankOf(a), s.rankOf(b); ra != rb {
			return ra < rb
		}
		if ta, tb := itemTopKey(s.items[a]), itemTopKey(s.items[b]); ta != tb {
			return ta < tb
		}
		return a < b
	}
}

// place splices id into its sorted position.
func (s *snmRankedIndex) place(id string) {
	p := s.seq.search(func(e seqEntry) bool { return s.less(id, e.id) })
	s.deltas = s.seq.insertAt(p, seqEntry{id: id}, s.deltas)
}

// flush nets the operation's splices and delivers what survives.
func (s *snmRankedIndex) flush(yield func(PairDelta) bool) bool {
	for _, d := range s.deltas {
		s.net.add(d)
	}
	s.deltas = s.deltas[:0]
	return s.net.flush(yield)
}

// locate finds a resident's current position by binary search under the
// strategy order — valid only while the ranks backing the order are
// unchanged since the resident was last placed, which is why every
// splice-out happens before the universe mutates.
func (s *snmRankedIndex) locate(id string) int {
	return s.seq.search(func(e seqEntry) bool { return !s.less(e.id, id) })
}

// moverSet returns the residents whose key span overlaps [lo, hi],
// skipping skipID. Only these can have changed relative expected-rank
// order after the universe mutation.
func (s *snmRankedIndex) moverSet(lo, hi, skipID string) map[string]bool {
	movers := map[string]bool{}
	for e := range s.seq.from(0) {
		if e.id != skipID && rank.SpanOverlaps(s.items[e.id], lo, hi) {
			movers[e.id] = true
		}
	}
	return movers
}

// extractDisordered splices out exactly the movers that ended up out of
// order under the new (post-mutation) ranks, and returns them in
// extraction order for re-placement. Each round scans the adjacent
// pairs involving a mover — two non-movers can never reorder, so clean
// mover-adjacent pairs imply global sortedness — and extracts the
// mover side(s) of every violation; extraction creates new adjacencies,
// so rounds repeat until the scan is clean. Movers that kept their
// order are never touched, which is the common case even when the
// mover set spans most of the relation.
func (s *snmRankedIndex) extractDisordered(movers map[string]bool) []string {
	var out []string
	for {
		var bad []int
		var badIDs []string
		i, prev := 0, ""
		for e := range s.seq.from(0) {
			if i > 0 && (movers[prev] || movers[e.id]) && s.less(e.id, prev) {
				if movers[prev] && (len(bad) == 0 || bad[len(bad)-1] != i-1) {
					bad, badIDs = append(bad, i-1), append(badIDs, prev)
				}
				if movers[e.id] {
					bad, badIDs = append(bad, i), append(badIDs, e.id)
				}
			}
			i, prev = i+1, e.id
		}
		if len(bad) == 0 {
			return out
		}
		for i := len(bad) - 1; i >= 0; i-- {
			out = append(out, badIDs[i])
			s.deltas = s.seq.removeAt(bad[i], s.deltas)
		}
	}
}

func (s *snmRankedIndex) Insert(x *pdb.XTuple, yield func(PairDelta) bool) bool {
	it := rank.Item{ID: x.ID, Keys: s.key.XTupleKeyDist(x, true)}
	if s.strategy == ExpectedRank {
		lo, hi := rank.KeySpan(it)
		movers := s.moverSet(lo, hi, "")
		s.uni.Add(it)
		s.items[x.ID] = it
		s.own[x.ID] = rank.OwnStatsOf(it)
		s.rankMemo = map[string]float64{}
		moved := s.extractDisordered(movers)
		s.place(x.ID)
		for _, id := range moved {
			s.place(id)
		}
	} else {
		s.items[x.ID] = it
		if s.strategy == MedianKey {
			s.sortKey[x.ID] = rank.MedianKey(it)
		} else {
			s.sortKey[x.ID] = itemTopKey(it)
		}
		s.place(x.ID)
	}
	return s.flush(yield)
}

func (s *snmRankedIndex) Remove(id string, yield func(PairDelta) bool) bool {
	it, ok := s.items[id]
	if !ok {
		return true
	}
	if s.strategy == ExpectedRank {
		lo, hi := rank.KeySpan(it)
		idPos := s.locate(id) // old ranks still valid here
		movers := s.moverSet(lo, hi, id)
		s.deltas = s.seq.removeAt(idPos, s.deltas)
		s.uni.Remove(it)
		delete(s.items, id)
		delete(s.own, id)
		s.rankMemo = map[string]float64{}
		for _, mid := range s.extractDisordered(movers) {
			s.place(mid)
		}
	} else {
		s.deltas = s.seq.removeAt(s.locate(id), s.deltas)
		delete(s.items, id)
		delete(s.sortKey, id)
	}
	return s.flush(yield)
}

// Interface conformance check.
var _ IncrementalMethod = SNMRanked{}
