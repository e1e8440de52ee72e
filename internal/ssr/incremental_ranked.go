package ssr

import (
	"slices"

	"probdedup/internal/keys"
	"probdedup/internal/pdb"
	"probdedup/internal/rank"
	"probdedup/internal/verify"
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
// intra-operation churn cancels in the pairNet. The sequence holds
// handles; what the order reads of a resident sits at its handle
// (rankedRes), and the final tiebreak is the tuple ID.
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
	deltas   []seqDelta // the operation's splices, netted by flush
	net      pairNet[verify.Pair]
	res      handleTable[rankedRes]
	uni      *rank.Universe // ExpectedRank only
	epoch    int            // universe mutations so far; dates rank memos
	movers   []bool         // by handle: the operation's movers
	unplaced []uint32       // restored residents not yet in seq (settle)
}

// rankedRes is what the order reads of one resident.
type rankedRes struct {
	item    rank.Item
	own     rank.OwnStats // ExpectedRank: own-mass tables
	sortKey string        // MedianKey/ModeKey: static primary key
	rank    float64       // ExpectedRank: memo, valid while rankAt = epoch
	rankAt  int
}

// Incremental implements IncrementalMethod.
func (m SNMRanked) Incremental() (IncrementalIndex, error) {
	idx := &snmRankedIndex{
		key:      m.Key,
		strategy: m.Strategy,
		seq:      newWindowSeq(m.Window, seqChunkCap),
		res:      newHandleTable[rankedRes](),
		epoch:    1,
	}
	if m.Strategy == ExpectedRank {
		idx.uni = rank.NewUniverse()
	}
	return idx, nil
}

func (s *snmRankedIndex) Len() int { return s.seq.n + len(s.unplaced) }

func itemTopKey(it rank.Item) string {
	if len(it.Keys) == 0 {
		return ""
	}
	return it.Keys[0].Key
}

// rankOf memoizes expected ranks between universe mutations.
func (s *snmRankedIndex) rankOf(h uint32) float64 {
	r := &s.res.vals[h]
	if r.rankAt != s.epoch {
		r.rank, r.rankAt = s.uni.RankOfWith(r.item, r.own), s.epoch
	}
	return r.rank
}

// less is the strategy's strict total order — the same comparator the
// batch RankedIDs sort uses, with the unique tuple ID as final tiebreak.
func (s *snmRankedIndex) less(a, b uint32) bool {
	ra, rb := &s.res.vals[a], &s.res.vals[b]
	switch s.strategy {
	case MedianKey:
		if ra.sortKey != rb.sortKey {
			return ra.sortKey < rb.sortKey
		}
		if ta, tb := itemTopKey(ra.item), itemTopKey(rb.item); ta != tb {
			return ta < tb
		}
	case ModeKey:
		if ra.sortKey != rb.sortKey {
			return ra.sortKey < rb.sortKey
		}
	default:
		if x, y := s.rankOf(a), s.rankOf(b); x != y {
			return x < y
		}
		if ta, tb := itemTopKey(ra.item), itemTopKey(rb.item); ta != tb {
			return ta < tb
		}
	}
	return s.res.ids[a] < s.res.ids[b]
}

// place splices h into its sorted position.
func (s *snmRankedIndex) place(h uint32) {
	p := s.seq.search(func(e seqEntry) bool { return s.less(h, e.h) })
	s.deltas = s.seq.insertAt(p, seqEntry{h: h}, s.deltas)
}

// flush nets the operation's splices and delivers what survives.
func (s *snmRankedIndex) flush(yield func(PairDelta) bool) bool {
	for _, d := range s.deltas {
		p := d.pair(s.res.ids)
		s.net.add(p.Pair, p.Dropped)
	}
	s.deltas = s.deltas[:0]
	return s.net.flush(samePair, yield)
}

// locate finds a resident's current position by binary search under the
// strategy order — valid only while the ranks backing the order are
// unchanged since the resident was last placed, which is why every
// splice-out happens before the universe mutates.
func (s *snmRankedIndex) locate(h uint32) int {
	return s.seq.search(func(e seqEntry) bool { return !s.less(e.h, h) })
}

// markMovers flags the residents in the sequence whose key span overlaps
// [lo, hi]. Only these can have changed relative expected-rank order
// after the universe mutation.
func (s *snmRankedIndex) markMovers(lo, hi string) {
	s.movers = slices.Grow(s.movers[:0], len(s.res.ids))[:len(s.res.ids)]
	clear(s.movers)
	for e := range s.seq.from(0) {
		s.movers[e.h] = rank.SpanOverlaps(s.res.vals[e.h].item, lo, hi)
	}
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
func (s *snmRankedIndex) extractDisordered() []uint32 {
	var out []uint32
	for {
		var bad []int
		var badHs []uint32
		i, prev := 0, uint32(0)
		for e := range s.seq.from(0) {
			if i > 0 && (s.movers[prev] || s.movers[e.h]) && s.less(e.h, prev) {
				if s.movers[prev] && (len(bad) == 0 || bad[len(bad)-1] != i-1) {
					bad, badHs = append(bad, i-1), append(badHs, prev)
				}
				if s.movers[e.h] {
					bad, badHs = append(bad, i), append(badHs, e.h)
				}
			}
			i, prev = i+1, e.h
		}
		if len(bad) == 0 {
			return out
		}
		for i := len(bad) - 1; i >= 0; i-- {
			out = append(out, badHs[i])
			s.deltas = s.seq.removeAt(bad[i], s.deltas)
		}
	}
}

// resident registers x's handle and what the order reads of it.
func (s *snmRankedIndex) resident(x *pdb.XTuple) uint32 {
	r := rankedRes{item: rank.Item{ID: x.ID, Keys: s.key.XTupleKeyDist(x, true)}}
	switch s.strategy {
	case MedianKey:
		r.sortKey = rank.MedianKey(r.item)
	case ModeKey:
		r.sortKey = itemTopKey(r.item)
	default:
		r.own = rank.OwnStatsOf(r.item)
	}
	return s.res.add(x.ID, r)
}

// Restore implements RestoringIndex: x joins the residents and the rank
// universe now, and its place in the order is left to settle, which
// sorts every restored resident at once.
func (s *snmRankedIndex) Restore(x *pdb.XTuple) {
	h := s.resident(x)
	if s.strategy == ExpectedRank {
		s.uni.Add(s.res.vals[h].item)
		s.epoch++
	}
	s.unplaced = append(s.unplaced, h)
}

// settle places the restored residents: the sequence is laid out anew
// from one sort of every resident under the strategy order — the order
// Insert maintains, since less is a strict total order over the current
// residents. It yields nothing.
func (s *snmRankedIndex) settle() {
	if len(s.unplaced) == 0 {
		return
	}
	es := slices.Collect(s.seq.from(0))
	for _, h := range s.unplaced {
		es = append(es, seqEntry{h: h})
	}
	slices.SortFunc(es, func(a, b seqEntry) int {
		if s.less(a.h, b.h) {
			return -1
		}
		if s.less(b.h, a.h) {
			return 1
		}
		return 0
	})
	s.seq.chunks, s.unplaced = nil, nil
	s.seq.lay(es)
}

func (s *snmRankedIndex) Insert(x *pdb.XTuple, yield func(PairDelta) bool) bool {
	s.settle()
	h := s.resident(x)
	if s.strategy == ExpectedRank {
		it := s.res.vals[h].item
		s.markMovers(rank.KeySpan(it))
		s.uni.Add(it)
		s.epoch++
		moved := s.extractDisordered()
		s.place(h)
		for _, m := range moved {
			s.place(m)
		}
	} else {
		s.place(h)
	}
	return s.flush(yield)
}

func (s *snmRankedIndex) Remove(id string, yield func(PairDelta) bool) bool {
	s.settle()
	h, ok := s.res.of[id]
	if !ok {
		return true
	}
	s.deltas = s.seq.removeAt(s.locate(h), s.deltas) // old ranks still valid here
	if s.strategy == ExpectedRank {
		it := s.res.vals[h].item
		s.markMovers(rank.KeySpan(it))
		s.uni.Remove(it)
		s.epoch++
		for _, m := range s.extractDisordered() {
			s.place(m)
		}
	}
	ok = s.flush(yield)
	s.res.release(h)
	return ok
}

// Interface conformance checks.
var (
	_ IncrementalMethod = SNMRanked{}
	_ RestoringIndex    = (*snmRankedIndex)(nil)
)
