package ssr

import (
	"maps"
	"slices"

	"probdedup/internal/keys"
	"probdedup/internal/pdb"
	"probdedup/internal/verify"
)

// snmAltsIndex maintains the exact SNMAlternatives candidate set online.
//
// The batch method (Figs. 11–12) sorts one entry per distinct alternative
// key of every tuple, omits entries whose predecessor references the same
// tuple, windows over the kept entries, and dedups pairs with an
// executed-matching set. The index mirrors that construction exactly:
//
//   - entries is the full sorted entry list (ties in arrival order,
//     matching the batch stable sort for the same insertion order), whose
//     chunks count their kept entries (chunkSeq.keptIndexOf);
//   - the kept flag of an entry is a local property of its predecessor, so
//     every entry splice rechecks only the spliced position and its
//     successor;
//   - the kept entries are a windowSeq in which a tuple's handle may
//     recur, and the ledger tracks, per distinct-tuple pair, how many of
//     its window position pairs currently cover it (the executed-matching
//     set, refcounted). A pair enters the candidate set when its count
//     rises from zero and leaves when it returns to zero; intra-operation
//     churn cancels in the ledger's pairNet. A count of 1 is not stored
//     but re-derived from the kept entries, which carry their keys.
type snmAltsIndex struct {
	key     keys.Def
	entries chunkSeq
	kept    windowSeq             // kept entries, in entry order
	res     handleTable[[]string] // each resident's distinct keys
	ledger  *pairLedger
	scratch []seqDelta
	near    []seqEntry // kept entries around the last splice
	lo, hi  int        // near[lo:hi] lies within window-1 of it
}

// Incremental implements IncrementalMethod.
func (m SNMAlternatives) Incremental() (IncrementalIndex, error) {
	return &snmAltsIndex{
		key:     m.Key,
		entries: chunkSeq{cap: seqChunkCap},
		kept:    newWindowSeq(m.Window, seqChunkCap),
		res:     newHandleTable[[]string](),
		ledger:  newPairLedger(),
	}, nil
}

func (s *snmAltsIndex) Len() int { return len(s.res.of) }

// flipKept toggles the kept flag of the entry at fpos and splices its
// handle into or out of the kept sequence; the window position pairs the
// splice gains and loses are the ledger's coverage.
func (s *snmAltsIndex) flipKept(fpos int) {
	e, _ := s.entries.get(fpos)
	kpos := s.entries.keptIndexOf(fpos)
	if e.kept {
		s.scratch = s.kept.removeAt(kpos, s.scratch[:0])
	} else {
		s.scratch = s.kept.insertAt(kpos, seqEntry{key: e.key, h: e.h}, s.scratch[:0])
	}
	w, lo := s.kept.window, max(kpos-2*s.kept.window+2, 0)
	s.near = s.kept.read(lo, kpos+2*w-1, s.near)
	s.lo, s.hi = max(kpos-w+1-lo, 0), min(kpos+w-lo, len(s.near))
	s.ledger.coverAll(s.scratch, s.cover)
	s.entries.setKept(fpos, !e.kept)
}

// cover counts the window position pairs of the kept sequence covering a
// and b: per kept entry of the one with fewer keys, the other's entries
// within window-1 of it, read from near if the entry lies there (every
// delta of a splice does), else around it, found by its key.
func (s *snmAltsIndex) cover(a, b uint32) (n int32) {
	if len(s.res.vals[b]) < len(s.res.vals[a]) {
		a, b = b, a
	}
	w := s.kept.window
	for _, k := range s.res.vals[a] {
		es, i := s.near, s.lo+slices.IndexFunc(s.near[s.lo:s.hi], func(e seqEntry) bool { return e.h == a && e.key == k })
		if i < s.lo {
			c, o, ok := s.kept.locate(k, a)
			if !ok {
				continue // not kept
			}
			if es, i = s.kept.chunks[c].entries, o; i < w-1 || i+w > len(es) {
				p := s.kept.pos(c, o) // the window crosses a chunk edge
				s.kept.nb = s.kept.read(max(p-w+1, 0), p+w, s.kept.nb)
				es, i = s.kept.nb, min(p, w-1)
			}
		}
		for _, e := range es[max(i-w+1, 0):min(i+w, len(es))] {
			if e.h == b {
				n++
			}
		}
	}
	return n
}

// insertEntry splices one (key, h) entry into the full list at fpos and
// maintains the kept statuses of its successor and then of the new entry
// (the only entries whose predecessor changed).
func (s *snmAltsIndex) insertEntry(fpos int, key string, h uint32) {
	s.entries.splice(fpos, seqEntry{key: key, h: h})
	if succ, ok := s.entries.get(fpos + 1); ok && (succ.h != h) != succ.kept {
		s.flipKept(fpos + 1)
	}
	if pred, ok := s.entries.get(fpos - 1); !ok || pred.h != h {
		s.flipKept(fpos)
	}
}

// removeEntry splices the entry at fpos out and rechecks its successor.
func (s *snmAltsIndex) removeEntry(fpos int) {
	if e, _ := s.entries.get(fpos); e.kept {
		s.flipKept(fpos)
	}
	s.entries.cut(fpos)
	if e, ok := s.entries.get(fpos); ok {
		pred, ok := s.entries.get(fpos - 1)
		if kept := !ok || pred.h != e.h; kept != e.kept {
			s.flipKept(fpos)
		}
	}
}

// keysOf returns a tuple's distinct alternative keys.
func (s *snmAltsIndex) keysOf(x *pdb.XTuple) []string {
	kps := s.key.XTupleKeyDist(x, false)
	ks := make([]string, len(kps))
	for i, kp := range kps {
		ks[i] = kp.Key
	}
	return ks
}

func (s *snmAltsIndex) Insert(x *pdb.XTuple, yield func(PairDelta) bool) bool {
	ks := s.keysOf(x)
	h := s.res.add(x.ID, ks)
	for _, k := range ks {
		// Upper bound: after all equal keys, reproducing the batch
		// stable sort for the same arrival order.
		s.insertEntry(s.entries.search(func(e seqEntry) bool { return e.key > k }), k, h)
	}
	return s.ledger.flush(s.res.ids, yield)
}

// build implements bulkBuild: SortedEntries' construction over handles —
// every entry sorted once, the kept flags in one scan — then one window
// pass over the kept entries counts coverage, a pair's first being its
// add, and the ledger keeps the counts of 2 or more.
func (s *snmAltsIndex) build(xs []*pdb.XTuple, admit func(verify.Pair) bool) []BatchDelta {
	hs := make([]uint32, len(xs))
	var es, kept []seqEntry
	for i, x := range xs {
		ks := s.keysOf(x)
		hs[i] = s.res.add(x.ID, ks)
		for _, k := range ks {
			es = append(es, seqEntry{key: k, h: hs[i]})
		}
	}
	adds := newBulkAdds(s.res.ids, hs, admit)
	slices.SortFunc(es, adds.byKey)
	for i := range es {
		if es[i].kept = i == 0 || es[i-1].h != es[i].h; es[i].kept {
			kept = append(kept, seqEntry{key: es[i].key, h: es[i].h})
		}
	}
	s.entries.lay(es)
	s.kept.lay(kept)
	counts := map[uint64]int32{}
	windowPairs(kept, s.kept.window, func(a, b uint32) {
		if a != b {
			k := handlePair(a, b)
			if counts[k]++; counts[k] == 1 {
				adds.add(a, b)
			}
		}
	})
	maps.DeleteFunc(counts, func(_ uint64, n int32) bool { return n < 2 })
	maps.Copy(s.ledger.multi, counts) // counts keeps its full-size buckets
	return adds.out
}

func (s *snmAltsIndex) Remove(id string, yield func(PairDelta) bool) bool {
	h, ok := s.res.of[id]
	if !ok {
		return true
	}
	defer s.res.release(h) // after the flush, which reads h's ID
	for _, k := range s.res.vals[h] {
		if c, i, ok := s.entries.locate(k, h); ok {
			s.removeEntry(s.entries.pos(c, i))
		}
	}
	return s.ledger.flush(s.res.ids, yield)
}

// Interface conformance check.
var _ IncrementalMethod = SNMAlternatives{}
