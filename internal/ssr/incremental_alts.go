package ssr

import (
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
//     churn cancels in the ledger's pairNet.
type snmAltsIndex struct {
	key     keys.Def
	entries chunkSeq
	kept    windowSeq             // handles of kept entries, in entry order
	res     handleTable[[]string] // each resident's distinct keys
	ledger  *pairLedger
	scratch []seqDelta
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
	if kpos := s.entries.keptIndexOf(fpos); e.kept {
		s.scratch = s.kept.removeAt(kpos, s.scratch[:0])
	} else {
		s.scratch = s.kept.insertAt(kpos, seqEntry{h: e.h}, s.scratch[:0])
	}
	s.ledger.coverAll(s.scratch)
	s.entries.setKept(fpos, !e.kept)
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
// pass over the kept entries fills the ledger, a pair's first coverage
// being its add.
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
			kept = append(kept, seqEntry{h: es[i].h})
		}
	}
	s.entries.lay(es)
	s.kept.lay(kept)
	windowPairs(kept, s.kept.window, func(a, b uint32) {
		if a != b {
			k := handlePair(a, b)
			if s.ledger.counts[k]++; s.ledger.counts[k] == 1 {
				adds.add(a, b)
			}
		}
	})
	return adds.out
}

func (s *snmAltsIndex) Remove(id string, yield func(PairDelta) bool) bool {
	h, ok := s.res.of[id]
	if !ok {
		return true
	}
	defer s.res.release(h) // after the flush, which reads h's ID
	for _, k := range s.res.vals[h] {
		if fpos := s.entries.lookup(k, h); fpos >= 0 {
			s.removeEntry(fpos)
		}
	}
	return s.ledger.flush(s.res.ids, yield)
}

// Interface conformance check.
var _ IncrementalMethod = SNMAlternatives{}
