package ssr

import (
	"sort"

	"probdedup/internal/keys"
	"probdedup/internal/pdb"
)

// snmAltsIndex maintains the exact SNMAlternatives candidate set online.
//
// The batch method (Figs. 11–12) sorts one entry per distinct alternative
// key of every tuple, omits entries whose predecessor references the same
// tuple, windows over the kept entries, and dedups pairs with an
// executed-matching set. The index mirrors that construction exactly:
//
//   - entries is the full sorted entry list (ties in arrival order,
//     matching the batch stable sort for the same insertion order);
//   - the kept flag of an entry is a local property of its predecessor, so
//     every entry splice rechecks only the spliced position and its
//     successor;
//   - the kept entries are a windowSeq in which a tuple ID may recur, and
//     the ledger tracks, per distinct-ID pair, how many of its window
//     position pairs currently cover it (the executed-matching set,
//     refcounted). A pair enters the candidate set when its count rises
//     from zero and leaves when it returns to zero; intra-operation churn
//     cancels in the ledger's pairNet.
type snmAltsIndex struct {
	key     keys.Def
	entries []altEntry
	kept    windowSeq // IDs of kept entries, in entry order
	keysOf  map[string][]string
	ledger  *pairLedger
	scratch []PairDelta
}

type altEntry struct {
	key  string
	id   string
	kept bool
}

// Incremental implements IncrementalMethod.
func (m SNMAlternatives) Incremental() (IncrementalIndex, error) {
	return &snmAltsIndex{
		key:    m.Key,
		kept:   newWindowSeq(m.Window),
		keysOf: map[string][]string{},
		ledger: newPairLedger(),
	}, nil
}

func (s *snmAltsIndex) Len() int { return len(s.keysOf) }

// keptIndexOf counts the kept entries strictly before entry position
// fpos — the position the entry holds (or would hold) in the kept list.
func (s *snmAltsIndex) keptIndexOf(fpos int) int {
	n := 0
	for i := 0; i < fpos; i++ {
		if s.entries[i].kept {
			n++
		}
	}
	return n
}

// insertKept splices id into the kept sequence at kpos; the window
// position pairs the splice gains and loses are the ledger's coverage.
func (s *snmAltsIndex) insertKept(kpos int, id string) {
	s.scratch = s.kept.insertAt(kpos, id, s.scratch[:0])
	s.ledger.coverAll(s.scratch)
}

// removeKept splices the kept entry at kpos out.
func (s *snmAltsIndex) removeKept(kpos int) {
	s.scratch = s.kept.removeAt(kpos, s.scratch[:0])
	s.ledger.coverAll(s.scratch)
}

// insertEntry splices one (key, id) entry into the full list at fpos and
// maintains the kept statuses of the new entry and its successor (the
// only entries whose predecessor changed).
func (s *snmAltsIndex) insertEntry(fpos int, key, id string) {
	s.entries = append(s.entries, altEntry{})
	copy(s.entries[fpos+1:], s.entries[fpos:])
	s.entries[fpos] = altEntry{key: key, id: id}

	if succ := fpos + 1; succ < len(s.entries) {
		e := &s.entries[succ]
		if newKept := e.id != id; newKept != e.kept {
			if e.kept {
				s.removeKept(s.keptIndexOf(succ))
			} else {
				s.insertKept(s.keptIndexOf(succ), e.id)
			}
			e.kept = newKept
		}
	}
	if kept := fpos == 0 || s.entries[fpos-1].id != id; kept {
		s.insertKept(s.keptIndexOf(fpos), id)
		s.entries[fpos].kept = true
	}
}

// removeEntry splices the entry at fpos out and rechecks its successor.
func (s *snmAltsIndex) removeEntry(fpos int) {
	if s.entries[fpos].kept {
		s.removeKept(s.keptIndexOf(fpos))
	}
	s.entries = append(s.entries[:fpos], s.entries[fpos+1:]...)

	if fpos < len(s.entries) {
		e := &s.entries[fpos]
		if newKept := fpos == 0 || s.entries[fpos-1].id != e.id; newKept != e.kept {
			if newKept {
				s.insertKept(s.keptIndexOf(fpos), e.id)
			} else {
				s.removeKept(s.keptIndexOf(fpos))
			}
			e.kept = newKept
		}
	}
}

func (s *snmAltsIndex) Insert(x *pdb.XTuple, yield func(PairDelta) bool) bool {
	kps := s.key.XTupleKeyDist(x, false)
	ks := make([]string, len(kps))
	for i, kp := range kps {
		ks[i] = kp.Key
	}
	s.keysOf[x.ID] = ks
	for _, k := range ks {
		// Upper bound: after all equal keys, reproducing the batch
		// stable sort for the same arrival order.
		fpos := sort.Search(len(s.entries), func(i int) bool { return s.entries[i].key > k })
		s.insertEntry(fpos, k, x.ID)
	}
	return s.ledger.flush(yield)
}

func (s *snmAltsIndex) Remove(id string, yield func(PairDelta) bool) bool {
	ks, ok := s.keysOf[id]
	if !ok {
		return true
	}
	delete(s.keysOf, id)
	for _, k := range ks {
		i := sort.Search(len(s.entries), func(i int) bool { return s.entries[i].key >= k })
		for ; i < len(s.entries) && s.entries[i].key == k; i++ {
			if s.entries[i].id == id {
				s.removeEntry(i)
				break
			}
		}
	}
	return s.ledger.flush(yield)
}

// Interface conformance check.
var _ IncrementalMethod = SNMAlternatives{}
