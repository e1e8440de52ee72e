package ssr

import (
	"sort"
	"strconv"
	"strings"

	"probdedup/internal/keys"
	"probdedup/internal/pdb"
	"probdedup/internal/verify"
	"probdedup/internal/worlds"
)

// ---- Multi-pass sorted neighborhood over possible worlds ----

// mpWorld is one selected possible world of the incremental multi-pass
// index: the per-resident raw choice indices that identify it and the
// sorted (key, arrival-order) sequence of its pass.
type mpWorld struct {
	rawIdx []int
	seq    keyedSeq
}

// snmMultiPassIndex maintains the exact SNMMultiPass candidate set online
// by composing one SNMCertain-style pass (a keyedSeq) per selected possible
// world.
//
// Per resident it caches the conditioned choice list (raw enumeration
// order and the stable probability-sorted order the top-k expansion
// uses), so re-running the world selection after every operation goes
// through the exact same list-level code path (worlds.TopKIdx /
// EnumerateIdx / DissimilarIdx) as the batch method — selected worlds,
// probabilities and fallback behavior agree bit for bit with
// selectWorlds over the residents in insertion order.
//
// Worlds are identified by their raw choice-index vectors. After an
// insertion, a new world whose first n components match a previously
// selected world extends it: the pass index is reused (or cloned when
// several children share a parent) and only the new tuple is spliced in.
// After a removal, old worlds match new ones by dropping the removed
// component. Unmatched new worlds are built from scratch; old worlds
// that left the selection retire. The union over passes is refcounted by
// a pairLedger, so candidate pairs enter and leave the maintained set
// exactly as the batch executed-matching union does.
type snmMultiPassIndex struct {
	method    SNMMultiPass
	key       keys.Def
	chunk     int // chunk capacity of every pass
	arrivals  []string
	raw       [][]worlds.Choice
	sorted    [][]worlds.Choice
	s2r       [][]int    // sorted position -> raw position
	choiceKey [][]string // raw position -> sorting key of the choice
	worlds    []*mpWorld
	ledger    *pairLedger
	scratch   []PairDelta
}

// Incremental implements IncrementalMethod.
func (m SNMMultiPass) Incremental() (IncrementalIndex, error) {
	return &snmMultiPassIndex{
		method: m,
		key:    m.Key,
		chunk:  seqChunkCap,
		ledger: newPairLedger(),
	}, nil
}

func (s *snmMultiPassIndex) Len() int { return len(s.arrivals) }

// sigOf renders a choice-index vector as a map key.
func sigOf(idx []int) string {
	var b strings.Builder
	for _, v := range idx {
		b.WriteString(strconv.Itoa(v))
		b.WriteByte(',')
	}
	return b.String()
}

// selectRaw re-runs the method's world selection over the cached choice
// lists and converts the result to raw-basis index vectors.
func (s *snmMultiPassIndex) selectRaw() [][]int {
	var sts []worlds.WorldIdx
	sortedBasis := true
	switch s.method.Select {
	case TopWorlds:
		sts = worlds.TopKIdx(s.sorted, s.method.K)
	case DissimilarWorlds:
		sts = worlds.DissimilarIdx(s.sorted, s.method.K, 4*s.method.K)
	default:
		limit := s.method.MaxWorlds
		if limit <= 0 {
			limit = 100_000
		}
		var err error
		sts, err = worlds.EnumerateIdx(s.raw, limit)
		if err != nil {
			// Same fallback as the batch selection: the most probable
			// worlds when enumeration is infeasible.
			sts = worlds.TopKIdx(s.sorted, 1024)
		} else {
			sortedBasis = false
		}
	}
	out := make([][]int, len(sts))
	for i, st := range sts {
		ri := make([]int, len(st.Idx))
		for t, j := range st.Idx {
			if sortedBasis {
				ri[t] = s.s2r[t][j]
			} else {
				ri[t] = j
			}
		}
		out[i] = ri
	}
	return out
}

// worldInsert splices (k, id) into the world's pass; worldRemove splices
// it out. The pass's window deltas are its coverage in the union ledger.
func (s *snmMultiPassIndex) worldInsert(w *mpWorld, id, k string) {
	s.scratch = w.seq.insert(k, id, s.scratch[:0])
	s.ledger.coverAll(s.scratch)
}

func (s *snmMultiPassIndex) worldRemove(w *mpWorld, id, k string) {
	s.scratch = w.seq.remove(k, id, s.scratch[:0])
	s.ledger.coverAll(s.scratch)
}

// worldBuild constructs a world's pass from scratch over all residents.
func (s *snmMultiPassIndex) worldBuild(rawIdx []int) *mpWorld {
	w := &mpWorld{rawIdx: rawIdx, seq: keyedSeq{newWindowSeq(s.method.Window, s.chunk)}}
	for t, id := range s.arrivals { // upper-bound splices in arrival order: a stable sort
		k := s.choiceKey[t][rawIdx[t]]
		w.seq.splice(w.seq.search(func(e seqEntry) bool { return e.key > k }), seqEntry{key: k, id: id})
	}
	s.worldCover(w, false)
	return w
}

// worldCover registers a whole pass's window pairs with the union ledger
// or (retire) withdraws them — deterministically, via the window stream of
// its sequence.
func (s *snmMultiPassIndex) worldCover(w *mpWorld, retire bool) {
	windowStream(w.seq.ids(), w.seq.window, func(p verify.Pair) bool {
		s.ledger.cover(PairDelta{Pair: p, Dropped: retire})
		return true
	})
}

// registerTuple caches the tuple's choice lists (raw and sorted bases),
// the sorted→raw permutation and the per-choice sorting keys.
func (s *snmMultiPassIndex) registerTuple(x *pdb.XTuple) {
	raw := worlds.Choices(x, true)
	perm := make([]int, len(raw))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool { return raw[perm[a]].P > raw[perm[b]].P })
	sortedCs := make([]worlds.Choice, len(raw))
	for si, ri := range perm {
		sortedCs[si] = raw[ri]
	}
	ck := make([]string, len(raw))
	for j, c := range raw {
		ck[j] = s.key.FromValues(c.Values)
	}
	s.arrivals = append(s.arrivals, x.ID)
	s.raw = append(s.raw, raw)
	s.sorted = append(s.sorted, sortedCs)
	s.s2r = append(s.s2r, perm)
	s.choiceKey = append(s.choiceKey, ck)
}

func (s *snmMultiPassIndex) Insert(x *pdb.XTuple, yield func(PairDelta) bool) bool {
	oldWorlds := s.worlds
	oldBySig := make(map[string]*mpWorld, len(oldWorlds))
	for _, w := range oldWorlds {
		oldBySig[sigOf(w.rawIdx)] = w
	}
	s.registerTuple(x)
	n := len(s.arrivals) - 1 // resident count before this insertion
	newSel := s.selectRaw()

	// Count children per parent so multi-child parents are snapshotted
	// before the first child mutates them in place.
	children := map[*mpWorld]int{}
	for _, ri := range newSel {
		if parent := oldBySig[sigOf(ri[:n])]; parent != nil {
			children[parent]++
		}
	}
	snapshots := map[*mpWorld]keyedSeq{}
	for parent, c := range children {
		if c > 1 {
			snapshots[parent] = parent.seq.clone()
		}
	}

	newWorlds := make([]*mpWorld, 0, len(newSel))
	used := map[*mpWorld]int{}
	for _, ri := range newSel {
		parent := oldBySig[sigOf(ri[:n])]
		var w *mpWorld
		switch {
		case parent == nil:
			w = s.worldBuild(ri)
			newWorlds = append(newWorlds, w)
			continue
		case used[parent] == 0:
			w = parent
		default:
			// Later children clone the parent's pre-insertion pass.
			w = &mpWorld{seq: snapshots[parent].clone()}
			s.worldCover(w, false)
		}
		used[parent]++
		w.rawIdx = ri
		s.worldInsert(w, x.ID, s.choiceKey[n][ri[n]])
		newWorlds = append(newWorlds, w)
	}
	for _, w := range oldWorlds {
		if used[w] == 0 {
			s.worldCover(w, true)
		}
	}
	s.worlds = newWorlds
	return s.ledger.flush(yield)
}

func (s *snmMultiPassIndex) Remove(id string, yield func(PairDelta) bool) bool {
	pos := -1
	for i, a := range s.arrivals {
		if a == id {
			pos = i
			break
		}
	}
	if pos < 0 {
		return true
	}
	oldWorlds := s.worlds
	ck := s.choiceKey[pos] // the departing tuple's key per raw choice
	s.arrivals = append(s.arrivals[:pos], s.arrivals[pos+1:]...)
	s.raw = append(s.raw[:pos], s.raw[pos+1:]...)
	s.sorted = append(s.sorted[:pos], s.sorted[pos+1:]...)
	s.s2r = append(s.s2r[:pos], s.s2r[pos+1:]...)
	s.choiceKey = append(s.choiceKey[:pos], s.choiceKey[pos+1:]...)
	newSel := s.selectRaw()

	// Old worlds match new ones by dropping the removed component.
	oldByReduced := map[string][]*mpWorld{}
	for _, w := range oldWorlds {
		reduced := make([]int, 0, len(w.rawIdx)-1)
		reduced = append(reduced, w.rawIdx[:pos]...)
		reduced = append(reduced, w.rawIdx[pos+1:]...)
		sig := sigOf(reduced)
		oldByReduced[sig] = append(oldByReduced[sig], w)
	}
	newWorlds := make([]*mpWorld, 0, len(newSel))
	used := map[*mpWorld]bool{}
	for _, ri := range newSel {
		var w *mpWorld
		for _, cand := range oldByReduced[sigOf(ri)] {
			if !used[cand] {
				w = cand
				break
			}
		}
		if w == nil {
			newWorlds = append(newWorlds, s.worldBuild(ri))
			continue
		}
		used[w] = true
		s.worldRemove(w, id, ck[w.rawIdx[pos]])
		w.rawIdx = ri
		newWorlds = append(newWorlds, w)
	}
	for _, w := range oldWorlds {
		if !used[w] {
			s.worldCover(w, true)
		}
	}
	s.worlds = newWorlds
	return s.ledger.flush(yield)
}

// Interface conformance check.
var _ IncrementalMethod = SNMMultiPass{}
