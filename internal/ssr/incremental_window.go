package ssr

import (
	"slices"
	"sort"

	"probdedup/internal/verify"
)

// This file holds the pieces every incremental sorted-neighborhood index
// is assembled from: the window arithmetic (windowSeq), its keyed form
// (keyedSeq), delta netting (pairNet) and the refcounted union of several
// window passes (pairLedger).

// windowSeq maintains an ordered sequence of tuple IDs and the
// sorted-neighborhood window pairs over it: every splice appends the
// window-pair deltas it causes (straddling pairs pushed out or pulled back
// in, neighbor pairs of the spliced ID). It is the only copy of the
// incremental window arithmetic. The caller owns the order and every
// splice position — including removal positions, so the sequence never
// pays for id→position bookkeeping. Deltas are computed against the
// pre-splice sequence and returned, never delivered, so a structural
// update cannot depend on a yield outcome. An ID may occur more than once
// (SNMAlternatives' kept entries); the deltas are then per position pair,
// same-ID pairs included, and the consumer refcounts them (pairLedger).
type windowSeq struct {
	window int
	ids    []string
}

func newWindowSeq(window int) windowSeq {
	if window < 2 {
		window = 2 // mirror windowStream's minimum
	}
	return windowSeq{window: window}
}

// insertAt splices id in at position p: straddling pairs at distance
// exactly window-1 drop, and the new ID pairs with its window neighbors,
// nearest left neighbor first, then rightwards.
func (s *windowSeq) insertAt(p int, id string, out []PairDelta) []PairDelta {
	w := s.window
	for a := max(p-w+1, 0); a <= p-1 && a+w-1 < len(s.ids); a++ {
		out = append(out, PairDelta{Pair: verify.NewPair(s.ids[a], s.ids[a+w-1]), Dropped: true})
	}
	for a := p - 1; a >= 0 && a >= p-w+1; a-- {
		out = append(out, PairDelta{Pair: verify.NewPair(s.ids[a], id)})
	}
	for b := p; b < len(s.ids) && b <= p+w-2; b++ {
		out = append(out, PairDelta{Pair: verify.NewPair(id, s.ids[b])})
	}
	s.ids = slices.Insert(s.ids, p, id)
	return out
}

// removeAt splices the ID at position p out: every window pair of the ID
// drops, and straddling pairs at distance exactly window re-enter.
func (s *windowSeq) removeAt(p int, out []PairDelta) []PairDelta {
	id, w := s.ids[p], s.window
	for j := max(p-w+1, 0); j <= p+w-1 && j < len(s.ids); j++ {
		if j != p {
			out = append(out, PairDelta{Pair: verify.NewPair(s.ids[j], id), Dropped: true})
		}
	}
	for a := max(p-w+1, 0); a <= p-1 && a+w < len(s.ids); a++ {
		out = append(out, PairDelta{Pair: verify.NewPair(s.ids[a], s.ids[a+w])})
	}
	s.ids = slices.Delete(s.ids, p, p+1)
	return out
}

// keyedSeq is a windowSeq ordered by one sort key per entry, ties in
// arrival order — the order of the batch methods' stable sort over the
// same arrivals. It is the whole index of SNMCertain and one pass of
// SNMMultiPass.
type keyedSeq struct {
	windowSeq
	keys []string // parallel to ids
}

// insert splices (key, id) in after all equal keys (upper bound).
func (s *keyedSeq) insert(key, id string, out []PairDelta) []PairDelta {
	p := sort.Search(len(s.keys), func(i int) bool { return s.keys[i] > key })
	s.keys = slices.Insert(s.keys, p, key)
	return s.insertAt(p, id, out)
}

// remove splices the entry (key, id) out: binary search to the key's run,
// then a short scan. An absent entry is a no-op.
func (s *keyedSeq) remove(key, id string, out []PairDelta) []PairDelta {
	for p := sort.SearchStrings(s.keys, key); p < len(s.keys) && s.keys[p] == key; p++ {
		if s.ids[p] == id {
			s.keys = slices.Delete(s.keys, p, p+1)
			return s.removeAt(p, out)
		}
	}
	return out
}

// clone returns an independent copy of the sequence.
func (s keyedSeq) clone() keyedSeq {
	return keyedSeq{windowSeq{s.window, slices.Clone(s.ids)}, slices.Clone(s.keys)}
}

// pairNet nets a run of pair deltas down to the changes that survive it.
// Per pair, deltas alternate add/drop (the indexes maintain exact sets), so
// an even count cancels and an odd count nets to the first (= last) kind.
// Survivors keep first-affected order and carry the source stamp current
// at their last delta — InsertBatch's batch position; single operations
// leave it zero. A net is reusable: drain empties it entry by entry, so an
// operation costs what it touched, not what an earlier one did.
type pairNet struct {
	source  int
	entries []netEntry
	at      map[verify.Pair]int // position in entries
}

type netEntry struct {
	BatchDelta // Dropped is the first delta's kind
	odd        bool
}

// add nets one more delta.
func (n *pairNet) add(d PairDelta) {
	at, ok := n.at[d.Pair]
	if !ok {
		if n.at == nil {
			n.at = map[verify.Pair]int{}
		}
		at = len(n.entries)
		n.at[d.Pair] = at
		n.entries = append(n.entries, netEntry{BatchDelta: BatchDelta{PairDelta: d}})
	}
	e := &n.entries[at]
	e.odd = !e.odd
	e.Source = n.source
}

// drain delivers the surviving deltas and empties the net. A false from f
// truncates delivery only.
func (n *pairNet) drain(f func(BatchDelta) bool) bool {
	ok := true
	for _, e := range n.entries {
		delete(n.at, e.Pair)
		if ok && e.odd {
			ok = f(e.BatchDelta)
		}
	}
	n.entries = n.entries[:0]
	return ok
}

// flush is drain for an index's yield: the tail of every netted operation.
func (n *pairNet) flush(yield func(PairDelta) bool) bool {
	return n.drain(func(d BatchDelta) bool { return yield(d.PairDelta) })
}

// pairLedger refcounts how many window position pairs (kept entries of
// SNMAlternatives, per-world passes of SNMMultiPass) currently cover each
// candidate pair and nets the 0↔positive transitions — the incremental
// form of the executed-matching set (Fig. 12).
type pairLedger struct {
	counts map[verify.Pair]int
	net    pairNet
}

func newPairLedger() *pairLedger { return &pairLedger{counts: map[verify.Pair]int{}} }

// cover counts one more coverage of the pair (or, dropped, one fewer); the
// first yields an add, the last a drop. Same-ID pairs are ignored
// (windowStream skips them).
func (l *pairLedger) cover(d PairDelta) {
	if d.Pair.A == d.Pair.B {
		return
	}
	n := l.counts[d.Pair]
	if d.Dropped {
		if n--; n == 0 {
			delete(l.counts, d.Pair)
			l.net.add(d)
			return
		}
	} else if n++; n == 1 {
		l.net.add(d)
	}
	l.counts[d.Pair] = n
}

// coverAll folds one splice's window deltas into the coverage counts.
func (l *pairLedger) coverAll(ds []PairDelta) {
	for _, d := range ds {
		l.cover(d)
	}
}

// flush delivers the net transitions of the operation.
func (l *pairLedger) flush(yield func(PairDelta) bool) bool { return l.net.flush(yield) }
