package ssr

import (
	"iter"
	"slices"
	"sort"
	"strings"

	"probdedup/internal/pdb"
	"probdedup/internal/verify"
)

// This file holds the pieces the splicing sorted-neighborhood indexes
// are assembled from: the residents' handles (handleTable), the order
// (chunkSeq), the window arithmetic over it (windowSeq), its keyed form
// (keyedSeq), delta netting (pairNet) and the refcounted union of several
// window passes (pairLedger, counting only pairs covered twice or more),
// and the one-pass build of an empty index (bulkBuild).

// handleTable gives every resident of a window index a uint32 handle, the
// index of its ID and of the index's per-resident value in two slices. A
// removed resident's handle goes on a free list and the next arrival
// takes it. Sequence entries, window deltas and ledger keys carry handles;
// an ID is looked up only where a pair leaves the index, and handles never
// order anything (ties break by arrival or by ID).
type handleTable[V any] struct {
	of   map[string]uint32 // resident ID → handle
	ids  []string          // handle → ID, "" while free
	vals []V
	free []uint32
}

func newHandleTable[V any]() handleTable[V] { return handleTable[V]{of: map[string]uint32{}} }

// add registers a resident and returns its handle, a freed one if any.
func (t *handleTable[V]) add(id string, v V) uint32 {
	h := uint32(len(t.ids))
	if n := len(t.free); n > 0 {
		h, t.free = t.free[n-1], t.free[:n-1]
		t.ids[h], t.vals[h] = id, v
	} else {
		t.ids, t.vals = append(t.ids, id), append(t.vals, v)
	}
	t.of[id] = h
	return h
}

// release frees a resident's handle. Nothing may refer to it any more: a
// later arrival takes it.
func (t *handleTable[V]) release(h uint32) {
	var zero V
	delete(t.of, t.ids[h])
	t.ids[h], t.vals[h] = "", zero
	t.free = append(t.free, h)
}

// seqDelta is one window position pair a splice gained or (dropped) lost,
// as the two entries' handles.
type seqDelta struct {
	a, b    uint32
	dropped bool
}

// pair is the delta with the handles' IDs, normalized by ID.
func (d seqDelta) pair(ids []string) PairDelta {
	return PairDelta{Pair: verify.NewPair(ids[d.a], ids[d.b]), Dropped: d.dropped}
}

// seqChunkCap is the most entries one chunk of a chunkSeq holds. lib_snm's
// closed loop is flat within noise from 64 to 1024 (CHANGES.md).
const seqChunkCap = 256

// seqEntry is one position of a chunkSeq: a resident's handle, its sort
// key where the sequence is ordered by key, and SNMAlternatives' kept flag.
type seqEntry struct {
	key  string
	h    uint32
	kept bool
}

// chunkSeq is the ordered sequence behind every incremental
// sorted-neighborhood index: chunks of at most cap entries, each counting
// its kept ones, so a splice and a position query cost O(chunks + cap)
// where one flat slice cost O(entries).
type chunkSeq struct {
	cap, n int
	chunks []seqChunk // none empty
}

type seqChunk struct {
	entries []seqEntry
	kept    int // countKept(entries)
}

func countKept(es []seqEntry) int {
	n := 0
	for _, e := range es {
		if e.kept {
			n++
		}
	}
	return n
}

// find locates position p, 0 ≤ p ≤ n, as chunk c and offset i; p = n is
// the end of the last chunk.
func (s *chunkSeq) find(p int) (c, i int) {
	for c, ch := range s.chunks {
		if p < len(ch.entries) || c == len(s.chunks)-1 {
			return c, p
		}
		p -= len(ch.entries)
	}
	return 0, 0
}

// get returns the entry at position p, false outside the sequence.
func (s *chunkSeq) get(p int) (seqEntry, bool) {
	if p >= 0 {
		for e := range s.from(p) {
			return e, true
		}
	}
	return seqEntry{}, false
}

// from yields the entries from position p on.
func (s *chunkSeq) from(p int) iter.Seq[seqEntry] {
	return func(yield func(seqEntry) bool) {
		for c, i := s.find(p); c < len(s.chunks); c, i = c+1, 0 {
			for _, e := range s.chunks[c].entries[i:] {
				if !yield(e) {
					return
				}
			}
		}
	}
}

// splice inserts e at position p. A full chunk splits first: its upper
// half, kept count included, moves to a new chunk after it.
func (s *chunkSeq) splice(p int, e seqEntry) {
	if len(s.chunks) == 0 {
		s.chunks = []seqChunk{{}}
	}
	c, i := s.find(p)
	if lo := s.chunks[c].entries; len(lo) == s.cap {
		h := len(lo) / 2
		hi := seqChunk{entries: append(make([]seqEntry, 0, s.cap), lo[h:]...)}
		hi.kept = countKept(hi.entries)
		clear(lo[h:])
		s.chunks[c] = seqChunk{lo[:h], s.chunks[c].kept - hi.kept}
		s.chunks = slices.Insert(s.chunks, c+1, hi)
		if i > h {
			c, i = c+1, i-h
		}
	}
	ch := &s.chunks[c]
	ch.entries = slices.Insert(ch.entries, i, e)
	ch.kept += countKept(ch.entries[i : i+1])
	s.n++
}

// cut removes the entry at position p; an emptied chunk goes.
func (s *chunkSeq) cut(p int) {
	c, i := s.find(p)
	ch := &s.chunks[c]
	ch.kept -= countKept(ch.entries[i : i+1])
	if ch.entries = slices.Delete(ch.entries, i, i+1); len(ch.entries) == 0 {
		s.chunks = slices.Delete(s.chunks, c, c+1)
	}
	s.n--
}

// setKept sets the kept flag of the entry at position p.
func (s *chunkSeq) setKept(p int, kept bool) {
	c, i := s.find(p)
	ch := &s.chunks[c]
	ch.kept -= countKept(ch.entries[i : i+1])
	ch.entries[i].kept = kept
	ch.kept += countKept(ch.entries[i : i+1])
}

// keptIndexOf counts the kept entries before position p — the kept counts
// of the chunks before p's, then a scan of p's.
func (s *chunkSeq) keptIndexOf(p int) int {
	n := 0
	for _, ch := range s.chunks {
		if p < len(ch.entries) {
			return n + countKept(ch.entries[:p])
		}
		n += ch.kept
		p -= len(ch.entries)
	}
	return n
}

// at is sort.Search over the entries (f false, then true) as chunk c and
// offset i: a binary search of the chunks by their last entries, then of one.
func (s *chunkSeq) at(f func(seqEntry) bool) (c, i int) {
	c = sort.Search(len(s.chunks), func(c int) bool {
		es := s.chunks[c].entries
		return f(es[len(es)-1])
	})
	if c < len(s.chunks) {
		es := s.chunks[c].entries
		i = sort.Search(len(es), func(i int) bool { return f(es[i]) })
	}
	return c, i
}

// pos is the position of offset i of chunk c.
func (s *chunkSeq) pos(c, i int) int {
	for _, ch := range s.chunks[:c] {
		i += len(ch.entries)
	}
	return i
}

// search is sort.Search over the entries (f false, then true).
func (s *chunkSeq) search(f func(seqEntry) bool) int { return s.pos(s.at(f)) }

// locate finds the entry (key, h) of a key-ordered sequence as chunk c and
// offset i, ok false if absent: a binary search to the key's run, a scan on.
func (s *chunkSeq) locate(key string, h uint32) (c, i int, ok bool) {
	for c, i = s.at(func(e seqEntry) bool { return e.key >= key }); c < len(s.chunks); c, i = c+1, 0 {
		for _, e := range s.chunks[c].entries[i:] {
			if e.key != key || e.h == h {
				return c, i, e.key == key
			}
			i++
		}
	}
	return c, i, false
}

// lay fills the empty sequence with a copy of es, in order: full chunks,
// the last holding the rest.
func (s *chunkSeq) lay(es []seqEntry) {
	for lo := 0; lo < len(es); lo += s.cap {
		ch := append(make([]seqEntry, 0, s.cap), es[lo:min(lo+s.cap, len(es))]...)
		s.chunks = append(s.chunks, seqChunk{ch, countKept(ch)})
	}
	s.n = len(es)
}

// windowSeq maintains an ordered sequence of resident handles and the
// sorted-neighborhood window pairs over it: every splice appends the
// window-pair deltas it causes (straddling pairs pushed out or pulled back
// in, neighbor pairs of the spliced handle), every drop before the first
// add. It is the only copy of the incremental window arithmetic. The
// caller owns the order and every splice position — including removal
// positions, so the sequence never pays for handle→position bookkeeping.
// Deltas are computed against the pre-splice sequence and returned, never
// delivered, so a structural update cannot depend on a yield outcome. A
// handle may occur more than once (SNMAlternatives' kept entries); the
// deltas are then per position pair, same-handle pairs included, and the
// consumer refcounts them (pairLedger).
type windowSeq struct {
	chunkSeq
	window int
	nb     []seqEntry // the entries around one splice
}

func newWindowSeq(window, chunk int) windowSeq {
	if window < 2 {
		window = 2 // mirror windowStream's minimum
	}
	return windowSeq{chunkSeq: chunkSeq{cap: chunk}, window: window}
}

// read appends the entries at positions [lo, hi), or up to the end, to
// out[:0], locating lo once.
func (s *chunkSeq) read(lo, hi int, out []seqEntry) []seqEntry {
	out = out[:0]
	for e := range s.from(lo) {
		if lo+len(out) == hi {
			break
		}
		out = append(out, e)
	}
	return out
}

// insertAt splices e in at position p: straddling pairs at distance
// exactly window-1 drop, and the new handle pairs with its window
// neighbors, nearest left neighbor first, then rightwards.
func (s *windowSeq) insertAt(p int, e seqEntry, out []seqDelta) []seqDelta {
	w, lo := s.window, max(p-s.window+1, 0)
	s.nb = s.read(lo, p+w-1, s.nb)
	end, hs := lo+len(s.nb), s.nb // hs[a-lo] is at position a
	for a := lo; a <= p-1 && a+w-1 < end; a++ {
		out = append(out, seqDelta{hs[a-lo].h, hs[a+w-1-lo].h, true})
	}
	for a := p - 1; a >= lo; a-- {
		out = append(out, seqDelta{hs[a-lo].h, e.h, false})
	}
	for b := p; b < end; b++ {
		out = append(out, seqDelta{e.h, hs[b-lo].h, false})
	}
	s.splice(p, e)
	return out
}

// removeAt splices the handle at position p out: every window pair of it
// drops, and straddling pairs at distance exactly window re-enter.
func (s *windowSeq) removeAt(p int, out []seqDelta) []seqDelta {
	w, lo := s.window, max(p-s.window+1, 0)
	s.nb = s.read(lo, p+w, s.nb)
	end, hs := lo+len(s.nb), s.nb
	h := hs[p-lo].h
	for j := lo; j < end; j++ {
		if j != p {
			out = append(out, seqDelta{hs[j-lo].h, h, true})
		}
	}
	for a := lo; a <= p-1 && a+w < end; a++ {
		out = append(out, seqDelta{hs[a-lo].h, hs[a+w-lo].h, false})
	}
	s.cut(p)
	return out
}

// windowPairs calls f for every window position pair of es, in
// windowStream's order: by right position, then left position.
func windowPairs(es []seqEntry, window int, f func(a, b uint32)) {
	for j := range es {
		for i := max(j-window+1, 0); i < j; i++ {
			f(es[i].h, es[j].h)
		}
	}
}

// bulkBuild is a window index that, empty, files a batch in one pass: one
// sort, the sequences laid out from it (lay), one window pass. It returns
// the candidate set's adds in the batch stream's order, each attributed
// to the later batch position of its two tuples; admit as in InsertBatch.
type bulkBuild interface {
	build(xs []*pdb.XTuple, admit func(verify.Pair) bool) []BatchDelta
}

// bulkAdds collects a bulk build's adds.
type bulkAdds struct {
	ids   []string
	at    []int // handle → batch position
	admit func(verify.Pair) bool
	out   []BatchDelta
}

// newBulkAdds indexes the batch positions of the handles hs[i] of xs[i].
func newBulkAdds(ids []string, hs []uint32, admit func(verify.Pair) bool) *bulkAdds {
	at := make([]int, len(ids))
	for i, h := range hs {
		at[h] = i
	}
	return &bulkAdds{ids: ids, at: at, admit: admit}
}

// byKey orders entries by key, ties by batch position: the batch methods'
// stable sort over the same arrivals.
func (b *bulkAdds) byKey(x, y seqEntry) int {
	if c := strings.Compare(x.key, y.key); c != 0 {
		return c
	}
	return b.at[x.h] - b.at[y.h]
}

// add yields the pair of two handles if admit takes it.
func (b *bulkAdds) add(x, y uint32) {
	p := verify.NewPair(b.ids[x], b.ids[y])
	if b.admit == nil || b.admit(p) {
		b.out = append(b.out, BatchDelta{PairDelta{Pair: p}, max(b.at[x], b.at[y])})
	}
}

// keyedSeq is a windowSeq ordered by one sort key per entry, ties in
// arrival order — the order of the batch methods' stable sort over the
// same arrivals. It is the whole index of SNMCertain.
type keyedSeq struct{ windowSeq }

// insert splices (key, h) in after all equal keys (upper bound).
func (s *keyedSeq) insert(key string, h uint32, out []seqDelta) []seqDelta {
	p := s.search(func(e seqEntry) bool { return e.key > key })
	return s.insertAt(p, seqEntry{key: key, h: h}, out)
}

// remove splices the entry (key, h) out. An absent entry is a no-op.
func (s *keyedSeq) remove(key string, h uint32, out []seqDelta) []seqDelta {
	if c, i, ok := s.locate(key, h); ok {
		return s.removeAt(s.pos(c, i), out)
	}
	return out
}

// pairNet nets a run of pair deltas down to the changes that survive it.
// Per pair, deltas alternate add/drop (the indexes maintain exact sets), so
// an even count cancels and an odd count nets to the first (= last) kind.
// Survivors keep first-affected order and carry the source stamp current
// at their last delta — InsertBatch's batch position; single operations
// leave it zero. A pair is keyed by K: itself, or in the ledger a packed
// handle pair, resolved to IDs for survivors only, at drain. A net is
// reusable: drain empties it entry by entry, so an operation costs what it
// touched, not what an earlier one did.
type pairNet[K comparable] struct {
	source  int
	entries []netEntry[K]
	at      map[K]int // position in entries
}

type netEntry[K comparable] struct {
	key          K
	dropped, odd bool // dropped: the first delta's kind
	source       int
}

// add nets one more delta of the pair k.
func (n *pairNet[K]) add(k K, dropped bool) {
	at, ok := n.at[k]
	if !ok {
		if n.at == nil {
			n.at = map[K]int{}
		}
		at = len(n.entries)
		n.at[k] = at
		n.entries = append(n.entries, netEntry[K]{key: k, dropped: dropped})
	}
	e := &n.entries[at]
	e.odd = !e.odd
	e.source = n.source
}

// drain delivers the surviving deltas, their keys resolved by pair, and
// empties the net. A false from f truncates delivery only.
func (n *pairNet[K]) drain(pair func(K) verify.Pair, f func(BatchDelta) bool) bool {
	ok := true
	for _, e := range n.entries {
		delete(n.at, e.key)
		if ok && e.odd {
			ok = f(BatchDelta{PairDelta{pair(e.key), e.dropped}, e.source})
		}
	}
	n.entries = n.entries[:0]
	return ok
}

// flush is drain for an index's yield: the tail of every netted operation.
func (n *pairNet[K]) flush(pair func(K) verify.Pair, yield func(PairDelta) bool) bool {
	return n.drain(pair, func(d BatchDelta) bool { return yield(d.PairDelta) })
}

// samePair is the key resolution of a net keyed by the pairs themselves.
func samePair(p verify.Pair) verify.Pair { return p }

// pairLedger refcounts how many window position pairs (kept entries of
// SNMAlternatives) currently cover each candidate pair and nets the
// 0↔positive transitions — the incremental form of the executed-matching
// set (Fig. 12). Only pairs covered twice or more have a count (multi).
// Counts and net are keyed by packed handle pairs and hold no pointer, so
// the collector never scans them; only a transition that survives the
// operation looks up the two IDs, at flush — before either handle is
// released.
type pairLedger struct {
	multi map[uint64]int32 // handlePair → covering position pairs, ≥ 2
	net   pairNet[uint64]
}

func newPairLedger() *pairLedger { return &pairLedger{multi: map[uint64]int32{}} }

// handlePair packs two handles into one key, the smaller in the high half.
func handlePair(a, b uint32) uint64 {
	return uint64(min(a, b))<<32 | uint64(max(a, b))
}

// coverAll folds one splice's window deltas into the coverage counts: one
// more coverage per add, one fewer per drop; the first nets an add, the
// last a drop. A drop that meets a pair without a count found it covered
// once; an add, its cover over the post-splice kept sequence less its adds
// still to come (a splice lists its drops first). Same-handle pairs are
// ignored (windowStream skips same-ID pairs).
func (l *pairLedger) coverAll(ds []seqDelta, cover func(a, b uint32) int32) {
	for i, d := range ds {
		if d.a == d.b {
			continue
		}
		k := handlePair(d.a, d.b)
		n, counted := l.multi[k]
		if !counted && d.dropped {
			n = 1
		} else if !counted {
			n = cover(d.a, d.b)
			for _, e := range ds[i:] {
				if !e.dropped && handlePair(e.a, e.b) == k {
					n--
				}
			}
		}
		if d.dropped {
			if n--; n == 0 {
				l.net.add(k, true)
			}
		} else if n++; n == 1 {
			l.net.add(k, false)
		}
		if n >= 2 {
			l.multi[k] = n
		} else if counted {
			delete(l.multi, k)
		}
	}
}

// flush delivers the net transitions of the operation as pairs of the
// handles' IDs.
func (l *pairLedger) flush(ids []string, yield func(PairDelta) bool) bool {
	return l.net.flush(func(k uint64) verify.Pair {
		return verify.NewPair(ids[k>>32], ids[uint32(k)])
	}, yield)
}
