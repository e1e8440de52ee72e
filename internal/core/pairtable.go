package core

import (
	"probdedup/internal/decision"
	"probdedup/internal/pdb"
	"probdedup/internal/verify"
)

// pairTable is the Detector's live state in one place: the residents,
// each in a slot whose number (its handle) is stable while it is
// resident, and the live pair decisions, keyed by the two members'
// packed handles. Tuple IDs are resolved to handles once per delta;
// past that, comparing, recording, retracting and walking a tuple's
// partners touch only slices and one integer-keyed map.
//
// Handles never order anything observable: Flush and SnapshotState
// sort by ID and arrival number, and Partners promises no order. A
// removed tuple's slot is reused by a later arrival, so nothing keyed
// by a handle may outlive the residency — Detector.Remove retracts
// every pair of the slot before releasing it.
type pairTable struct {
	slotOf map[string]uint32
	slots  []slot
	free   []uint32
	// seq is the next arrival number (slot.seq).
	seq uint64
	// removing is the ID of the resident Detector.Remove is retracting
	// ("" otherwise), and removingSlot its slot. The index names it in
	// nearly every delta of that operation, a filtering index even in
	// drops of pairs it never admitted, so slot resolves it without the
	// map.
	removing     string
	removingSlot uint32

	// pairs holds the live pairs densely (a retraction moves the last
	// record into the hole), so len(pairs) is the live count and a walk
	// over it is a walk over the live set. index maps
	// pairKey(slot of Pair.A, slot of Pair.B) to the pair's position.
	pairs []livePair
	index map[uint64]int32

	// matches and possible count the live pairs of class M and P.
	matches, possible int
}

// slot is one resident: the standardized tuple the detector compares,
// its arrival number, and the head of its partner list.
type slot struct {
	// x is nil while the slot is free.
	x *pdb.XTuple
	// seq is the arrival number. The incremental-index contract ties
	// candidate tie-breaking to insertion order, so a snapshot lists
	// residents in seq order to restore the indexes bit-identically.
	seq uint64
	// head is the first link of the list of live pairs holding the
	// resident, noLink when there are none.
	head link
}

// livePair is one live pair decision. It holds no pointer (the IDs
// are read from the slots), so the collector never scans the table.
type livePair struct {
	// ends are the slots of Pair.A and Pair.B.
	ends  [2]uint32
	sim   float64
	class decision.Class
	// next and prev chain the pair into the partner list of each end:
	// next[e] and prev[e] are the neighbours in the list of ends[e].
	next, prev [2]link
}

// link names one end of one live pair — position<<1 | end — as an
// element of that end's partner list.
type link int32

const noLink link = -1

func (l link) pair() int32 { return int32(l >> 1) }
func (l link) end() int    { return int(l & 1) }

func linkOf(i int32, end int) link { return link(i<<1 | int32(end)) }

// pairKey packs the two slots of a pair, in the pair's own member order.
func pairKey(a, b uint32) uint64 { return uint64(a)<<32 | uint64(b) }

func newPairTable() pairTable {
	return pairTable{slotOf: map[string]uint32{}, index: map[uint64]int32{}}
}

// admit makes x resident in a free slot, stamped with the next arrival
// number.
func (t *pairTable) admit(x *pdb.XTuple) {
	var s uint32
	if n := len(t.free); n > 0 {
		s = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		s = uint32(len(t.slots))
		t.slots = append(t.slots, slot{})
	}
	t.slots[s] = slot{x: x, seq: t.seq, head: noLink}
	t.seq++
	t.slotOf[x.ID] = s
}

// pinRemoving marks the resident in slot s as the one being removed,
// until release.
func (t *pairTable) pinRemoving(s uint32) {
	t.removing, t.removingSlot = t.slots[s].x.ID, s
}

// release frees a resident's slot. The caller has retracted its pairs.
func (t *pairTable) release(s uint32) {
	delete(t.slotOf, t.slots[s].x.ID)
	t.slots[s] = slot{head: noLink}
	t.free = append(t.free, s)
	t.removing = ""
}

// slot resolves a resident ID to its slot.
func (t *pairTable) slot(id string) (uint32, bool) {
	if id == t.removing && id != "" {
		return t.removingSlot, true
	}
	s, ok := t.slotOf[id]
	return s, ok
}

// tuple returns the resident stored under id.
func (t *pairTable) tuple(id string) (*pdb.XTuple, bool) {
	s, ok := t.slotOf[id]
	if !ok {
		return nil, false
	}
	return t.slots[s].x, true
}

// ends resolves a pair's members to their slots; ok is false when
// either is not resident.
func (t *pairTable) ends(p verify.Pair) (a, b uint32, ok bool) {
	a, okA := t.slot(p.A)
	b, okB := t.slot(p.B)
	return a, b, okA && okB
}

// find returns the position of the live pair of slots a and b. A slot
// with an empty partner list answers without the index: an arrival's
// first candidates, and most of the drops a filtering index yields for
// pairs it never admitted, have such a member.
func (t *pairTable) find(a, b uint32) (int32, bool) {
	if t.slots[a].head == noLink || t.slots[b].head == noLink {
		return 0, false
	}
	i, ok := t.index[pairKey(a, b)]
	return i, ok
}

// lookup returns the position of the live pair p. It resolves the
// members one at a time, the one being removed first, and stops at one
// that is not resident or holds no live pair: a drop of a removed
// tuple without live pairs costs no map lookup at all.
func (t *pairTable) lookup(p verify.Pair) (int32, bool) {
	first, second := p.A, p.B
	if second == t.removing {
		first, second = second, first
	}
	s1, ok := t.slot(first)
	if !ok || t.slots[s1].head == noLink {
		return 0, false
	}
	s2, ok := t.slot(second)
	if !ok {
		return 0, false
	}
	if first != p.A {
		s1, s2 = s2, s1
	}
	return t.find(s1, s2)
}

// match rebuilds the Match of the live pair at position i.
func (t *pairTable) match(i int32) Match {
	p := &t.pairs[i]
	return Match{
		Pair:  verify.Pair{A: t.slots[p.ends[0]].x.ID, B: t.slots[p.ends[1]].x.ID},
		Sim:   p.sim,
		Class: p.class,
	}
}

// put installs a live pair of slots a and b, not yet live; remove is
// its inverse.
func (t *pairTable) put(a, b uint32, sim float64, c decision.Class) {
	i := int32(len(t.pairs))
	t.pairs = append(t.pairs, livePair{ends: [2]uint32{a, b}, sim: sim, class: c})
	t.index[pairKey(a, b)] = i
	t.link(i, 0)
	t.link(i, 1)
	t.count(c, +1)
}

// remove retracts the live pair at position i and returns its Match.
// The last record moves into the hole, so positions held across a
// remove are stale.
func (t *pairTable) remove(i int32) Match {
	m := t.match(i)
	p := t.pairs[i]
	t.unlink(i, 0)
	t.unlink(i, 1)
	delete(t.index, pairKey(p.ends[0], p.ends[1]))
	t.count(p.class, -1)
	last := int32(len(t.pairs) - 1)
	if i != last {
		t.unlink(last, 0)
		t.unlink(last, 1)
		t.pairs[i] = t.pairs[last]
		q := &t.pairs[i]
		t.index[pairKey(q.ends[0], q.ends[1])] = i
		t.link(i, 0)
		t.link(i, 1)
	}
	t.pairs = t.pairs[:last]
	return m
}

// link pushes end e of the pair at position i onto its slot's list.
func (t *pairTable) link(i int32, e int) {
	p := &t.pairs[i]
	s := &t.slots[p.ends[e]]
	p.prev[e], p.next[e] = noLink, s.head
	if s.head != noLink {
		t.pairs[s.head.pair()].prev[s.head.end()] = linkOf(i, e)
	}
	s.head = linkOf(i, e)
}

// unlink takes end e of the pair at position i off its slot's list.
func (t *pairTable) unlink(i int32, e int) {
	p := &t.pairs[i]
	prev, next := p.prev[e], p.next[e]
	if prev == noLink {
		t.slots[p.ends[e]].head = next
	} else {
		t.pairs[prev.pair()].next[prev.end()] = next
	}
	if next != noLink {
		t.pairs[next.pair()].prev[next.end()] = prev
	}
}

// count moves the live M/P counters by delta for one pair of class c.
func (t *pairTable) count(c decision.Class, delta int) {
	switch c {
	case decision.M:
		t.matches += delta
	case decision.P:
		t.possible += delta
	}
}

// partners appends to dst the ID of every tuple holding a live pair of
// class c with slot s, in list order (most recently linked first).
func (t *pairTable) partners(dst []string, s uint32, c decision.Class) []string {
	for l := t.slots[s].head; l != noLink; {
		p := &t.pairs[l.pair()]
		if p.class == c {
			dst = append(dst, t.slots[p.ends[1-l.end()]].x.ID)
		}
		l = p.next[l.end()]
	}
	return dst
}
