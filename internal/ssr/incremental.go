package ssr

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"probdedup/internal/fusion"
	"probdedup/internal/keys"
	"probdedup/internal/pdb"
	"probdedup/internal/verify"
)

// PairDelta is one change to a maintained candidate pair set: a pair
// that entered the set, or (Dropped) a pair that left it. SNM-style
// indexes produce drops when a later insertion pushes two neighbors
// out of the window; blocking indexes only drop pairs on Remove.
type PairDelta struct {
	Pair verify.Pair
	// Dropped marks a pair that left the candidate set.
	Dropped bool
}

// IncrementalIndex maintains a reduction method's candidate pair set
// under tuple insertion and removal, without re-enumerating the search
// space. The contract is exact, not approximate: after any sequence of
// Insert and Remove calls, the accumulated set (apply adds, apply
// drops) equals the batch candidate set of the method over the
// resident tuples in their insertion order — Insert-one-at-a-time is
// equivalent to Candidates on the same relation.
//
// Structural updates are applied unconditionally; a yield returning
// false only truncates delta delivery, it does not roll the index
// back. Indexes are not safe for concurrent use; the detection engine
// serializes access.
type IncrementalIndex interface {
	// Insert registers the tuple and yields the candidate pair deltas
	// it causes: new pairs with resident tuples, plus (for windowed
	// methods) resident pairs the insertion pushed out of the window.
	// It returns false if a yield call stopped delivery early.
	Insert(x *pdb.XTuple, yield func(PairDelta) bool) bool
	// Remove unregisters the tuple and yields the deltas: a drop for
	// every candidate pair involving id, plus (for windowed methods)
	// resident pairs the removal pulled back into the window. Removing
	// an unknown id is a no-op that yields nothing.
	Remove(id string, yield func(PairDelta) bool) bool
	// Len is the resident tuple count.
	Len() int
}

// Staleness reports how far a bounded-staleness index has drifted from
// its last exact reseal.
type Staleness struct {
	// Epoch counts the epochs sealed so far.
	Epoch int
	// Residents is the current resident tuple count.
	Residents int
	// Drifted counts the operations placed by stale decisions since
	// the last reseal.
	Drifted int
	// Bound is the drift fraction (of Residents) that forces an
	// in-band reseal; Drifted/Residents never exceeds it after an
	// operation completes.
	Bound float64
}

// EpochIndex is the bounded-staleness tier of the incremental
// contract. An exact-tier IncrementalIndex reproduces the batch
// candidate set after every operation; an EpochIndex is guaranteed to
// match the batch set only at epoch boundaries, immediately after a
// reseal. Between boundaries it places arrivals with cheap stale
// decisions (nearest-centroid assignment against the sealed epoch's
// centroids) and bounds the drift: once more than Bound of the
// residents were placed by stale decisions, the index reseals in-band
// — inside the Insert or Remove that crossed the bound — so epoch
// transitions surface as ordinary pair deltas on the same yield path
// and downstream consumers need no special casing.
type EpochIndex interface {
	IncrementalIndex
	// Epoch is the number of epochs sealed so far.
	Epoch() int
	// Staleness reports the current drift relative to the bound.
	Staleness() Staleness
	// Reseal forces an epoch boundary now: the index recomputes its
	// placement decisions from scratch — batch-identical over the
	// residents in insertion order — and yields the net pair deltas.
	// After Reseal the maintained set equals the batch candidate set
	// of the residents.
	Reseal(yield func(PairDelta) bool) bool
}

// BatchDelta is one net candidate-pair change of a batch insertion.
// Source is the batch position (0-based) of the insertion that
// settled the pair's final membership — the attribution callers need
// to map a delta (or a failure while applying it) back to a tuple of
// the batch. On an empty sorted-neighborhood index, which files the
// batch in one pass, that is the later batch position of the pair's
// two tuples.
type BatchDelta struct {
	PairDelta
	Source int
}

// InsertBatch registers the tuples with the index in order and
// returns the net pair deltas of the whole batch: intra-batch churn
// cancels out (a pair admitted by one insertion and pushed out of a
// sorted-neighborhood window by a later one never surfaces), and each
// surviving pair appears exactly once, in first-affected order. An
// empty SNMCertain or SNMAlternatives index files the whole batch in
// one pass instead — one sort of every entry, one window pass — and
// yields its adds in the batch stream's order (EnumeratePairs over
// xs).
// Folding the result into a candidate set yields exactly the state
// that folding every Insert's deltas one at a time would — the
// equivalence the incremental engine's determinism tests prove — but
// the deduplicated form lets the expensive downstream verification
// fan out over distinct pairs only.
//
// admit, when non-nil, is consulted for every add the index yields,
// before any bookkeeping: a rejected add is dropped where it is
// generated and costs no netting entry. It must answer the same for a
// pair every time it is asked (the candidate pre-filter does: resident
// values are immutable), so a rejected pair contributes at most drops —
// callers must tolerate a drop of a pair they never held.
//
// Structural updates are applied unconditionally for every tuple;
// the caller is expected to have validated the batch first.
func InsertBatch(idx IncrementalIndex, xs []*pdb.XTuple, admit func(verify.Pair) bool) []BatchDelta {
	if b, ok := idx.(bulkBuild); ok && idx.Len() == 0 {
		return b.build(xs, admit)
	}
	var net pairNet[verify.Pair]
	for i, x := range xs {
		net.source = i
		idx.Insert(x, func(pd PairDelta) bool {
			if pd.Dropped || admit == nil || admit(pd.Pair) {
				net.add(pd.Pair, pd.Dropped)
			}
			return true
		})
	}
	out := make([]BatchDelta, 0, len(net.entries))
	net.drain(samePair, func(d BatchDelta) bool {
		out = append(out, d)
		return true
	})
	return out
}

// IncrementalMethod is a Method that can maintain its candidate set
// online. IncrementalOf dispatches to it, so user-defined methods can
// opt into the incremental detection engine.
type IncrementalMethod interface {
	Method
	// Incremental returns a fresh, empty index maintaining this
	// method's candidate set.
	Incremental() (IncrementalIndex, error)
}

// ErrNotIncremental reports that a reduction method cannot maintain
// its candidate set online. IncrementalOf wraps it with the concrete
// method's name; match it with errors.Is.
var ErrNotIncremental = errors.New("does not support incremental maintenance")

// IncrementalOf returns an empty incremental index for the method. A
// nil method maintains the cross product, mirroring the detection
// engine's default. Every built-in reduction method is incremental:
// most on the exact tier (the maintained set equals the batch
// candidate set after every operation), BlockingCluster on the
// bounded-staleness tier (equality holds at epoch boundaries; see
// EpochIndex). Third-party methods that do not implement
// IncrementalMethod get an error wrapping ErrNotIncremental.
func IncrementalOf(m Method) (IncrementalIndex, error) {
	if m == nil {
		return CrossProduct{}.incremental(), nil
	}
	if im, ok := m.(IncrementalMethod); ok {
		return im.Incremental()
	}
	return nil, fmt.Errorf("ssr: reduction %q %w", m.Name(), ErrNotIncremental)
}

// ---- Cross product ----

// crossIndex pairs every arriving tuple with every resident.
type crossIndex struct {
	ids []string
	pos map[string]int
}

func (CrossProduct) incremental() *crossIndex {
	return &crossIndex{pos: map[string]int{}}
}

// Incremental implements IncrementalMethod.
func (m CrossProduct) Incremental() (IncrementalIndex, error) { return m.incremental(), nil }

// Restore implements RestoringIndex.
func (c *crossIndex) Restore(x *pdb.XTuple) {
	c.pos[x.ID] = len(c.ids)
	c.ids = append(c.ids, x.ID)
}

func (c *crossIndex) Insert(x *pdb.XTuple, yield func(PairDelta) bool) bool {
	c.Restore(x)
	for _, id := range c.ids[:len(c.ids)-1] {
		if !yield(PairDelta{Pair: verify.NewPair(id, x.ID)}) {
			return false
		}
	}
	return true
}

func (c *crossIndex) Remove(id string, yield func(PairDelta) bool) bool {
	p, ok := c.pos[id]
	if !ok {
		return true
	}
	c.ids = append(c.ids[:p], c.ids[p+1:]...)
	delete(c.pos, id)
	for i := p; i < len(c.ids); i++ {
		c.pos[c.ids[i]] = i
	}
	for _, other := range c.ids {
		if !yield(PairDelta{Pair: verify.NewPair(other, id), Dropped: true}) {
			return false
		}
	}
	return true
}

func (c *crossIndex) Len() int { return len(c.ids) }

// ---- Blocking over conflict-resolved keys ----

// blockingCertainIndex is the persistent key→bucket map of
// BlockingCertain: a tuple joins exactly one block and pairs with its
// co-members; blocks only grow under insertion, so no pair ever drops
// until its tuple is removed.
//
// Built by IncrementalFiltered, the index also holds a pre-filter: each
// block keeps its members' signature rows beside their IDs, in the same
// order, and an arrival is admitted against its whole block in one scan
// over them (PreFilter.admitRows). Only survivors become pairs.
type blockingCertainIndex struct {
	key      keys.Def
	strategy fusion.Strategy
	blocks   map[string]block
	keyOf    map[string]string
	filter   *PreFilter // nil: every co-member is yielded
}

// block is one bucket: its members in insertion order and, when the
// index holds a filter, their signature rows in the same order.
type block struct {
	ids  []string
	rows rows
}

// Incremental implements IncrementalMethod.
func (m BlockingCertain) Incremental() (IncrementalIndex, error) {
	return m.incremental(nil), nil
}

func (m BlockingCertain) incremental(f *PreFilter) *blockingCertainIndex {
	strategy := m.Strategy
	if strategy == nil {
		strategy = fusion.MostProbable{}
	}
	return &blockingCertainIndex{
		key:      m.Key,
		strategy: strategy,
		blocks:   map[string]block{},
		keyOf:    map[string]string{},
		filter:   f,
	}
}

// IncrementalFiltered returns an empty incremental index for the method
// that applies the pre-filter f itself, where the method's candidates
// make that cheaper than asking f per pair: today BlockingCertain, whose
// candidates for one arrival all share it and lie contiguously in one
// block. The index keeps its residents' signature rows (so the caller
// must not Insert them into f, nor ask f.Admit about its pairs), yields
// only the add deltas f admits and moves f's counters exactly as one
// Admit per yielded add would. For any other method, or a nil f, it
// returns nil: the caller builds IncrementalOf(m) and asks f per pair.
func IncrementalFiltered(m Method, f *PreFilter) IncrementalIndex {
	if bc, ok := m.(BlockingCertain); ok && f != nil {
		return bc.incremental(f)
	}
	return nil
}

// RestoringIndex is an IncrementalIndex that can file a tuple without
// enumerating its candidate pairs. Restoring a snapshot installs the
// pair decisions directly, so it rebuilds such an index with Restore:
// an index that pre-filters its own adds then runs no cascade and moves
// no counter.
type RestoringIndex interface {
	IncrementalIndex
	// Restore registers the tuple exactly as Insert does and yields
	// nothing.
	Restore(x *pdb.XTuple)
}

// place files x into its block and returns the block as stored and x's
// position in it.
func (b *blockingCertainIndex) place(x *pdb.XTuple) (block, int) {
	k := b.key.FromValues(b.strategy.ResolveX(x))
	blk := b.blocks[k]
	blk.ids = append(blk.ids, x.ID)
	if b.filter != nil {
		b.filter.appendRow(&blk.rows, x)
	}
	b.blocks[k] = blk
	b.keyOf[x.ID] = k
	return blk, len(blk.ids) - 1
}

func (b *blockingCertainIndex) Insert(x *pdb.XTuple, yield func(PairDelta) bool) bool {
	blk, n := b.place(x)
	if b.filter != nil {
		return b.filter.admitRows(&blk.rows, n, func(i int) bool {
			return yield(PairDelta{Pair: verify.NewPair(blk.ids[i], x.ID)})
		})
	}
	for _, id := range blk.ids[:n] {
		if !yield(PairDelta{Pair: verify.NewPair(id, x.ID)}) {
			return false
		}
	}
	return true
}

// Restore implements RestoringIndex.
func (b *blockingCertainIndex) Restore(x *pdb.XTuple) { b.place(x) }

func (b *blockingCertainIndex) Remove(id string, yield func(PairDelta) bool) bool {
	k, ok := b.keyOf[id]
	if !ok {
		return true
	}
	delete(b.keyOf, id)
	blk := b.blocks[k]
	i := slices.Index(blk.ids, id)
	blk.ids = slices.Delete(blk.ids, i, i+1)
	if b.filter != nil {
		b.filter.deleteRow(&blk.rows, i)
	}
	if len(blk.ids) == 0 {
		delete(b.blocks, k)
	} else {
		b.blocks[k] = blk
	}
	for _, other := range blk.ids {
		if !yield(PairDelta{Pair: verify.NewPair(other, id), Dropped: true}) {
			return false
		}
	}
	return true
}

func (b *blockingCertainIndex) Len() int { return len(b.keyOf) }

// removeID deletes the first occurrence of id, preserving order.
func removeID(members []string, id string) []string {
	for i, m := range members {
		if m == id {
			return append(members[:i], members[i+1:]...)
		}
	}
	return members
}

// ---- Blocking with per-alternative keys ----

// blockingAlternativesIndex maintains Fig. 14's multi-membership
// blocks: a tuple joins the block of every alternative key value and
// pairs once with every tuple sharing at least one block. Per-insert
// deduplication replaces the batch path's canonical-block rule.
type blockingAlternativesIndex struct {
	key    keys.Def
	blocks map[string][]string
	keysOf map[string][]string
}

// Incremental implements IncrementalMethod.
func (m BlockingAlternatives) Incremental() (IncrementalIndex, error) {
	return &blockingAlternativesIndex{
		key:    m.Key,
		blocks: map[string][]string{},
		keysOf: map[string][]string{},
	}, nil
}

// blockKeys returns the distinct block keys of the tuple in
// deterministic order.
func (b *blockingAlternativesIndex) blockKeys(x *pdb.XTuple) []string {
	seen := map[string]bool{}
	var ks []string
	for _, kp := range b.key.XTupleKeyDist(x, false) {
		if !seen[kp.Key] {
			seen[kp.Key] = true
			ks = append(ks, kp.Key)
		}
	}
	sort.Strings(ks)
	return ks
}

// Restore implements RestoringIndex: x joins the block of every key.
func (b *blockingAlternativesIndex) Restore(x *pdb.XTuple) {
	ks := b.blockKeys(x)
	b.keysOf[x.ID] = ks
	for _, k := range ks {
		b.blocks[k] = append(b.blocks[k], x.ID)
	}
}

func (b *blockingAlternativesIndex) Insert(x *pdb.XTuple, yield func(PairDelta) bool) bool {
	b.Restore(x)
	paired := map[string]bool{x.ID: true}
	var counterparts []string
	for _, k := range b.keysOf[x.ID] {
		for _, id := range b.blocks[k] {
			if !paired[id] {
				paired[id] = true
				counterparts = append(counterparts, id)
			}
		}
	}
	for _, id := range counterparts {
		if !yield(PairDelta{Pair: verify.NewPair(id, x.ID)}) {
			return false
		}
	}
	return true
}

func (b *blockingAlternativesIndex) Remove(id string, yield func(PairDelta) bool) bool {
	ks, ok := b.keysOf[id]
	if !ok {
		return true
	}
	delete(b.keysOf, id)
	dropped := map[string]bool{}
	var counterparts []string
	for _, k := range ks {
		b.blocks[k] = removeID(b.blocks[k], id)
		for _, other := range b.blocks[k] {
			if !dropped[other] {
				dropped[other] = true
				counterparts = append(counterparts, other)
			}
		}
		if len(b.blocks[k]) == 0 {
			delete(b.blocks, k)
		}
	}
	for _, other := range counterparts {
		if !yield(PairDelta{Pair: verify.NewPair(other, id), Dropped: true}) {
			return false
		}
	}
	return true
}

func (b *blockingAlternativesIndex) Len() int { return len(b.keysOf) }

// ---- Sorted neighborhood over conflict-resolved keys ----

// snmCertainIndex is one keyedSeq over the conflict-resolved keys (ties
// by insertion order, matching the batch method's stable sort): inserting
// a tuple adds its window neighbors and drops the straddling pairs its
// insertion pushed exactly one position out of the window; removing a
// tuple drops its window pairs and re-adds the straddling pairs the
// removal pulled back in. Each resident occurs once in the sequence, so
// no two deltas of one splice share a pair and nothing needs netting. A
// splice costs a binary search, a walk of the chunk directory and a shift
// inside one chunk (chunkSeq).
type snmCertainIndex struct {
	key      keys.Def
	strategy fusion.Strategy
	seq      keyedSeq
	res      handleTable[string] // each resident's key
	scratch  []seqDelta
}

// Incremental implements IncrementalMethod.
func (m SNMCertain) Incremental() (IncrementalIndex, error) {
	strategy := m.Strategy
	if strategy == nil {
		strategy = fusion.MostProbable{}
	}
	return &snmCertainIndex{
		key:      m.Key,
		strategy: strategy,
		seq:      keyedSeq{newWindowSeq(m.Window, seqChunkCap)},
		res:      newHandleTable[string](),
	}, nil
}

func (s *snmCertainIndex) Len() int { return s.seq.n }

func (s *snmCertainIndex) Insert(x *pdb.XTuple, yield func(PairDelta) bool) bool {
	k := s.key.FromValues(s.strategy.ResolveX(x))
	s.scratch = s.seq.insert(k, s.res.add(x.ID, k), s.scratch[:0])
	return yieldAll(s.scratch, s.res.ids, yield)
}

// build implements bulkBuild: every key sorted once, then one window
// pass, whose pairs are all distinct.
func (s *snmCertainIndex) build(xs []*pdb.XTuple, admit func(verify.Pair) bool) []BatchDelta {
	hs, es := make([]uint32, len(xs)), make([]seqEntry, len(xs))
	for i, x := range xs {
		k := s.key.FromValues(s.strategy.ResolveX(x))
		hs[i] = s.res.add(x.ID, k)
		es[i] = seqEntry{key: k, h: hs[i]}
	}
	adds := newBulkAdds(s.res.ids, hs, admit)
	slices.SortFunc(es, adds.byKey)
	s.seq.lay(es)
	windowPairs(es, s.seq.window, adds.add)
	return adds.out
}

func (s *snmCertainIndex) Remove(id string, yield func(PairDelta) bool) bool {
	h, ok := s.res.of[id]
	if !ok {
		return true
	}
	s.scratch = s.seq.remove(s.res.vals[h], h, s.scratch[:0])
	ok = yieldAll(s.scratch, s.res.ids, yield)
	s.res.release(h)
	return ok
}

// yieldAll delivers a splice's deltas in order, as pairs of IDs.
func yieldAll(ds []seqDelta, ids []string, yield func(PairDelta) bool) bool {
	for _, d := range ds {
		if !yield(d.pair(ids)) {
			return false
		}
	}
	return true
}

// ---- Length-pruned composition ----

// filteredIndex wraps an inner incremental index with Filter's length
// filter: a tuple's length profile is computed once at insertion, and
// deltas of pairs the filter rejects are suppressed in both directions,
// so the maintained set equals the batch Filter candidates.
type filteredIndex struct {
	inner IncrementalIndex
	lengthFilter
}

// Incremental implements IncrementalMethod: the composition is
// incremental exactly when the inner method is.
func (f Filter) Incremental() (IncrementalIndex, error) {
	inner, err := IncrementalOf(f.Inner)
	if err != nil {
		return nil, fmt.Errorf("ssr: %s: %w", f.Name(), err)
	}
	return &filteredIndex{inner: inner, lengthFilter: f.Prune.newLengthFilter()}, nil
}

// relay forwards admitted deltas only.
func (f *filteredIndex) relay(yield func(PairDelta) bool) func(PairDelta) bool {
	return func(d PairDelta) bool {
		return !f.keep(d.Pair) || yield(d)
	}
}

func (f *filteredIndex) Insert(x *pdb.XTuple, yield func(PairDelta) bool) bool {
	f.add(x)
	return f.inner.Insert(x, f.relay(yield))
}

// Restore implements RestoringIndex: the inner index files x by its own
// Restore, else by an Insert whose yield stops at the first delta (an
// index applies its structural update whatever the yield answers).
func (f *filteredIndex) Restore(x *pdb.XTuple) {
	f.add(x)
	if ri, ok := f.inner.(RestoringIndex); ok {
		ri.Restore(x)
	} else {
		f.inner.Insert(x, func(PairDelta) bool { return false })
	}
}

func (f *filteredIndex) Remove(id string, yield func(PairDelta) bool) bool {
	// The profile is dropped after delivery: drops of pairs involving
	// id must still see its profile to be admitted consistently.
	ok := f.inner.Remove(id, f.relay(yield))
	delete(f.profiles, id)
	return ok
}

func (f *filteredIndex) Len() int { return f.inner.Len() }

// Interface conformance checks.
var (
	_ IncrementalMethod = CrossProduct{}
	_ IncrementalMethod = SNMCertain{}
	_ IncrementalMethod = BlockingCertain{}
	_ IncrementalMethod = BlockingAlternatives{}
	_ IncrementalMethod = Filter{}
	_ RestoringIndex    = (*crossIndex)(nil)
	_ RestoringIndex    = (*blockingCertainIndex)(nil)
	_ RestoringIndex    = (*blockingAlternativesIndex)(nil)
	_ RestoringIndex    = (*filteredIndex)(nil)
)
