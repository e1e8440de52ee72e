package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"probdedup/internal/avm"
	"probdedup/internal/decision"
	"probdedup/internal/pdb"
	"probdedup/internal/prepare"
	"probdedup/internal/ssr"
	"probdedup/internal/verify"
)

// ErrUnknownID reports a Remove whose tuple ID is not resident.
// Removing is intentionally not idempotent: a remove-twice or a
// remove-before-add is a caller bug the detector surfaces instead of
// swallowing. Test with errors.Is.
var ErrUnknownID = errors.New("unknown tuple ID")

// BatchError reports the tuple that made an AddBatch call fail and
// documents the partial-apply boundary. Index is the batch position
// (0-based) of the failing tuple. For validation failures — nil
// tuple, arity mismatch, duplicate ID; the only errors the built-in
// reductions can produce — tuples before Index are fully applied and
// resident, and tuples at and after Index are not. A comparison
// failure (possible only with a misbehaving user-defined
// IncrementalMethod yielding pairs of unregistered tuples) leaves
// every batch tuple resident with the pair decisions up to the
// failing delta applied; Index then names the tuple whose insertion
// settled the failing pair. BatchError wraps the underlying cause.
type BatchError struct {
	Index int
	Err   error
}

// Error implements the error interface.
func (e *BatchError) Error() string {
	return fmt.Sprintf("batch tuple %d: %v", e.Index, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *BatchError) Unwrap() error { return e.Err }

// DeltaKind distinguishes the two changes an online detection run can
// make to its declared pair sets M and P.
type DeltaKind int

const (
	// DeltaAdd reports a pair that entered M or P, with its freshly
	// computed similarity and class. A comparison that ends in U is
	// counted (DetectorStats.Compared) and reported by no delta: U is
	// the complement of M and P, not state.
	DeltaAdd DeltaKind = iota
	// DeltaDrop reports a pair that left M or P — because a tuple was
	// removed, or because a later insertion pushed the pair out of a
	// sorted-neighborhood window. Match holds the pair's last decision.
	DeltaDrop
)

// String names the kind.
func (k DeltaKind) String() string {
	if k == DeltaDrop {
		return "drop"
	}
	return "add"
}

// MatchDelta is one change to the detector's live pair set M ∪ P,
// emitted through the callback as it happens.
type MatchDelta struct {
	Kind DeltaKind
	Match
}

// DetectorStats summarizes the state and cumulative work of a
// Detector.
type DetectorStats struct {
	// Residents is the current number of resident tuples.
	Residents int
	// Compared counts the pair comparisons performed since
	// construction, whatever their class (re-entering pairs are
	// re-compared).
	Compared int
	// Dropped counts the live pairs retracted since construction.
	Dropped int
	// Live, Matches and Possible are the current sizes of M ∪ P, M and
	// P; Live = Matches + Possible.
	Live, Matches, Possible int
	// TotalPairs is the unreduced search-space size of the resident
	// relation, n(n-1)/2.
	TotalPairs int
	// Stopped reports that the emit callback ended delta delivery.
	Stopped bool
	// Staleness reports the epoch drift of a bounded-staleness
	// reduction index (ssr.EpochIndex, e.g. BlockingCluster); nil for
	// exact-tier reductions.
	Staleness *ssr.Staleness
	// Cache holds the similarity memo's counters (zero value unless
	// Options.CacheCapacity opted in).
	Cache avm.CacheStats
	// Enumerated counts the add deltas the reduction index presented
	// to the pre-filter since construction (0 with the filter off).
	// Every one of them is either rejected (Filtered) or compared, so
	// Enumerated = Compared + Filtered whenever no pair enters and
	// leaves the candidate set inside one AddBatch — always for
	// blocking and the cross product. A windowed reduction's batch can
	// admit a pair that a later insertion of the same batch pushes out
	// again, uncompared: there Enumerated ≥ Compared + Filtered.
	Enumerated int
	// Filtered counts the presented pairs rejected as provable
	// non-matches; they never become deltas.
	Filtered int
	// FilterActive reports whether the candidate pre-filter is
	// constructed and consulted.
	FilterActive bool
}

// Engine is the mutation surface every online engine shares: Detector,
// resolve.Integrator and their wal durable wrappers all satisfy it, so
// the durability layer, the shard router and the CLIs drive any of
// them through one type.
type Engine interface {
	Add(x *pdb.XTuple) error
	AddBatch(xs []*pdb.XTuple) error
	Remove(id string) error
	Len() int
	ResidentIDs() []string
}

// Detector is the long-lived online detection engine: tuples arrive
// (and leave) one at a time or in batches, and each arrival is
// compared only against the candidates produced by incremental index
// maintenance (ssr.IncrementalIndex) instead of re-running the batch
// pipeline. Every built-in reduction method is supported. For the
// exact tier — cross product, SNMCertain, SNMRanked (all strategies),
// SNMAlternatives, SNMMultiPass, BlockingCertain,
// BlockingAlternatives, and pruned compositions — ingestion is
// equivalent to batch Detect: after any sequence of Add, AddBatch and
// Remove calls, Flush returns exactly the Result Detect would produce
// on the resident relation restricted to M ∪ P, at any
// Options.Workers setting.
// BlockingCluster runs on the bounded-staleness tier (ssr.EpochIndex):
// between epoch reseals arrivals join the block of their nearest
// centroid, and Flush matches batch Detect right after a reseal —
// automatic when the fixed drift bound (a quarter of the residents) is
// crossed, or forced with Reseal. Stats reports the current drift.
//
// The detector reuses the batch engine's machinery: the fold-based
// comparison kernel (with Options.CacheCapacity opted in, one bounded
// similarity memo shared across the detector's lifetime and all
// workers), the configured decision model and DetectStream's worker
// pool: an operation's additions are verified through it (small
// per-arrival candidate sets on the calling goroutine, AddBatch and big
// blocks across Options.Workers), then state updates and delta
// emission run sequentially and deterministically.
//
// Unlike DetectStream, the detector retains per-pair state — the
// pairs currently in M or P, never a U pair — so it can retract
// decisions on Remove and answer Flush exactly; memory grows with the
// live M ∪ P count, not with the candidate count. All methods are
// safe for concurrent use. The emit callback is invoked sequentially
// (never concurrently with itself), in state-change order, strictly
// outside the detector's internal lock: it may call back into the
// detector (Stats, Len, Flush, a follow-up Add or Remove) without
// deadlocking. Deltas caused by a re-entrant mutation are delivered
// after the deltas already queued.
type Detector struct {
	mu  sync.Mutex
	eng *engine
	idx ssr.IncrementalIndex
	// filter is the pre-filter the detector asks per pair: the engine's,
	// unless the index took it over (ssr.IncrementalFiltered) — then nil,
	// as with the filter off, and eng.filter only counts.
	filter *ssr.PreFilter
	std    *prepare.Standardizer
	// live holds the residents and the live M and P decisions. Each
	// resident's pairs are chained into its partner list, so Remove
	// retracts in O(degree) instead of sweeping the whole live set, and
	// the Integrator walks M and P partners (Partners) without a copy of
	// its own.
	live     pairTable
	compared int
	dropped  int

	// deltaBuf and jobBuf are reusable scratch for one operation's
	// index deltas and its comparisons. Guarded by mu.
	deltaBuf []ssr.PairDelta
	jobBuf   []compareJob

	// emits buffers deltas in state-change order while mu is held and
	// delivers them strictly outside it, so the callback can re-enter
	// the detector (see EmitQueue).
	emits *EmitQueue[MatchDelta]
}

// NewDetector builds an empty online detection engine over the given
// schema. Options are validated exactly as in Detect (thresholds,
// comparison function arity, decision model arity); additionally the
// reduction method must support incremental maintenance (see
// ssr.IncrementalOf). Options.Workers bounds the goroutines the
// verification phase fans out across when a single Add or AddBatch
// produces enough candidate pairs; it never changes classifications
// or the emitted delta stream, only throughput. emit receives every
// change to the live pair set M ∪ P as it happens and may be nil when
// only Flush snapshots are needed; a false return permanently stops
// delta delivery (state maintenance continues).
func NewDetector(schema []string, opts Options, emit func(MatchDelta) bool) (*Detector, error) {
	xr := pdb.NewXRelation("detector", schema...)
	eng, err := newEngine(xr, opts)
	if err != nil {
		return nil, err
	}
	eng.stopAtU = true // a U outcome is not state (recordMatch)
	idx, filter := ssr.IncrementalFiltered(opts.Reduction, eng.filter), eng.filter
	if idx != nil {
		filter = nil
	} else if idx, err = ssr.IncrementalOf(opts.Reduction); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Detector{
		eng:    eng,
		idx:    idx,
		filter: filter,
		std:    opts.Standardizer,
		live:   newPairTable(),
		emits:  NewEmitQueue(emit),
	}, nil
}

// Add inserts one tuple: it is standardized (when a Standardizer is
// configured), validated, registered with the incremental index, and
// compared against each candidate pair the index yields. Deltas are
// emitted after the state update, outside the detector's lock. The
// tuple is deep-copied, so the caller may keep mutating its own
// instance.
func (d *Detector) Add(x *pdb.XTuple) error {
	d.mu.Lock()
	err := d.addLocked(x)
	d.mu.Unlock()
	d.drainEmits()
	return err
}

// AddBatch inserts the tuples in order, as one unit of work: the
// whole batch is validated and registered first, the incremental
// index enumerates the batch's net candidate-pair deltas (intra-batch
// window churn cancels out, see ssr.InsertBatch), the expensive
// verification of net-new pairs fans out across Options.Workers, and
// state updates plus delta emission follow sequentially in a
// deterministic order. The emitted delta stream is the batch's net
// effect — a pair that enters and leaves the candidate set within the
// same batch is not reported.
//
// On failure AddBatch returns a *BatchError naming the failing batch
// position and the partial-apply boundary: the tuples before it are
// resident with their pair decisions applied, exactly as if they had
// been added alone.
func (d *Detector) AddBatch(xs []*pdb.XTuple) error {
	d.mu.Lock()
	err := d.addBatchLocked(xs)
	d.mu.Unlock()
	d.drainEmits()
	return err
}

func (d *Detector) addBatchLocked(xs []*pdb.XTuple) error {
	prepared := make([]*pdb.XTuple, 0, len(xs))
	var prepErr *BatchError
	for i, x := range xs {
		y, err := d.prepareTuple(x)
		if err != nil {
			prepErr = &BatchError{Index: i, Err: err}
			break
		}
		d.register(y)
		prepared = append(prepared, y)
	}
	batch := ssr.InsertBatch(d.idx, prepared, d.admit)
	d.deltaBuf = ReuseScratch(d.deltaBuf)
	for _, bd := range batch {
		d.deltaBuf = append(d.deltaBuf, bd.PairDelta)
	}
	if k, err := d.applyDeltas(d.deltaBuf); err != nil {
		return &BatchError{Index: batch[k].Source, Err: err}
	}
	if prepErr != nil {
		return prepErr
	}
	return nil
}

func (d *Detector) addLocked(x *pdb.XTuple) error {
	y, err := d.prepareTuple(x)
	if err != nil {
		return err
	}
	d.register(y)
	d.deltaBuf = ReuseScratch(d.deltaBuf)
	d.idx.Insert(y, d.collect)
	_, err = d.applyDeltas(d.deltaBuf)
	return err
}

// admit is the detector's one per-pair pre-filter site: every add delta
// an index yields — from Add, AddBatch, Remove's window re-entries and
// Reseal — passes it where it is generated, the same place
// DetectStream filters, so a provable non-match never becomes a
// delta, a netting entry or a live lookup. Drops are never asked. An
// index that took the filter over has already admitted what it yields.
func (d *Detector) admit(p verify.Pair) bool {
	return d.filter == nil || d.filter.Admit(p)
}

// collect is the yield of the single-operation index calls: it gathers
// the operation's drops and admitted adds in deltaBuf.
func (d *Detector) collect(pd ssr.PairDelta) bool {
	if pd.Dropped || d.admit(pd.Pair) {
		d.deltaBuf = append(d.deltaBuf, pd)
	}
	return true
}

// prepareTuple standardizes, deep-copies and validates one arriving
// tuple without touching detector state.
func (d *Detector) prepareTuple(x *pdb.XTuple) (*pdb.XTuple, error) {
	if x == nil {
		return nil, fmt.Errorf("core: Add of nil x-tuple")
	}
	if d.std != nil {
		x = d.std.XTuple(x)
	} else {
		x = x.Clone()
	}
	if err := x.Validate(len(d.eng.xr.Schema)); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if _, dup := d.live.slotOf[x.ID]; dup {
		return nil, fmt.Errorf("core: duplicate tuple ID %q", x.ID)
	}
	// Populate the symbol plane at arrival time: the tuple is the
	// detector's private copy, so interning (which replaces value
	// annotations) never touches the caller's instance.
	prepare.InternXTuple(d.eng.symtab, x)
	return x, nil
}

// register makes a prepared tuple resident and summarizes it for the
// per-pair pre-filter (an index holding the filter summarizes its own
// residents).
func (d *Detector) register(x *pdb.XTuple) {
	d.live.admit(x)
	if d.filter != nil {
		d.filter.Insert(x)
	}
}

// Reseal forces a bounded-staleness reduction index (ssr.EpochIndex,
// e.g. BlockingCluster) to seal its epoch now: the index recomputes
// its placement decisions batch-identically over the residents, and
// the resulting pair churn flows through the ordinary delta path —
// re-blocked pairs are compared, vanished ones retracted, and the
// emit callback sees plain add/drop deltas. Right after Reseal, Flush
// equals batch Detect on the resident relation. For exact-tier
// reductions (every other built-in method) Reseal is a no-op: their
// maintained set already equals the batch set after every operation.
// Reseal is not part of Engine: the Integrator and the durable engines
// see only the in-band reseals of Add, AddBatch and Remove.
func (d *Detector) Reseal() error {
	d.mu.Lock()
	var err error
	if ei, ok := d.idx.(ssr.EpochIndex); ok {
		d.deltaBuf = ReuseScratch(d.deltaBuf)
		ei.Reseal(d.collect)
		_, err = d.applyDeltas(d.deltaBuf)
	}
	d.mu.Unlock()
	d.drainEmits()
	return err
}

// Remove drops the tuple from the resident relation: the index yields
// a retraction for every candidate pair involving it (plus, for
// windowed reductions, re-entrant neighbor pairs, which are
// re-compared), and a defensive sweep guarantees that no pair decision
// involving the removed tuple survives in the detector's state — so a
// later re-Add with the same ID is classified from scratch, never from
// a stale pair decision. An opted-in memo needs no invalidation: its
// entries are keyed by attribute and value content, not tuple
// identity, and similarities of values are immutable. Removing an ID
// that is not resident — never added, or already removed — fails with
// an error wrapping ErrUnknownID and changes nothing.
func (d *Detector) Remove(id string) error {
	d.mu.Lock()
	err := d.removeLocked(id)
	d.mu.Unlock()
	d.drainEmits()
	return err
}

func (d *Detector) removeLocked(id string) error {
	s, ok := d.live.slotOf[id]
	if !ok {
		return fmt.Errorf("core: Remove: %w %q", ErrUnknownID, id)
	}

	d.live.pinRemoving(s)
	d.deltaBuf = ReuseScratch(d.deltaBuf)
	d.idx.Remove(id, d.collect)
	_, firstErr := d.applyDeltas(d.deltaBuf)

	// Defensive sweep: the index contract already retracts every pair
	// of id, but a buggy user-defined IncrementalMethod must not be
	// able to leave stale decisions behind. The partner list makes this
	// O(degree), not O(live set), and it must be empty before the slot
	// is released for reuse.
	for l := d.live.slots[s].head; l != noLink; l = d.live.slots[s].head {
		d.retractAt(l.pair())
	}

	d.live.release(s)
	if d.filter != nil {
		d.filter.Remove(id)
	}
	return firstErr
}

// applyDeltas folds index deltas — already past the pre-filter, see
// admit — into the classified set. Every addition is compared first,
// through the engine's worker pool; then, in delta order, dropped pairs
// are retracted, compared pairs are recorded and every resulting
// MatchDelta is enqueued, so the delivered stream is deterministic for
// a given delta sequence at any worker count. An addition whose pair is
// live by its turn is skipped (values are immutable while resident):
// only a user-defined IncrementalMethod yields one, and only its
// comparison is wasted. On a comparison error the deltas preceding the
// failing one stay applied and its position in deltas is returned.
func (d *Detector) applyDeltas(deltas []ssr.PairDelta) (int, error) {
	adds := 0
	for _, pd := range deltas {
		if !pd.Dropped {
			adds++
		}
	}
	jobs := slices.Grow(d.jobBuf, adds)
	defer func() {
		clear(jobs) // the kept scratch must not pin a removed tuple
		d.jobBuf = ReuseScratch(jobs)
	}()
	for _, pd := range deltas {
		if !pd.Dropped {
			j := compareJob{m: Match{Pair: pd.Pair}}
			var ok bool
			if j.a, j.b, ok = d.live.ends(pd.Pair); ok {
				j.x1, j.x2 = d.live.slots[j.a].x, d.live.slots[j.b].x
			}
			jobs = append(jobs, j)
		}
	}
	d.eng.compareAll(jobs)

	k := 0
	for i, pd := range deltas {
		if pd.Dropped {
			d.retractPair(pd.Pair)
			continue
		}
		j := &jobs[k]
		k++
		if j.x1 == nil {
			return i, unknownTuples(pd.Pair)
		}
		if _, live := d.live.find(j.a, j.b); !live {
			d.recordMatch(j.a, j.b, j.m)
		}
	}
	return 0, nil
}

// recordMatch counts one fresh comparison of slots a and b. A pair
// classified M or P enters the live state and enqueues its add delta;
// a U pair leaves nothing behind, so its later drop is a no-op.
func (d *Detector) recordMatch(a, b uint32, m Match) {
	d.compared++
	if m.Class == decision.U {
		return
	}
	d.live.put(a, b, m.Sim, m.Class)
	d.enqueueDelta(MatchDelta{Kind: DeltaAdd, Match: m})
}

// retractPair retracts a live pair; unknown pairs are ignored.
func (d *Detector) retractPair(p verify.Pair) {
	if i, ok := d.live.lookup(p); ok {
		d.retractAt(i)
	}
}

// retractAt removes the live pair at position i of the pair table and
// enqueues its drop.
func (d *Detector) retractAt(i int32) {
	m := d.live.remove(i)
	d.dropped++
	d.enqueueDelta(MatchDelta{Kind: DeltaDrop, Match: m})
}

// enqueueDelta buffers one delta for delivery outside the state lock
// (callers hold d.mu); drainEmits delivers after the lock is
// released. Both delegate to the shared EmitQueue.
func (d *Detector) enqueueDelta(md MatchDelta) { d.emits.Enqueue(md) }

func (d *Detector) drainEmits() { d.emits.Drain() }

// Flush materializes the current state as an exact Result — the Result
// Detect would produce on the resident relation, restricted to M ∪ P:
// every live pair in deterministic order with similarity and class
// (Compared and ByPair hold no U pair), the declared M and P sets, and
// the arithmetic search-space size.
func (d *Detector) Flush() *Result {
	d.mu.Lock()
	defer d.mu.Unlock()
	return newResult(len(d.live.pairs), ssr.TotalPairs(len(d.live.slotOf)), func(i int) Match {
		return d.live.match(int32(i))
	})
}

// Resident returns the resident tuple stored for id — the
// standardized deep copy the detector compares, not the instance the
// caller passed to Add. Downstream consumers (the resolve.Integrator)
// fuse these exact tuples so that incremental fusion is bit-identical
// to the batch pipeline's. The returned tuple is shared with the
// detector and must be treated as read-only; resident values are
// immutable, so the pointer stays valid until the tuple is removed.
func (d *Detector) Resident(id string) (*pdb.XTuple, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.live.tuple(id)
}

// Partners appends to dst every tuple that holds a live pair of class
// c with id, in no particular order, and returns the extended slice —
// the M and P graphs the resolve.Integrator groups entities and
// propagates refusals over, read from the detector's own pair index
// instead of a mirror. A function rather than a method, so the public
// Detector type does not grow.
func Partners(d *Detector, dst []string, id string, c decision.Class) []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	if s, ok := d.live.slotOf[id]; ok {
		dst = d.live.partners(dst, s, c)
	}
	return dst
}

// ResidentIDs returns the IDs of all resident tuples in sorted order.
// Shard routers use it after durable recovery to rebuild their
// ID-to-shard admission map from the engines themselves.
func (d *Detector) ResidentIDs() []string {
	d.mu.Lock()
	ids := make([]string, 0, len(d.live.slotOf))
	for _, s := range d.live.slots {
		if s.x != nil {
			ids = append(ids, s.x.ID)
		}
	}
	d.mu.Unlock()
	sort.Strings(ids)
	return ids
}

// Len returns the resident tuple count.
func (d *Detector) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.live.slotOf)
}

// Stats summarizes the detector's state and cumulative work.
func (d *Detector) Stats() DetectorStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := DetectorStats{
		Residents:  len(d.live.slotOf),
		Compared:   d.compared,
		Dropped:    d.dropped,
		Live:       len(d.live.pairs),
		Matches:    d.live.matches,
		Possible:   d.live.possible,
		TotalPairs: ssr.TotalPairs(len(d.live.slotOf)),
		Stopped:    d.emits.Stopped(),
	}
	if ei, ok := d.idx.(ssr.EpochIndex); ok {
		stale := ei.Staleness()
		st.Staleness = &stale
	}
	if d.eng.cache != nil {
		st.Cache = d.eng.cache.Stats()
	}
	if d.eng.filter != nil {
		fs := d.eng.filter.Stats()
		st.FilterActive = true
		st.Enumerated = int(fs.Enumerated)
		st.Filtered = int(fs.Filtered)
	}
	return st
}
