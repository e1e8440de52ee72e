// Package shard routes an online detection workload across N
// independent engine instances by conflict-resolved blocking key.
//
// The sharding rides the per-block independence of classical blocking
// (ssr.BlockingCertain, Sec. V-B): a candidate pair exists only inside
// one block, a block's key is a pure function of one tuple, and so a
// whole block can be pinned to one shard. The Router hashes each
// arrival's conflict-resolved key and forwards the operation to the
// owning shard's engine (a core.Detector, or a resolve.Integrator in
// integrate mode, optionally wrapped in wal durable state under
// per-shard directories). Because no candidate pair ever crosses a
// block — and hence never crosses a shard — the union of the per-shard
// results equals a single-instance run on the merged input: Flush
// returns exactly the core.Result one engine would, and the merged
// delta streams carry the same multiset of events. Reduction methods
// whose candidates can span arbitrary tuple pairs (cross product, the
// sorted-neighborhood family, BlockingAlternatives, BlockingCluster)
// are rejected with ErrNotShardable; pruned compositions
// (ssr.Filter) shard whenever their inner method does, since pruning
// only removes pairs block-locally.
//
// Admission is bounded: each shard owns a FIFO operation queue of
// fixed depth, and Ingest/Remove fail with *OverloadedError instead of
// blocking when the owning shard's queue is full — the backpressure
// signal pdedupd turns into HTTP 429. Deltas fan out to subscribers
// through buffered channels; a subscriber that stops draining is
// dropped (its channel closed) rather than stalling the shard workers.
package shard

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"probdedup/internal/core"
	"probdedup/internal/fusion"
	"probdedup/internal/keys"
	"probdedup/internal/pdb"
	"probdedup/internal/prepare"
	"probdedup/internal/resolve"
	"probdedup/internal/ssr"
	"probdedup/internal/verify"
	"probdedup/internal/wal"
)

// DefaultQueueDepth bounds each shard's pending-operation queue when
// Config.QueueDepth is zero.
const DefaultQueueDepth = 1024

// shardBatchCap caps how many queued insertions a shard worker
// coalesces into one AddBatch call.
const shardBatchCap = 256

// ErrNotShardable reports a reduction method whose candidate pairs can
// cross shard boundaries; only blocking over conflict-resolved certain
// keys (optionally pruned) partitions the search space by a
// per-tuple key.
var ErrNotShardable = errors.New("shard: reduction method is not shardable")

// ErrClosed reports an operation on a closed Router.
var ErrClosed = errors.New("shard: router closed")

// ErrShardFailed marks a shard's sticky apply error: once a shard
// worker's engine fails, every later operation routed to that shard
// returns it, wrapping the cause. The fault is the server's, not the
// request's — pdedupd answers 500 — and retrying does not clear it.
var ErrShardFailed = errors.New("shard failed")

// OverloadedError reports an admission rejected because the owning
// shard's queue was at capacity. Callers should retry after draining;
// pdedupd maps it to HTTP 429 with Retry-After.
type OverloadedError struct {
	// Shard is the shard whose queue was full.
	Shard int
	// Queued is the queue occupancy observed at rejection.
	Queued int
}

// Error implements error.
func (e *OverloadedError) Error() string {
	return fmt.Sprintf("shard: shard %d queue full (%d pending)", e.Shard, e.Queued)
}

// ShardCountMismatchError reports a durable state directory created
// with a different shard count: reopening with a new N would route
// residents to different shards and break the union equivalence.
type ShardCountMismatchError struct {
	Dir        string
	Have, Want int
}

// Error implements error.
func (e *ShardCountMismatchError) Error() string {
	return fmt.Sprintf("shard: state dir %s was created with %d shards, reopening with %d", e.Dir, e.Have, e.Want)
}

// Config configures a Router.
type Config struct {
	// Shards is the number of engine instances (0 means 1).
	Shards int
	// Schema names the attributes of arriving tuples.
	Schema []string
	// Opts configures each shard engine exactly as core.NewDetector;
	// Opts.Reduction must be shardable (see ErrNotShardable).
	// Opts.Durability applies per shard when StateDir is set.
	Opts core.Options
	// Integrate composes a resolve.Integrator per shard instead of a
	// bare detector: entity deltas replace match deltas and
	// FlushEntities becomes available.
	Integrate bool
	// StateDir, when non-empty, makes every shard durable under
	// StateDir/shard-K (wal.OpenDurable); the directory records the
	// shard count and refuses to reopen with a different one.
	StateDir string
	// QueueDepth bounds each shard's pending-operation queue
	// (0 means DefaultQueueDepth).
	QueueDepth int
}

// MatchEvent is one shard's match delta with its origin.
type MatchEvent struct {
	Shard int
	Delta core.MatchDelta
}

// EntityEvent is one shard's entity delta with its origin.
type EntityEvent struct {
	Shard int
	Delta resolve.EntityDelta
}

// ShardStats is one shard's introspection snapshot.
type ShardStats struct {
	// Shard is the shard index.
	Shard int
	// Queue and QueueCap are the pending-operation queue occupancy and
	// bound.
	Queue, QueueCap int
	// Detector holds the shard engine's detector stats.
	Detector core.DetectorStats
	// Entities is the shard's resolved entity count (integrate mode
	// only; 0 otherwise).
	Entities int
	// Err carries the shard's sticky apply failure, if any.
	Err string `json:",omitempty"`
}

// Stats aggregates the router's state across shards.
type Stats struct {
	// Shards is the shard count.
	Shards int
	// Detector sums the per-shard detector stats; TotalPairs is
	// recomputed over the merged resident count, so it reports the
	// search-space size of the equivalent single-instance run.
	Detector core.DetectorStats
	// Entities sums the per-shard entity counts (integrate mode).
	Entities int
	// DroppedSubscribers counts the delta subscribers the non-blocking
	// fan-out has dropped for falling behind, since the router opened.
	DroppedSubscribers int
	// PerShard lists each shard's snapshot in shard order.
	PerShard []ShardStats
}

// detectorReads and integratorReads are the typed read handles of the
// two engine modes; the plain engines and their wal durable wrappers
// satisfy them alike.
type detectorReads interface {
	Flush() *core.Result
	Stats() core.DetectorStats
}

type integratorReads interface {
	Flush() (*resolve.Resolution, error)
	FlushResult() *core.Result
	Stats() resolve.IntegratorStats
}

// op is one queued shard operation: an insertion, a removal, or a
// barrier that the worker acknowledges once everything before it has
// been applied. hold is a test seam: the worker parks on it, letting
// tests fill a queue deterministically.
type op struct {
	tuple   *pdb.XTuple
	remove  string
	barrier chan struct{}
	hold    chan struct{}
}

// shardState is one shard: its engine, its FIFO queue, and its sticky
// first apply error. eng mutates the engine; exactly one of det and ig
// — by mode — reads it, and closer is set for durable engines only.
type shardState struct {
	id     int
	ops    chan op
	eng    core.Engine
	det    detectorReads
	ig     integratorReads
	closer io.Closer

	mu  sync.Mutex
	err error
}

// flushResult returns the shard's classified pair set in either mode.
func (s *shardState) flushResult() *core.Result {
	if s.ig != nil {
		return s.ig.FlushResult()
	}
	return s.det.Flush()
}

// stats returns the shard's detector stats and, in integrate mode, its
// entity count.
func (s *shardState) stats() (core.DetectorStats, int) {
	if s.ig != nil {
		st := s.ig.Stats()
		return st.Detector, st.Entities
	}
	return s.det.Stats(), 0
}

func (s *shardState) fail() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

func (s *shardState) setErr(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = fmt.Errorf("shard %d: %w: %w", s.id, ErrShardFailed, err)
	}
	s.mu.Unlock()
}

// Router fans an online workload out across per-block shard engines.
// All methods are safe for concurrent use. Operations on one tuple ID
// are applied in admission order (the ID always routes to the same
// shard's FIFO queue); operations on different shards proceed in
// parallel.
type Router struct {
	schema    []string
	std       *prepare.Standardizer
	key       keys.Def
	strategy  fusion.Strategy
	integrate bool

	// mu guards admission: the ID→shard map and the closed flag.
	mu     sync.Mutex
	ids    map[string]int
	closed bool

	// opMu serializes Drain, Flush, FlushEntities and Close against
	// each other, so a barrier round never interleaves with teardown.
	opMu sync.Mutex

	// Delta fan-out; only the one matching the mode ever publishes.
	matches  fanout[MatchEvent]
	entities fanout[EntityEvent]

	wg     sync.WaitGroup
	shards []*shardState
}

// shardable resolves the blocking key and fusion strategy a method
// shards by, rejecting methods whose candidates can cross blocks.
func shardable(m ssr.Method) (keys.Def, fusion.Strategy, error) {
	switch v := m.(type) {
	case ssr.BlockingCertain:
		s := v.Strategy
		if s == nil {
			s = fusion.MostProbable{}
		}
		return v.Key, s, nil
	case ssr.Filter:
		// Pruning only removes pairs the inner method proposed, and
		// those never cross blocks — the composition shards whenever
		// the inner method does.
		if v.Inner == nil {
			return keys.Def{}, nil, fmt.Errorf("%w: pruned cross product", ErrNotShardable)
		}
		return shardable(v.Inner)
	case nil:
		return keys.Def{}, nil, fmt.Errorf("%w: cross product", ErrNotShardable)
	default:
		return keys.Def{}, nil, fmt.Errorf("%w: %s", ErrNotShardable, v.Name())
	}
}

// Open builds a Router over cfg.Shards engine instances. With
// cfg.StateDir set, each shard recovers its durable state from
// StateDir/shard-K and the router rebuilds its ID→shard admission map
// from the recovered residents.
func Open(cfg Config) (*Router, error) {
	n := cfg.Shards
	if n <= 0 {
		n = 1
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = DefaultQueueDepth
	}
	key, strategy, err := shardable(cfg.Opts.Reduction)
	if err != nil {
		return nil, err
	}
	r := &Router{
		schema:    append([]string(nil), cfg.Schema...),
		std:       cfg.Opts.Standardizer,
		key:       key,
		strategy:  strategy,
		integrate: cfg.Integrate,
		ids:       map[string]int{},
		shards:    make([]*shardState, n),
	}
	if cfg.StateDir != "" {
		if err := checkShardMeta(cfg.StateDir, n); err != nil {
			return nil, err
		}
	}
	for i := range r.shards {
		s := &shardState{id: i, ops: make(chan op, depth)}
		if err := r.buildEngine(s, cfg); err != nil {
			r.closeShards()
			return nil, err
		}
		r.shards[i] = s
	}
	if err := r.rebuildIDs(); err != nil {
		r.closeShards()
		return nil, err
	}
	for _, s := range r.shards {
		r.wg.Add(1)
		go r.runShard(s)
	}
	return r, nil
}

// buildEngine wires shard s's engine per cfg, capturing the shard
// index in the emit closures so events carry their origin. The handles
// are assigned only after a successful open, so closer is never a
// non-nil interface around a nil durable wrapper.
func (r *Router) buildEngine(s *shardState, cfg Config) error {
	id := s.id
	dir := ""
	if cfg.StateDir != "" {
		dir = filepath.Join(cfg.StateDir, fmt.Sprintf("shard-%d", id))
	}
	emitEntity := func(ed resolve.EntityDelta) bool {
		r.entities.publish(EntityEvent{Shard: id, Delta: ed})
		return true
	}
	emitMatch := func(md core.MatchDelta) bool {
		r.matches.publish(MatchEvent{Shard: id, Delta: md})
		return true
	}
	switch {
	case cfg.Integrate && dir != "":
		d, err := wal.OpenDurableIntegrator(dir, cfg.Schema, cfg.Opts, emitEntity)
		if err != nil {
			return err
		}
		s.eng, s.ig, s.closer = d, d, d
	case cfg.Integrate:
		ig, err := resolve.NewIntegrator(cfg.Schema, cfg.Opts, emitEntity)
		if err != nil {
			return err
		}
		s.eng, s.ig = ig, ig
	case dir != "":
		d, err := wal.OpenDurable(dir, cfg.Schema, cfg.Opts, emitMatch)
		if err != nil {
			return err
		}
		s.eng, s.det, s.closer = d, d, d
	default:
		det, err := core.NewDetector(cfg.Schema, cfg.Opts, emitMatch)
		if err != nil {
			return err
		}
		s.eng, s.det = det, det
	}
	return nil
}

// checkShardMeta records (or verifies) the shard count in
// dir/SHARDS, so a state directory is never reopened with a routing
// function that disagrees with where its residents already live.
func checkShardMeta(dir string, n int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	path := filepath.Join(dir, "SHARDS")
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		return os.WriteFile(path, []byte(strconv.Itoa(n)+"\n"), 0o644)
	case err != nil:
		return fmt.Errorf("shard: %w", err)
	}
	have, perr := strconv.Atoi(strings.TrimSpace(string(data)))
	if perr != nil {
		return fmt.Errorf("shard: corrupt meta file %s: %q", path, data)
	}
	if have != n {
		return &ShardCountMismatchError{Dir: dir, Have: have, Want: n}
	}
	return nil
}

// rebuildIDs reconstitutes the admission map from the engines'
// resident sets — a no-op for fresh in-memory engines, the recovery
// path for durable ones.
func (r *Router) rebuildIDs() error {
	for _, s := range r.shards {
		for _, id := range s.eng.ResidentIDs() {
			if prev, dup := r.ids[id]; dup {
				return fmt.Errorf("shard: tuple %q resident in shards %d and %d (state dirs from different shardings?)", id, prev, s.id)
			}
			r.ids[id] = s.id
		}
	}
	return nil
}

// closeShards tears down whatever buildEngine opened — the
// construction-failure path.
func (r *Router) closeShards() {
	for _, s := range r.shards {
		if s != nil && s.closer != nil {
			s.closer.Close() // best-effort teardown after a prior error
		}
	}
}

// runShard is the shard worker: it applies queued operations in FIFO
// order, coalescing runs of insertions into AddBatch calls. After the
// first apply error the shard stops applying (the error is sticky and
// surfaces on Ingest/Flush) but keeps honoring barriers so drains
// never hang.
func (r *Router) runShard(s *shardState) {
	defer r.wg.Done()
	batch := make([]*pdb.XTuple, 0, shardBatchCap)
	flush := func() {
		if len(batch) == 0 {
			return
		}
		if s.fail() == nil {
			if err := s.eng.AddBatch(batch); err != nil {
				s.setErr(err)
			}
		}
		batch = batch[:0]
	}
	for o := range s.ops {
		switch {
		case o.hold != nil:
			<-o.hold
		case o.barrier != nil:
			flush()
			close(o.barrier)
		case o.remove != "":
			flush()
			if s.fail() == nil {
				if err := s.eng.Remove(o.remove); err != nil {
					s.setErr(err)
				}
			}
		default:
			batch = append(batch, o.tuple)
			if len(batch) >= shardBatchCap || len(s.ops) == 0 {
				flush()
			}
		}
	}
	flush()
}

// ShardOf returns the shard the given tuple routes to: the FNV-32a
// hash of its conflict-resolved blocking key, modulo the shard count.
// Routing standardizes a copy first when a Standardizer is configured,
// so the key matches what the shard engine will index.
func (r *Router) ShardOf(x *pdb.XTuple) int {
	y := x
	if r.std != nil {
		y = r.std.XTuple(x)
	}
	h := fnv.New32a()
	h.Write([]byte(r.key.FromValues(r.strategy.ResolveX(y))))
	return int(h.Sum32() % uint32(len(r.shards)))
}

// Ingest validates and enqueues one insertion on its owning shard.
// It returns *OverloadedError without enqueuing when the shard's
// queue is full, a duplicate-ID error when the ID is already admitted,
// and the shard's sticky error (wrapping ErrShardFailed) when it has
// failed. The tuple is cloned at admission; the caller may reuse it.
func (r *Router) Ingest(x *pdb.XTuple) error {
	if x == nil {
		return errors.New("shard: nil tuple")
	}
	if err := x.Validate(len(r.schema)); err != nil {
		return err
	}
	sh := r.ShardOf(x)
	s := r.shards[sh]
	if err := s.fail(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	if prev, dup := r.ids[x.ID]; dup {
		return fmt.Errorf("shard: duplicate tuple ID %q (admitted to shard %d)", x.ID, prev)
	}
	select {
	case s.ops <- op{tuple: x.Clone()}:
		r.ids[x.ID] = sh
		return nil
	default:
		return &OverloadedError{Shard: sh, Queued: len(s.ops)}
	}
}

// Remove enqueues a removal on the shard that admitted id. An unknown
// ID returns an error wrapping core.ErrUnknownID; a full queue returns
// *OverloadedError without enqueuing.
func (r *Router) Remove(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	sh, ok := r.ids[id]
	if !ok {
		return fmt.Errorf("shard: Remove: %w %q", core.ErrUnknownID, id)
	}
	s := r.shards[sh]
	if err := s.fail(); err != nil {
		return err
	}
	select {
	case s.ops <- op{remove: id}:
		delete(r.ids, id)
		return nil
	default:
		return &OverloadedError{Shard: sh, Queued: len(s.ops)}
	}
}

// Drain blocks until every operation admitted before the call has
// been applied (and its deltas handed to the fan-out).
func (r *Router) Drain() error {
	r.opMu.Lock()
	defer r.opMu.Unlock()
	return r.drainLocked()
}

// drainLocked sends one barrier per shard and waits for all of them;
// the caller holds opMu, so no concurrent Close can close the queues
// mid-send.
func (r *Router) drainLocked() error {
	r.mu.Lock()
	closed := r.closed
	r.mu.Unlock()
	if closed {
		return ErrClosed
	}
	barriers := make([]chan struct{}, len(r.shards))
	for i, s := range r.shards {
		barriers[i] = make(chan struct{})
		s.ops <- op{barrier: barriers[i]}
	}
	for _, b := range barriers {
		<-b
	}
	for _, s := range r.shards {
		if err := s.fail(); err != nil {
			return err
		}
	}
	return nil
}

// Flush drains the queues and returns the union of the per-shard
// classified pair sets — by the per-block independence of blocking,
// exactly the core.Result a single engine would return on the merged
// input. TotalPairs is recomputed over the merged resident count.
func (r *Router) Flush() (*core.Result, error) {
	r.opMu.Lock()
	defer r.opMu.Unlock()
	if err := r.drainLocked(); err != nil {
		return nil, err
	}
	out := &core.Result{
		Matches:  verify.PairSet{},
		Possible: verify.PairSet{},
		ByPair:   map[verify.Pair]core.Match{},
	}
	residents := 0
	for _, s := range r.shards {
		res := s.flushResult()
		out.Compared = append(out.Compared, res.Compared...)
		for p, m := range res.ByPair {
			out.ByPair[p] = m
		}
		for p := range res.Matches {
			out.Matches[p] = true
		}
		for p := range res.Possible {
			out.Possible[p] = true
		}
		residents += s.eng.Len()
	}
	out.TotalPairs = ssr.TotalPairs(residents)
	slices.SortFunc(out.Compared, verify.ComparePairs)
	return out, nil
}

// FlushEntities drains the queues and returns the union of the
// per-shard resolutions (integrate mode only): entities sorted by ID,
// uncertain duplicates by pair. Entity identity is deterministic from
// membership (sorted member IDs joined with '+'), so the union equals
// the single-instance entity set. The per-shard lineage universes are
// not merged: Universe and Tuples are nil in the union.
func (r *Router) FlushEntities() (*resolve.Resolution, error) {
	if !r.integrate {
		return nil, errors.New("shard: FlushEntities requires Config.Integrate")
	}
	r.opMu.Lock()
	defer r.opMu.Unlock()
	if err := r.drainLocked(); err != nil {
		return nil, err
	}
	out := &resolve.Resolution{}
	for _, s := range r.shards {
		res, err := s.ig.Flush()
		if err != nil {
			return nil, err
		}
		out.Entities = append(out.Entities, res.Entities...)
		out.Uncertain = append(out.Uncertain, res.Uncertain...)
	}
	sort.Slice(out.Entities, func(i, j int) bool { return out.Entities[i].ID < out.Entities[j].ID })
	sort.Slice(out.Uncertain, func(i, j int) bool {
		if out.Uncertain[i].A != out.Uncertain[j].A {
			return out.Uncertain[i].A < out.Uncertain[j].A
		}
		return out.Uncertain[i].B < out.Uncertain[j].B
	})
	return out, nil
}

// Stats snapshots every shard without draining.
func (r *Router) Stats() Stats {
	st := Stats{Shards: len(r.shards), PerShard: make([]ShardStats, len(r.shards))}
	for i, s := range r.shards {
		ds, entities := s.stats()
		ss := ShardStats{
			Shard:    i,
			Queue:    len(s.ops),
			QueueCap: cap(s.ops),
			Detector: ds,
			Entities: entities,
		}
		if err := s.fail(); err != nil {
			ss.Err = err.Error()
		}
		st.PerShard[i] = ss
		st.Detector.Residents += ds.Residents
		st.Detector.Compared += ds.Compared
		st.Detector.Dropped += ds.Dropped
		st.Detector.Live += ds.Live
		st.Detector.Matches += ds.Matches
		st.Detector.Possible += ds.Possible
		st.Detector.Enumerated += ds.Enumerated
		st.Detector.Filtered += ds.Filtered
		st.Detector.FilterActive = st.Detector.FilterActive || ds.FilterActive
		st.Detector.Cache.Entries += ds.Cache.Entries
		st.Detector.Cache.Capacity += ds.Cache.Capacity
		st.Detector.Cache.Hits += ds.Cache.Hits
		st.Detector.Cache.Misses += ds.Cache.Misses
		st.Detector.Cache.Evictions += ds.Cache.Evictions
		st.Entities += ss.Entities
	}
	st.Detector.TotalPairs = ssr.TotalPairs(st.Detector.Residents)
	st.DroppedSubscribers = r.matches.drops() + r.entities.drops()
	return st
}

// fanout broadcasts events of one type to buffered subscriber
// channels without ever blocking the publisher: a subscriber whose
// buffer is full is dropped (its channel closed, the drop counted)
// rather than stalling a shard worker. The zero value is ready to use.
type fanout[T any] struct {
	mu      sync.Mutex
	closed  bool
	next    int
	subs    map[int]chan T
	dropped int
}

// subscribe registers a subscriber with the given channel buffer (0
// means 64); cancel unregisters early and is idempotent. After close
// the returned channel is already closed.
func (f *fanout[T]) subscribe(buf int) (<-chan T, func()) {
	if buf <= 0 {
		buf = 64
	}
	ch := make(chan T, buf)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		close(ch)
		return ch, func() {}
	}
	if f.subs == nil {
		f.subs = map[int]chan T{}
	}
	id := f.next
	f.next++
	f.subs[id] = ch
	return ch, func() {
		f.mu.Lock()
		if c, ok := f.subs[id]; ok {
			delete(f.subs, id)
			close(c)
		}
		f.mu.Unlock()
	}
}

// publish hands ev to every subscriber, dropping the ones whose
// buffers are full.
func (f *fanout[T]) publish(ev T) {
	f.mu.Lock()
	for id, ch := range f.subs {
		select {
		case ch <- ev:
		default:
			delete(f.subs, id)
			close(ch)
			f.dropped++
		}
	}
	f.mu.Unlock()
}

// close ends every subscription and refuses new ones.
func (f *fanout[T]) close() {
	f.mu.Lock()
	f.closed = true
	for id, ch := range f.subs {
		delete(f.subs, id)
		close(ch)
	}
	f.mu.Unlock()
}

// drops reports how many subscribers publish has dropped.
func (f *fanout[T]) drops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dropped
}

// SubscribeMatches registers a match-delta subscriber with the given
// channel buffer (0 means 64). The channel closes when the subscriber
// falls behind (a full buffer drops the subscriber rather than
// stalling shard workers; Stats.DroppedSubscribers counts it) or when
// the router closes; cancel unregisters early and is idempotent.
func (r *Router) SubscribeMatches(buf int) (<-chan MatchEvent, func()) {
	return r.matches.subscribe(buf)
}

// SubscribeEntities registers an entity-delta subscriber; same
// contract as SubscribeMatches. Entity deltas flow only in integrate
// mode.
func (r *Router) SubscribeEntities(buf int) (<-chan EntityEvent, func()) {
	return r.entities.subscribe(buf)
}

// Close drains and tears the router down: admission stops (ErrClosed),
// queued operations are applied, durable engines checkpoint and
// release their locks, and every subscriber channel is closed. Close
// is idempotent; it returns the first shard apply or checkpoint error.
func (r *Router) Close() error {
	r.opMu.Lock()
	defer r.opMu.Unlock()
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.mu.Unlock()
	for _, s := range r.shards {
		close(s.ops)
	}
	r.wg.Wait()
	var first error
	for _, s := range r.shards {
		if err := s.fail(); err != nil && first == nil {
			first = err
		}
	}
	for _, s := range r.shards {
		if s.closer == nil {
			continue
		}
		if err := s.closer.Close(); err != nil && first == nil {
			first = fmt.Errorf("shard %d: %w", s.id, err)
		}
	}
	r.matches.close()
	r.entities.close()
	return first
}
