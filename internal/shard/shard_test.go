package shard

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"probdedup/internal/avm"
	"probdedup/internal/core"
	"probdedup/internal/dataset"
	"probdedup/internal/decision"
	"probdedup/internal/keys"
	"probdedup/internal/pdb"
	"probdedup/internal/ssr"
	"probdedup/internal/strsim"
	"probdedup/internal/wal"
)

// testOptions configures the shard engines over the synthetic corpus's
// 3-attribute schema, blocking on a short name prefix so blocks (and
// with them cross-tuple candidates) actually form.
func testOptions(tb testing.TB, schema []string, workers int) core.Options {
	tb.Helper()
	def, err := keys.ParseDef("name:3", schema)
	if err != nil {
		tb.Fatal(err)
	}
	return core.Options{
		Compare:   []strsim.Func{strsim.Levenshtein, strsim.Levenshtein, strsim.Levenshtein},
		Reduction: ssr.BlockingCertain{Key: def},
		Final:     decision.Thresholds{Lambda: 0.6, Mu: 0.8},
		Workers:   workers,
	}
}

// tup builds a certain single-alternative tuple for the 3-attribute
// test schema.
func tup(id, name, job, age string) *pdb.XTuple {
	return pdb.NewXTuple(id, pdb.NewAlt(1, name, job, age))
}

var testSchema = []string{"name", "job", "age"}

func mustOpen(tb testing.TB, cfg Config) *Router {
	tb.Helper()
	r, err := Open(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

func TestShardableRejectsCrossBlockMethods(t *testing.T) {
	def, err := keys.ParseDef("name:3", testSchema)
	if err != nil {
		t.Fatal(err)
	}
	bad := []ssr.Method{
		nil,
		ssr.CrossProduct{},
		ssr.SNMCertain{Key: def, Window: 3},
		ssr.BlockingAlternatives{Key: def},
		ssr.NewFilter(ssr.SNMCertain{Key: def, Window: 3}, ssr.Pruning{}),
		ssr.Filter{},
	}
	for _, m := range bad {
		name := "nil"
		if m != nil {
			name = fmt.Sprintf("%T", m)
		}
		if _, _, err := shardable(m); !errors.Is(err, ErrNotShardable) {
			t.Errorf("%s: want ErrNotShardable, got %v", name, err)
		}
	}
	good := []ssr.Method{
		ssr.BlockingCertain{Key: def},
		ssr.NewFilter(ssr.BlockingCertain{Key: def}, ssr.Pruning{}),
	}
	for _, m := range good {
		if _, _, err := shardable(m); err != nil {
			t.Errorf("%T: want shardable, got %v", m, err)
		}
	}
	opts := testOptions(t, testSchema, 1)
	opts.Reduction = ssr.SNMCertain{Key: def, Window: 3}
	if _, err := Open(Config{Shards: 2, Schema: testSchema, Opts: opts}); !errors.Is(err, ErrNotShardable) {
		t.Fatalf("Open with SNM: want ErrNotShardable, got %v", err)
	}
}

func TestRoutingIsDeterministicAndBlockLocal(t *testing.T) {
	r := mustOpen(t, Config{Shards: 8, Schema: testSchema, Opts: testOptions(t, testSchema, 1)})
	defer r.Close()
	a := tup("a", "Johnson", "pilot", "44")
	b := tup("b", "Johnsen", "baker", "31") // same name:3 block key "Joh"
	c := tup("c", "Miller", "baker", "31")
	if got, want := r.ShardOf(a), r.ShardOf(a); got != want {
		t.Fatalf("ShardOf not deterministic: %d vs %d", got, want)
	}
	if r.ShardOf(a) != r.ShardOf(b) {
		t.Fatalf("same block key routed to different shards: %d vs %d", r.ShardOf(a), r.ShardOf(b))
	}
	_ = c // distinct keys may or may not collide; only same-key co-location is guaranteed
}

func TestAdmissionErrors(t *testing.T) {
	r := mustOpen(t, Config{Shards: 2, Schema: testSchema, Opts: testOptions(t, testSchema, 1)})
	if err := r.Ingest(nil); err == nil {
		t.Fatal("nil tuple admitted")
	}
	if err := r.Ingest(pdb.NewXTuple("bad", pdb.NewAlt(1, "only-one-attr"))); err == nil {
		t.Fatal("arity-violating tuple admitted")
	}
	x := tup("a", "Johnson", "pilot", "44")
	if err := r.Ingest(x); err != nil {
		t.Fatal(err)
	}
	if err := r.Ingest(tup("a", "Other", "job", "1")); err == nil || !strings.Contains(err.Error(), "duplicate tuple ID") {
		t.Fatalf("duplicate ID: got %v", err)
	}
	if err := r.Remove("ghost"); !errors.Is(err, core.ErrUnknownID) {
		t.Fatalf("unknown remove: want ErrUnknownID, got %v", err)
	}
	if err := r.Remove("a"); err != nil {
		t.Fatal(err)
	}
	// a's removal is admitted: a second removal no longer finds it.
	if err := r.Remove("a"); !errors.Is(err, core.ErrUnknownID) {
		t.Fatalf("double remove: want ErrUnknownID, got %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Ingest(tup("b", "Miller", "baker", "31")); !errors.Is(err, ErrClosed) {
		t.Fatalf("ingest after close: want ErrClosed, got %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestBackpressureRejectsWithoutBlocking(t *testing.T) {
	r := mustOpen(t, Config{Shards: 1, Schema: testSchema, Opts: testOptions(t, testSchema, 1), QueueDepth: 2})
	defer r.Close()
	// Park the single worker so the queue fills deterministically,
	// and wait until it has dequeued the hold op before filling. The
	// deferred release keeps a failing assertion from wedging Close.
	hold := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(hold) }) }
	defer release()
	r.shards[0].ops <- op{hold: hold}
	for len(r.shards[0].ops) != 0 {
		runtime.Gosched()
	}
	admitted := 0
	var overload *OverloadedError
	for i := 0; ; i++ {
		err := r.Ingest(tup(fmt.Sprintf("t%d", i), "Johnson", "pilot", "44"))
		if err == nil {
			admitted++
			continue
		}
		if !errors.As(err, &overload) {
			t.Fatalf("want *OverloadedError, got %v", err)
		}
		break
	}
	if admitted != 2 {
		t.Fatalf("admitted %d ops into a depth-2 queue with a parked worker", admitted)
	}
	if overload.Shard != 0 || overload.Queued == 0 {
		t.Fatalf("overload detail: %+v", overload)
	}
	// A rejected ingest must not leak into the admission map: the same
	// ID is admittable once the queue drains.
	rejectedID := fmt.Sprintf("t%d", admitted)
	release()
	if err := r.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := r.Ingest(tup(rejectedID, "Johnson", "pilot", "44")); err != nil {
		t.Fatalf("re-ingest after drain: %v", err)
	}
	res, err := r.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if got := admitted + 1; len(res.Compared) != got*(got-1)/2 {
		t.Fatalf("flush saw %d compared pairs, want %d", len(res.Compared), got*(got-1)/2)
	}
}

// errEngineBroke is the cause failingEngine reports.
var errEngineBroke = errors.New("engine broke")

// failingEngine is a shard engine whose AddBatch always fails.
type failingEngine struct{ core.Engine }

func (failingEngine) AddBatch([]*pdb.XTuple) error { return errEngineBroke }

// TestFailedShardIsStickyAndIsolated checks a shard worker's apply
// failure: every later operation routed to that shard returns the
// sticky error, which matches ErrShardFailed and the cause, while the
// other shard keeps admitting and applying.
func TestFailedShardIsStickyAndIsolated(t *testing.T) {
	r := mustOpen(t, Config{Shards: 2, Schema: testSchema, Opts: testOptions(t, testSchema, 1)})
	defer r.Close()
	bad := tup("a", "Johnson", "pilot", "44")
	var good *pdb.XTuple
	for _, name := range []string{"Miller", "Baker", "Smith", "Turner", "Walker", "Young"} {
		if x := tup("g", name, "baker", "31"); r.ShardOf(x) != r.ShardOf(bad) {
			good = x
			break
		}
	}
	if good == nil {
		t.Fatal("no test tuple routes away from the failing shard")
	}
	failing := r.shards[r.ShardOf(bad)]
	// The worker reads eng only after receiving an op, so swapping before
	// the first send is race-free.
	failing.eng = failingEngine{failing.eng}

	if err := r.Ingest(bad); err != nil {
		t.Fatalf("admission before the failure: %v", err)
	}
	err := r.Drain()
	if !errors.Is(err, ErrShardFailed) || !errors.Is(err, errEngineBroke) {
		t.Fatalf("drain after the failure: want ErrShardFailed wrapping the cause, got %v", err)
	}
	for name, op := range map[string]func() error{
		"ingest": func() error { return r.Ingest(tup("b", "Johnson", "pilot", "45")) },
		"remove": func() error { return r.Remove(bad.ID) },
	} {
		if err := op(); !errors.Is(err, ErrShardFailed) || !errors.Is(err, errEngineBroke) {
			t.Errorf("%s on the failed shard: want the sticky ErrShardFailed, got %v", name, err)
		}
	}

	if err := r.Ingest(good); err != nil {
		t.Fatalf("ingest on the healthy shard: %v", err)
	}
	r.Drain() // waits for every shard; the error is the failed one's
	healthy := r.shards[r.ShardOf(good)]
	if healthy.fail() != nil || healthy.eng.Len() != 1 {
		t.Fatalf("healthy shard: err %v, %d residents, want nil and 1", healthy.fail(), healthy.eng.Len())
	}
}

// TestStatsAggregatesShards: the router's stats sum the per-shard ones.
// The shards opt in to the similarity memo, so its counters are summed
// from live values, not zeros.
func TestStatsAggregatesShards(t *testing.T) {
	opts := testOptions(t, testSchema, 1)
	opts.CacheCapacity = 1024
	r := mustOpen(t, Config{Shards: 4, Schema: testSchema, Opts: opts})
	defer r.Close()
	names := []string{"Johnson", "Jonson", "Miller", "Millar", "Smith", "Smyth"}
	for i, n := range names {
		if err := r.Ingest(tup(fmt.Sprintf("t%d", i), n, "job", "1")); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Drain(); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Shards != 4 || len(st.PerShard) != 4 {
		t.Fatalf("shard count: %+v", st)
	}
	if st.Detector.Residents != len(names) {
		t.Fatalf("aggregate residents = %d, want %d", st.Detector.Residents, len(names))
	}
	if want := ssr.TotalPairs(len(names)); st.Detector.TotalPairs != want {
		t.Fatalf("aggregate TotalPairs = %d, want merged-input %d", st.Detector.TotalPairs, want)
	}
	sum := 0
	var cache avm.CacheStats
	for i, ss := range st.PerShard {
		if ss.Shard != i || ss.QueueCap != DefaultQueueDepth {
			t.Fatalf("per-shard snapshot: %+v", ss)
		}
		sum += ss.Detector.Residents
		cache.Entries += ss.Detector.Cache.Entries
		cache.Capacity += ss.Detector.Cache.Capacity
		cache.Hits += ss.Detector.Cache.Hits
		cache.Misses += ss.Detector.Cache.Misses
		cache.Evictions += ss.Detector.Cache.Evictions
	}
	if sum != len(names) {
		t.Fatalf("per-shard residents sum %d, want %d", sum, len(names))
	}
	if cache.Misses == 0 || cache.Capacity == 0 {
		t.Fatalf("per-shard caches saw no lookups (%+v): the fixture no longer compares anything", cache)
	}
	if st.Detector.Cache != cache {
		t.Fatalf("aggregate cache counters = %+v, want the per-shard sum %+v", st.Detector.Cache, cache)
	}
}

func TestSubscriberDroppedOnOverflow(t *testing.T) {
	r := mustOpen(t, Config{Shards: 1, Schema: testSchema, Opts: testOptions(t, testSchema, 1)})
	defer r.Close()
	slow, _ := r.SubscribeMatches(1)
	if n := r.Stats().DroppedSubscribers; n != 0 {
		t.Fatalf("DroppedSubscribers = %d before any overflow, want 0", n)
	}
	// Three same-block pairwise matches emit three add deltas; the
	// undrained buffer of one forces a drop.
	for i := 0; i < 3; i++ {
		if err := r.Ingest(tup(fmt.Sprintf("t%d", i), "Johnson", "pilot", "44")); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Drain(); err != nil {
		t.Fatal(err)
	}
	got := 0
	for range slow {
		got++
	}
	if got != 1 {
		t.Fatalf("dropped subscriber drained %d events, want the 1 buffered", got)
	}
	if n := r.Stats().DroppedSubscribers; n != 1 {
		t.Fatalf("DroppedSubscribers = %d after the drop, want 1", n)
	}
	// The router itself is unaffected: a fresh subscriber still works.
	fresh, cancel := r.SubscribeMatches(16)
	if err := r.Ingest(tup("t9", "Johnson", "pilot", "44")); err != nil {
		t.Fatal(err)
	}
	if err := r.Drain(); err != nil {
		t.Fatal(err)
	}
	ev := <-fresh
	if ev.Delta.Kind != core.DeltaAdd {
		t.Fatalf("fresh subscriber event: %+v", ev)
	}
	cancel()
	cancel() // idempotent
	for range fresh {
		// cancel closed the channel; drain any buffered tail
	}
	// A cancel is not a drop.
	if n := r.Stats().DroppedSubscribers; n != 1 {
		t.Fatalf("DroppedSubscribers = %d after a cancel, want still 1", n)
	}
}

func TestCloseClosesSubscribers(t *testing.T) {
	r := mustOpen(t, Config{Shards: 2, Schema: testSchema, Opts: testOptions(t, testSchema, 1), Integrate: true})
	mch, _ := r.SubscribeMatches(4)
	ech, _ := r.SubscribeEntities(4)
	if err := r.Ingest(tup("a", "Johnson", "pilot", "44")); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	for range mch {
	}
	drained := 0
	for range ech {
		drained++
	}
	if drained == 0 {
		t.Fatal("integrate-mode ingest emitted no entity delta")
	}
	// Subscribing after close yields a closed channel, not a hang.
	late, cancel := r.SubscribeEntities(1)
	if _, ok := <-late; ok {
		t.Fatal("late subscriber got an event from a closed router")
	}
	cancel()
}

func TestFlushEntitiesRequiresIntegrate(t *testing.T) {
	r := mustOpen(t, Config{Shards: 2, Schema: testSchema, Opts: testOptions(t, testSchema, 1)})
	defer r.Close()
	if _, err := r.FlushEntities(); err == nil {
		t.Fatal("FlushEntities on a non-integrating router succeeded")
	}
}

func TestDurableReopenRebuildsAdmissionMap(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Shards: 2, Schema: testSchema, Opts: testOptions(t, testSchema, 1), StateDir: dir}
	r := mustOpen(t, cfg)
	names := []string{"Johnson", "Jonson", "Miller", "Millar"}
	for i, n := range names {
		if err := r.Ingest(tup(fmt.Sprintf("t%d", i), n, "job", "1")); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// A different shard count must refuse the directory: the residents
	// were routed with N=2.
	bad := cfg
	bad.Shards = 3
	var mismatch *ShardCountMismatchError
	if _, err := Open(bad); !errors.As(err, &mismatch) {
		t.Fatalf("reopen with 3 shards: want ShardCountMismatchError, got %v", err)
	} else if mismatch.Have != 2 || mismatch.Want != 3 {
		t.Fatalf("mismatch detail: %+v", mismatch)
	}

	r2 := mustOpen(t, cfg)
	defer r2.Close()
	st := r2.Stats()
	if st.Detector.Residents != len(names) {
		t.Fatalf("recovered %d residents, want %d", st.Detector.Residents, len(names))
	}
	// The admission map was rebuilt: recovered IDs are removable and
	// re-admitting one is rejected as a duplicate.
	if err := r2.Ingest(tup("t0", "Johnson", "job", "1")); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("re-admitting recovered ID: got %v", err)
	}
	if err := r2.Remove("t0"); err != nil {
		t.Fatalf("removing recovered ID: %v", err)
	}
	res, err := r2.Flush()
	if err != nil {
		t.Fatal(err)
	}
	want := singleResult(t, testSchema, testOptions(t, testSchema, 1), schedOf(names[1:], 1))
	if canonResult(res) != canonResult(want) {
		t.Fatalf("recovered flush diverges:\n--- got ---\n%s--- want ---\n%s", canonResult(res), canonResult(want))
	}
}

// schedOf builds a plain insert schedule from names, with IDs t<start>…
func schedOf(names []string, start int) []schedOp {
	ops := make([]schedOp, len(names))
	for i, n := range names {
		ops[i] = schedOp{add: tup(fmt.Sprintf("t%d", start+i), n, "job", "1")}
	}
	return ops
}

// schedOp is one operation of an equivalence schedule.
type schedOp struct {
	add    *pdb.XTuple
	batch  []*pdb.XTuple
	remove string
}

// genSchedule derives a deterministic schedule over the synthetic
// duplicate corpus: mostly arrivals (some batched), with removals of
// residents mixed in. Purely arithmetic per-step choice keeps it
// reproducible without a PRNG.
func genSchedule(tb testing.TB, seed int64, n int) ([]string, []schedOp) {
	tb.Helper()
	d := dataset.Generate(dataset.DefaultConfig(n, seed))
	u := d.Union()
	var (
		ops      []schedOp
		resident []string
		next     int
	)
	for step := 0; len(ops) < n && next < len(u.Tuples); step++ {
		k := (int(seed)*13 + step*7) % 10
		switch {
		case k < 6 || len(resident) == 0:
			x := u.Tuples[next]
			next++
			resident = append(resident, x.ID)
			ops = append(ops, schedOp{add: x})
		case k < 8:
			m := 1 + step%3
			if m > len(u.Tuples)-next {
				m = len(u.Tuples) - next
			}
			batch := u.Tuples[next : next+m]
			next += m
			for _, x := range batch {
				resident = append(resident, x.ID)
			}
			ops = append(ops, schedOp{batch: batch})
		default:
			j := (step * 31) % len(resident)
			id := resident[j]
			resident = append(resident[:j], resident[j+1:]...)
			ops = append(ops, schedOp{remove: id})
		}
	}
	return u.Schema, ops
}

// routerApply feeds one schedule op through the router's admission
// surface (batches become per-tuple ingests — the router re-coalesces).
func routerApply(tb testing.TB, r *Router, o schedOp) {
	tb.Helper()
	apply := func(x *pdb.XTuple) {
		if err := r.Ingest(x); err != nil {
			tb.Fatalf("ingest %s: %v", x.ID, err)
		}
	}
	switch {
	case o.add != nil:
		apply(o.add)
	case o.batch != nil:
		for _, x := range o.batch {
			apply(x)
		}
	default:
		if err := r.Remove(o.remove); err != nil {
			tb.Fatalf("remove %s: %v", o.remove, err)
		}
	}
}

// singleResult folds a schedule through one plain Detector — the
// reference instance of the equivalence oath.
func singleResult(tb testing.TB, schema []string, opts core.Options, ops []schedOp) *core.Result {
	res, _ := singleRun(tb, schema, opts, ops)
	return res
}

func singleRun(tb testing.TB, schema []string, opts core.Options, ops []schedOp) (*core.Result, []core.MatchDelta) {
	tb.Helper()
	var deltas []core.MatchDelta
	det, err := core.NewDetector(schema, opts, func(md core.MatchDelta) bool {
		deltas = append(deltas, md)
		return true
	})
	if err != nil {
		tb.Fatal(err)
	}
	for _, o := range ops {
		switch {
		case o.add != nil:
			err = det.Add(o.add)
		case o.batch != nil:
			err = det.AddBatch(o.batch)
		default:
			err = det.Remove(o.remove)
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
	return det.Flush(), deltas
}

// canonResult canonicalizes a core.Result for equality comparison:
// every pair with raw similarity bits, class and M/P membership, plus
// the global counters.
func canonResult(r *core.Result) string {
	lines := make([]string, 0, len(r.ByPair))
	for p, m := range r.ByPair {
		lines = append(lines, fmt.Sprintf("%s|%s|%016x|%d|m=%t|p=%t",
			p.A, p.B, math.Float64bits(m.Sim), int(m.Class), r.Matches[p], r.Possible[p]))
	}
	sort.Strings(lines)
	return fmt.Sprintf("%s\ncompared=%d total=%d m=%d p=%d\n",
		strings.Join(lines, "\n"), len(r.Compared), r.TotalPairs, len(r.Matches), len(r.Possible))
}

// canonDeltas canonicalizes a match-delta stream as a sorted multiset;
// shard fan-out reorders deliveries but must preserve the multiset.
func canonDeltas(deltas []core.MatchDelta) string {
	lines := make([]string, len(deltas))
	for i, md := range deltas {
		lines[i] = fmt.Sprintf("%s|%s|%s|%016x|%d",
			md.Kind, md.Pair.A, md.Pair.B, math.Float64bits(md.Sim), int(md.Class))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestOpenFailureReleasesOpenedShards: when a later shard fails to
// open, the shards already opened are torn down and their directory
// locks released.
func TestOpenFailureReleasesOpenedShards(t *testing.T) {
	for _, integrate := range []bool{false, true} {
		t.Run(fmt.Sprintf("integrate=%t", integrate), func(t *testing.T) {
			dir := t.TempDir()
			cfg := Config{Shards: 2, Schema: testSchema, Opts: testOptions(t, testSchema, 1), StateDir: dir, Integrate: integrate}
			held, err := wal.OpenStateDir(filepath.Join(dir, "shard-1"))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Open(cfg); !errors.Is(err, wal.ErrStateLocked) {
				t.Fatalf("open over a held shard-1: want ErrStateLocked, got %v", err)
			}
			first, err := wal.OpenStateDir(filepath.Join(dir, "shard-0"))
			if err != nil {
				t.Fatalf("shard-0 still locked after the failed open: %v", err)
			}
			first.Close()
			held.Close()
			mustOpen(t, cfg).Close()
		})
	}
}

// TestIntegrateModeReadsPairsAndEntities: an integrating router still
// answers the pair-level Flush and detector stats — read through the
// integrator — next to its entity view.
func TestIntegrateModeReadsPairsAndEntities(t *testing.T) {
	opts := testOptions(t, testSchema, 1)
	r := mustOpen(t, Config{Shards: 3, Schema: testSchema, Opts: opts, Integrate: true})
	defer r.Close()
	names := []string{"Johnson", "Jonson", "Miller", "Millar", "Smith"}
	for i, n := range names {
		if err := r.Ingest(tup(fmt.Sprintf("t%d", i), n, "job", "1")); err != nil {
			t.Fatal(err)
		}
	}
	res, err := r.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if want := singleResult(t, testSchema, opts, schedOf(names, 0)); canonResult(res) != canonResult(want) {
		t.Fatalf("integrate-mode pair flush diverges:\n--- got ---\n%s--- want ---\n%s", canonResult(res), canonResult(want))
	}
	ents, err := r.FlushEntities()
	if err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Detector.Residents != len(names) || st.Entities != len(ents.Entities) || st.Entities == 0 {
		t.Fatalf("stats report %d residents / %d entities, want %d / %d", st.Detector.Residents, st.Entities, len(names), len(ents.Entities))
	}
}
