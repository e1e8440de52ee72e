package ssr

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"probdedup/internal/dataset"
	"probdedup/internal/keys"
	"probdedup/internal/pdb"
	"probdedup/internal/verify"
	"probdedup/internal/worlds"
)

// incrementalTestMethods returns every incremental-capable method
// configured over the synthetic schema (name, job, age).
func incrementalTestMethods(t *testing.T, schema []string) []Method {
	t.Helper()
	def, err := keys.ParseDef("name:3+job:2", schema)
	if err != nil {
		t.Fatal(err)
	}
	return []Method{
		nil, // engine default: cross product
		CrossProduct{},
		SNMCertain{Key: def, Window: 4},
		SNMCertain{Key: def, Window: 1}, // normalized to the minimum window
		SNMRanked{Key: def, Window: 4},
		SNMRanked{Key: def, Window: 3, Strategy: MedianKey},
		SNMRanked{Key: def, Window: 3, Strategy: ModeKey},
		SNMAlternatives{Key: def, Window: 4},
		SNMMultiPass{Key: def, Window: 3, Select: TopWorlds, K: 3},
		SNMMultiPass{Key: def, Window: 3, Select: DissimilarWorlds, K: 2},
		BlockingCertain{Key: def},
		BlockingAlternatives{Key: def},
		NewFilter(SNMCertain{Key: def, Window: 5}, Pruning{MaxDiff: map[int]int{0: 3}}),
	}
}

// shuffledUnion builds a shuffled synthetic x-relation.
func shuffledUnion(entities int, seed int64) *pdb.XRelation {
	d := dataset.Generate(dataset.DefaultConfig(entities, seed))
	u := d.Union()
	rng := rand.New(rand.NewSource(seed + 1))
	rng.Shuffle(len(u.Tuples), func(i, j int) {
		u.Tuples[i], u.Tuples[j] = u.Tuples[j], u.Tuples[i]
	})
	return u
}

// applyDelta folds one delta into the maintained set, failing on
// inconsistent deltas (dropping an absent pair, re-adding a present
// one).
func applyDelta(t *testing.T, set verify.PairSet, d PairDelta) {
	t.Helper()
	if d.Pair.A == d.Pair.B {
		t.Fatalf("self pair %v", d.Pair)
	}
	if d.Dropped {
		if !set[d.Pair] {
			t.Fatalf("dropped pair %v not in maintained set", d.Pair)
		}
		delete(set, d.Pair)
		return
	}
	if set[d.Pair] {
		t.Fatalf("added pair %v already in maintained set", d.Pair)
	}
	set[d.Pair] = true
}

// diffSets reports the symmetric difference, empty when equal.
func diffSets(a, b verify.PairSet) []string {
	var out []string
	for p := range a {
		if !b[p] {
			out = append(out, "only-left "+p.A+","+p.B)
		}
	}
	for p := range b {
		if !a[p] {
			out = append(out, "only-right "+p.A+","+p.B)
		}
	}
	return out
}

// equivalenceChunk is the chunk capacity the equivalence tests also run
// the sorted-neighborhood indexes at, small enough that their relations
// span at least ten chunks.
const equivalenceChunk = 4

// rechunk sets the chunk capacity of a fresh sorted-neighborhood index and
// returns it (multi-pass's unchanged); other indexes come back nil.
func rechunk(idx IncrementalIndex, chunk int) IncrementalIndex {
	switch x := idx.(type) {
	case *snmCertainIndex:
		x.seq.cap = chunk
	case *snmAltsIndex:
		x.entries.cap, x.kept.cap = chunk, chunk
	case *snmRankedIndex:
		x.seq.cap = chunk
	case *recomputeIndex: // no sequence of its own; the subtest reruns it
	default:
		return nil
	}
	return idx
}

func mustIncremental(t *testing.T, m Method) IncrementalIndex {
	t.Helper()
	idx, err := IncrementalOf(m)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// runChunked runs check, as subtest chunk=4, on a fresh index of a
// sorted-neighborhood method at equivalenceChunk; other methods are
// skipped. n is the relation's size.
func runChunked(t *testing.T, m Method, n int, check func(*testing.T, IncrementalIndex)) {
	idx := rechunk(mustIncremental(t, m), equivalenceChunk)
	if idx == nil {
		return
	}
	if n < 10*equivalenceChunk {
		t.Fatalf("%d tuples span fewer than ten chunks of %d", n, equivalenceChunk)
	}
	t.Run(fmt.Sprintf("chunk=%d", equivalenceChunk), func(t *testing.T) { check(t, idx) })
}

// TestIncrementalInsertEquivalence proves the core contract: inserting
// a shuffled relation tuple by tuple and folding the deltas yields
// exactly the batch candidate set of the same relation, for every
// incremental-capable method.
func TestIncrementalInsertEquivalence(t *testing.T) {
	u := shuffledUnion(40, 7)
	for _, m := range incrementalTestMethods(t, u.Schema) {
		name := "nil"
		if m != nil {
			name = m.Name()
		}
		check := func(t *testing.T, idx IncrementalIndex) {
			maintained := verify.PairSet{}
			for _, x := range u.Tuples {
				idx.Insert(x, func(d PairDelta) bool {
					applyDelta(t, maintained, d)
					return true
				})
			}
			if idx.Len() != len(u.Tuples) {
				t.Fatalf("Len = %d, want %d", idx.Len(), len(u.Tuples))
			}
			batch := Candidates(m, u)
			if d := diffSets(maintained, batch); len(d) != 0 {
				t.Fatalf("maintained set diverges from batch (%d deltas): %v", len(d), d[:min(len(d), 8)])
			}
		}
		t.Run(name, func(t *testing.T) {
			idx, err := IncrementalOf(m)
			if err != nil {
				t.Fatal(err)
			}
			check(t, idx)
			runChunked(t, m, len(u.Tuples), check)
		})
	}
}

// TestIncrementalRemoveEquivalence removes a third of the tuples after
// insertion and checks the maintained set equals the batch candidates
// of the remaining relation (original relative order preserved).
func TestIncrementalRemoveEquivalence(t *testing.T) {
	u := shuffledUnion(40, 11)
	for _, m := range incrementalTestMethods(t, u.Schema) {
		name := "nil"
		if m != nil {
			name = m.Name()
		}
		check := func(t *testing.T, idx IncrementalIndex) {
			maintained := verify.PairSet{}
			on := func(d PairDelta) bool {
				applyDelta(t, maintained, d)
				return true
			}
			for _, x := range u.Tuples {
				idx.Insert(x, on)
			}
			rest := pdb.NewXRelation(u.Name, u.Schema...)
			for i, x := range u.Tuples {
				if i%3 == 0 {
					idx.Remove(x.ID, on)
					continue
				}
				rest.Append(x)
			}
			if idx.Len() != len(rest.Tuples) {
				t.Fatalf("Len = %d, want %d", idx.Len(), len(rest.Tuples))
			}
			batch := Candidates(m, rest)
			if d := diffSets(maintained, batch); len(d) != 0 {
				t.Fatalf("maintained set diverges from batch after removals: %v", d[:min(len(d), 8)])
			}
		}
		t.Run(name, func(t *testing.T) {
			idx, err := IncrementalOf(m)
			if err != nil {
				t.Fatal(err)
			}
			check(t, idx)
			runChunked(t, m, len(u.Tuples), check)
		})
	}
}

// TestIncrementalRemoveDropsAllPairsOfID checks the Remove contract
// directly: every maintained pair involving the removed id is yielded
// as a drop.
func TestIncrementalRemoveDropsAllPairsOfID(t *testing.T) {
	u := shuffledUnion(25, 13)
	for _, m := range incrementalTestMethods(t, u.Schema) {
		name := "nil"
		if m != nil {
			name = m.Name()
		}
		t.Run(name, func(t *testing.T) {
			idx, err := IncrementalOf(m)
			if err != nil {
				t.Fatal(err)
			}
			maintained := verify.PairSet{}
			on := func(d PairDelta) bool {
				applyDelta(t, maintained, d)
				return true
			}
			for _, x := range u.Tuples {
				idx.Insert(x, on)
			}
			victim := u.Tuples[len(u.Tuples)/2].ID
			idx.Remove(victim, on)
			for p := range maintained {
				if p.A == victim || p.B == victim {
					t.Fatalf("pair %v involving removed id survived", p)
				}
			}
			// Removing an unknown id is a silent no-op.
			before := len(maintained)
			idx.Remove("no-such-id", on)
			if len(maintained) != before {
				t.Fatal("removing an unknown id changed the maintained set")
			}
		})
	}
}

// TestSNMWindowDriftAndReentry exercises the windowed index's
// hand-constructed drop and re-entry mechanics: a pair of adjacent
// keys drops when a key lands between them, and re-enters when that
// key is removed again.
func TestSNMWindowDriftAndReentry(t *testing.T) {
	schema := []string{"name"}
	def, err := keys.ParseDef("name", schema)
	if err != nil {
		t.Fatal(err)
	}
	m := SNMCertain{Key: def, Window: 2}
	idx, err := IncrementalOf(m)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id, name string) *pdb.XTuple {
		return pdb.NewXTuple(id, pdb.NewAlt(1, name))
	}
	maintained := verify.PairSet{}
	on := func(d PairDelta) bool {
		applyDelta(t, maintained, d)
		return true
	}
	idx.Insert(mk("a", "Anna"), on)
	idx.Insert(mk("c", "Cleo"), on)
	ac := verify.NewPair("a", "c")
	if !maintained[ac] {
		t.Fatal("adjacent pair (a,c) missing")
	}
	// b lands between a and c: (a,c) drifts out of the window.
	idx.Insert(mk("b", "Bert"), on)
	if maintained[ac] {
		t.Fatal("pair (a,c) should have dropped when b landed between")
	}
	if !maintained[verify.NewPair("a", "b")] || !maintained[verify.NewPair("b", "c")] {
		t.Fatal("new neighbor pairs of b missing")
	}
	// Removing b pulls (a,c) back into the window.
	idx.Remove("b", on)
	if !maintained[ac] {
		t.Fatal("pair (a,c) should have re-entered when b was removed")
	}
	if len(maintained) != 1 {
		t.Fatalf("maintained = %v, want only (a,c)", maintained)
	}
}

// TestInsertBatchNetEquivalence proves the batched enumeration
// contract: chunking a shuffled relation through InsertBatch and
// folding the net deltas yields exactly the batch candidate set, for
// every incremental-capable method and several chunk sizes. applyDelta
// additionally enforces that net deltas are consistent with the
// maintained set (no drop of an absent pair, no re-add of a present
// one) — i.e. each batch's deltas really are deduplicated net changes.
func TestInsertBatchNetEquivalence(t *testing.T) {
	u := shuffledUnion(40, 17)
	for _, chunk := range []int{1, 7, len(u.Tuples)} {
		for _, m := range incrementalTestMethods(t, u.Schema) {
			name := "nil"
			if m != nil {
				name = m.Name()
			}
			t.Run(fmt.Sprintf("%s/chunk=%d", name, chunk), func(t *testing.T) {
				idx, err := IncrementalOf(m)
				if err != nil {
					t.Fatal(err)
				}
				maintained := verify.PairSet{}
				for lo := 0; lo < len(u.Tuples); lo += chunk {
					hi := min(lo+chunk, len(u.Tuples))
					for _, d := range InsertBatch(idx, u.Tuples[lo:hi], nil) {
						if d.Source < 0 || d.Source >= hi-lo {
							t.Fatalf("delta %v attributes to batch position %d of %d", d.Pair, d.Source, hi-lo)
						}
						applyDelta(t, maintained, d.PairDelta)
					}
				}
				if idx.Len() != len(u.Tuples) {
					t.Fatalf("Len = %d, want %d", idx.Len(), len(u.Tuples))
				}
				batch := Candidates(m, u)
				if d := diffSets(maintained, batch); len(d) != 0 {
					t.Fatalf("maintained set diverges from batch: %v", d[:min(len(d), 8)])
				}
			})
		}
	}
}

// TestInsertBatchCancelsWindowChurn pins the dedup behavior down on
// the hand-constructed window-drift case: inserting a, c, then b (which
// lands between them, window 2) in ONE batch must never surface the
// intra-batch churn pair (a,c) — it entered and left within the batch —
// while sequential insertion yields both its add and its drop.
func TestInsertBatchCancelsWindowChurn(t *testing.T) {
	schema := []string{"name"}
	def, err := keys.ParseDef("name", schema)
	if err != nil {
		t.Fatal(err)
	}
	m := SNMCertain{Key: def, Window: 2}
	mk := func(id, name string) *pdb.XTuple {
		return pdb.NewXTuple(id, pdb.NewAlt(1, name))
	}
	tuples := []*pdb.XTuple{mk("a", "Anna"), mk("c", "Cleo"), mk("b", "Bert")}

	seq, err := IncrementalOf(m)
	if err != nil {
		t.Fatal(err)
	}
	var raw []PairDelta
	for _, x := range tuples {
		seq.Insert(x, func(d PairDelta) bool {
			raw = append(raw, d)
			return true
		})
	}
	churned := 0
	for _, d := range raw {
		if d.Pair == verify.NewPair("a", "c") {
			churned++
		}
	}
	if churned != 2 {
		t.Fatalf("sequential insertion yielded %d deltas for the churn pair (a,c), want add+drop", churned)
	}

	idx, err := IncrementalOf(m)
	if err != nil {
		t.Fatal(err)
	}
	net := InsertBatch(idx, tuples, nil)
	want := map[verify.Pair]int{ // pair -> settling batch position
		verify.NewPair("a", "b"): 2,
		verify.NewPair("b", "c"): 2,
	}
	if len(net) != len(want) {
		t.Fatalf("net deltas = %v, want exactly the pairs of b", net)
	}
	for _, d := range net {
		if d.Dropped {
			t.Fatalf("net delta %v is a drop, want only adds", d.Pair)
		}
		src, ok := want[d.Pair]
		if !ok {
			t.Fatalf("unexpected net pair %v (intra-batch churn leaked?)", d.Pair)
		}
		if d.Source != src {
			t.Fatalf("pair %v attributed to batch position %d, want %d", d.Pair, d.Source, src)
		}
	}
}

// nonIncrementalMethod is a third-party Method without an Incremental
// hook, standing in for user code that has not opted in.
type nonIncrementalMethod struct{}

func (nonIncrementalMethod) Name() string { return "third-party" }
func (nonIncrementalMethod) EnumeratePairs(*pdb.XRelation, func(verify.Pair) bool) bool {
	return true
}

// TestIncrementalOfCoverage checks that every built-in reduction method
// — the pruned cross product included — names itself and supports
// incremental maintenance, and that methods without the hook fail with
// the typed ErrNotIncremental sentinel (wrapped with the method's
// name).
func TestIncrementalOfCoverage(t *testing.T) {
	def := keys.NewDef(keys.Part{Attr: 0, Prefix: 3})
	for _, m := range []Method{
		CrossProduct{},
		SNMCertain{Key: def, Window: 3},
		SNMRanked{Key: def, Window: 3},
		SNMRanked{Key: def, Window: 3, Strategy: MedianKey},
		SNMRanked{Key: def, Window: 3, Strategy: ModeKey},
		SNMAlternatives{Key: def, Window: 3},
		SNMMultiPass{Key: def, Window: 3},
		BlockingCertain{Key: def},
		BlockingAlternatives{Key: def},
		BlockingCluster{Key: def},
		NewFilter(SNMRanked{Key: def, Window: 3}, Pruning{}),
		NewFilter(nil, Pruning{MaxDiff: map[int]int{0: 2}}),
	} {
		name := m.Name()
		if name == "" {
			t.Errorf("%T: empty name", m)
		}
		if _, err := IncrementalOf(m); err != nil {
			t.Errorf("%s: expected incremental support, got %v", name, err)
		}
	}
	for _, m := range []Method{
		nonIncrementalMethod{},
		NewFilter(nonIncrementalMethod{}, Pruning{}),
	} {
		_, err := IncrementalOf(m)
		if err == nil {
			t.Fatalf("%s: expected an error, got nil", m.Name())
		}
		if !errors.Is(err, ErrNotIncremental) {
			t.Errorf("%s: error %q does not wrap ErrNotIncremental", m.Name(), err)
		}
		if !strings.Contains(err.Error(), "third-party") {
			t.Errorf("%s: error %q does not name the method", m.Name(), err)
		}
	}
}

// TestIncrementalEarlyStopKeepsStructure verifies that a yield
// returning false truncates delta delivery but leaves the structural
// update applied.
func TestIncrementalEarlyStopKeepsStructure(t *testing.T) {
	def := keys.NewDef(keys.Part{Attr: 0, Prefix: 3})
	idx, err := IncrementalOf(BlockingCertain{Key: def})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id, name string) *pdb.XTuple {
		return pdb.NewXTuple(id, pdb.NewAlt(1, name))
	}
	idx.Insert(mk("a", "Tim"), func(PairDelta) bool { return true })
	idx.Insert(mk("b", "Tim"), func(PairDelta) bool { return true })
	if ok := idx.Insert(mk("c", "Tim"), func(PairDelta) bool { return false }); ok {
		t.Fatal("expected early-stopped Insert to report false")
	}
	if idx.Len() != 3 {
		t.Fatalf("Len = %d after early stop, want 3", idx.Len())
	}
}

// TestIncrementalMultiPassWorldSelection pins the all-worlds multipass
// configurations at a scale where full enumeration is feasible, covering
// both the enumeration success path and the top-k fallback for an
// infeasible MaxWorlds — including the mid-stream switches between the
// two bases as the relation grows past (and, via removals, shrinks back
// under) the world limit.
func TestIncrementalMultiPassWorldSelection(t *testing.T) {
	u := shuffledUnion(3, 19)
	def, err := keys.ParseDef("name:3+job:2", u.Schema)
	if err != nil {
		t.Fatal(err)
	}
	lists := make([][]worlds.Choice, len(u.Tuples))
	for i, x := range u.Tuples {
		lists[i] = worlds.Choices(x, true)
	}
	const feasible = 1_000_000
	if c := worlds.CountOf(lists); c >= feasible {
		t.Fatalf("dataset has %g worlds; shrink it so enumeration stays feasible", c)
	}
	for _, m := range []Method{
		SNMMultiPass{Key: def, Window: 3, MaxWorlds: feasible}, // enumeration succeeds
		SNMMultiPass{Key: def, Window: 3, MaxWorlds: 8},        // falls back to top worlds
	} {
		t.Run(fmt.Sprintf("%s-max%d", m.Name(), m.(SNMMultiPass).MaxWorlds), func(t *testing.T) {
			idx, err := IncrementalOf(m)
			if err != nil {
				t.Fatal(err)
			}
			maintained := verify.PairSet{}
			on := func(d PairDelta) bool {
				applyDelta(t, maintained, d)
				return true
			}
			for _, x := range u.Tuples {
				idx.Insert(x, on)
			}
			if d := diffSets(maintained, Candidates(m, u)); len(d) != 0 {
				t.Fatalf("maintained set diverges from batch: %v", d[:min(len(d), 8)])
			}
			rest := pdb.NewXRelation(u.Name, u.Schema...)
			for i, x := range u.Tuples {
				if i%2 == 0 {
					idx.Remove(x.ID, on)
					continue
				}
				rest.Append(x)
			}
			if d := diffSets(maintained, Candidates(m, rest)); len(d) != 0 {
				t.Fatalf("maintained set diverges from batch after removals: %v", d[:min(len(d), 8)])
			}
		})
	}
}

// scheduleOp is one operation of an index schedule: insert x or, with x
// nil, remove id.
type scheduleOp struct {
	x  *pdb.XTuple
	id string
}

// apply runs the operation on idx.
func (op scheduleOp) apply(idx IncrementalIndex, yield func(PairDelta) bool) bool {
	if op.x != nil {
		return idx.Insert(op.x, yield)
	}
	return idx.Remove(op.id, yield)
}

// runSchedule applies ops to idx and renders each operation's deltas in
// yield order, one string per operation.
func runSchedule(idx IncrementalIndex, ops []scheduleOp) []string {
	out := make([]string, len(ops))
	for i, op := range ops {
		var b strings.Builder
		op.apply(idx, func(d PairDelta) bool {
			fmt.Fprintf(&b, "%t %s,%s;", d.Dropped, d.Pair.A, d.Pair.B)
			return true
		})
		out[i] = b.String()
	}
	return out
}

// TestRecomputeIndex covers what multi-pass's recompute index adds to the
// contract the equivalence tests hold it to: a lazy Restore, a truncated
// yield, and the removal of an unknown ID.
func TestRecomputeIndex(t *testing.T) {
	u := shuffledUnion(10, 23)
	def, err := keys.ParseDef("name:3+job:2", u.Schema)
	if err != nil {
		t.Fatal(err)
	}
	checkRestoringIndexes(t, u, []Method{
		SNMMultiPass{Key: def, Window: 3, Select: TopWorlds, K: 3},
		SNMMultiPass{Key: def, Window: 3, Select: DissimilarWorlds, K: 2},
	})
}

// TestRestoringIndexes holds every other index with a Restore to the
// same checks: the cross product, blocking over alternatives, the ranked
// sorted neighbourhood (whose Restore leaves the order to one sort at
// the next operation) under each strategy, and Filter over an inner
// index with and without a Restore of its own.
func TestRestoringIndexes(t *testing.T) {
	u := shuffledUnion(10, 23)
	def, err := keys.ParseDef("name:3+job:2", u.Schema)
	if err != nil {
		t.Fatal(err)
	}
	pruning := Pruning{MaxDiff: map[int]int{0: 4}}
	checkRestoringIndexes(t, u, []Method{
		CrossProduct{},
		BlockingAlternatives{Key: def},
		SNMRanked{Key: def, Window: 3},
		SNMRanked{Key: def, Window: 3, Strategy: MedianKey},
		SNMRanked{Key: def, Window: 4, Strategy: ModeKey},
		NewFilter(SNMRanked{Key: def, Window: 4}, pruning),
		NewFilter(SNMCertain{Key: def, Window: 4}, pruning),
		NewFilter(SNMAlternatives{Key: def, Window: 3}, pruning),
	})
}

// checkRestoringIndexes runs the restore checks on each method's index:
// the operations after a Restore of k residents yield exactly what they
// yield after inserting them, a stopped yield keeps the maintained set,
// and removing an unknown ID changes nothing.
func checkRestoringIndexes(t *testing.T, u *pdb.XRelation, methods []Method) {
	const k = 8 // residents filed before the schedule
	if len(u.Tuples) < k+4 {
		t.Fatalf("%d tuples, want at least %d", len(u.Tuples), k+4)
	}
	resident, rest := u.Tuples[:k], u.Tuples[k:]
	candidates := func(m Method, ts []*pdb.XTuple) verify.PairSet {
		return Candidates(m, &pdb.XRelation{Schema: u.Schema, Tuples: ts})
	}
	inserted := func(t *testing.T, m Method) IncrementalIndex {
		idx := mustIncremental(t, m)
		for _, x := range resident {
			idx.Insert(x, func(PairDelta) bool { return true })
		}
		return idx
	}
	restored := func(t *testing.T, m Method) RestoringIndex {
		idx, ok := mustIncremental(t, m).(RestoringIndex)
		if !ok {
			t.Fatalf("%s: index is not a RestoringIndex", m.Name())
		}
		for _, x := range resident {
			idx.Restore(x)
		}
		if idx.Len() != len(resident) {
			t.Fatalf("%s: Len = %d after restoring %d residents", m.Name(), idx.Len(), len(resident))
		}
		return idx
	}

	cases := []struct {
		name  string
		check func(t *testing.T, m Method)
	}{
		{"restore-yields-as-inserted", func(t *testing.T, m Method) {
			// The first operation after the restore is a removal (of the
			// first or of a later resident) or an insertion.
			for _, ops := range [][]scheduleOp{
				{{id: resident[0].ID}, {x: rest[0]}, {id: resident[3].ID}, {x: rest[1]}, {id: rest[0].ID}},
				{{x: rest[0]}, {id: resident[0].ID}, {x: rest[1]}, {id: resident[5].ID}, {x: rest[2]}},
				{{id: resident[5].ID}, {id: resident[2].ID}, {x: rest[0]}, {id: resident[7].ID}},
			} {
				want := runSchedule(inserted(t, m), ops)
				got := runSchedule(restored(t, m), ops)
				if strings.Join(want, "") == "" {
					t.Fatal("schedule yields no deltas; it tests nothing")
				}
				for i := range ops {
					if got[i] != want[i] {
						t.Fatalf("operation %d after Restore yields\n %s\nwant\n %s", i, got[i], want[i])
					}
				}
			}
		}},
		{"stopped-yield-keeps-set", func(t *testing.T, m Method) {
			// Every other operation stops its yield after the first
			// delta; the one after it must still fold from batch
			// Candidates before it to batch Candidates after it.
			idx := mustIncremental(t, m)
			var live []*pdb.XTuple
			stopped := 0
			step := func(i int, op scheduleOp) {
				next := slices.DeleteFunc(slices.Clone(live), func(x *pdb.XTuple) bool { return x.ID == op.id })
				if op.x != nil {
					next = append(next, op.x)
				}
				if i%2 == 1 {
					if !op.apply(idx, func(PairDelta) bool { return false }) {
						stopped++
					}
				} else {
					set := maps.Clone(candidates(m, live))
					op.apply(idx, func(d PairDelta) bool {
						applyDelta(t, set, d)
						return true
					})
					if d := diffSets(set, candidates(m, next)); len(d) != 0 {
						t.Fatalf("operation %d after a stopped yield diverges from batch: %v", i, d[:min(len(d), 8)])
					}
				}
				live = next
			}
			for i, x := range u.Tuples {
				step(i, scheduleOp{x: x})
			}
			for i, x := range u.Tuples[:len(u.Tuples)-2] {
				step(i, scheduleOp{id: x.ID})
			}
			if stopped == 0 {
				t.Fatal("no yield was stopped early; the check tests nothing")
			}
		}},
		{"unknown-remove-is-noop", func(t *testing.T, m Method) {
			for i, idx := range []IncrementalIndex{inserted(t, m), restored(t, m)} {
				state := []string{"inserted", "restored"}[i]
				yielded := 0
				if !idx.Remove("no-such-id", func(PairDelta) bool { yielded++; return true }) || yielded != 0 {
					t.Fatalf("%s: removing an unknown ID yielded %d deltas", state, yielded)
				}
				if idx.Len() != len(resident) {
					t.Fatalf("%s: Len = %d after removing an unknown ID, want %d", state, idx.Len(), len(resident))
				}
			}
		}},
	}
	for _, tc := range cases {
		for _, m := range methods {
			t.Run(tc.name+"/"+m.Name(), func(t *testing.T) { tc.check(t, m) })
		}
	}
}
