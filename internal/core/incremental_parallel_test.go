package core

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"probdedup/internal/decision"
	"probdedup/internal/keys"
	"probdedup/internal/pdb"
	"probdedup/internal/ssr"
	"probdedup/internal/strsim"
	"probdedup/internal/verify"
)

// foldDeltas returns an emit callback folding the delta stream into
// set, plus the set. The callback deliberately uses no synchronization
// of its own: the detector guarantees sequential invocation, and the
// race detector verifies that guarantee in the concurrent tests.
func foldDeltas() (func(MatchDelta) bool, map[verify.Pair]Match) {
	folded := map[verify.Pair]Match{}
	return func(md MatchDelta) bool {
		if md.Kind == DeltaDrop {
			delete(folded, md.Pair)
		} else {
			folded[md.Pair] = md.Match
		}
		return true
	}, folded
}

// TestDetectorAddBatchParallelEquivalence is the tentpole determinism
// proof: for every incremental-capable reduction, parallel AddBatch
// (Workers=4, whole relation and chunked) ≡ a sequential Add loop
// (Workers=1) ≡ batch Detect on the same shuffled relation — and the
// net delta stream emitted by the batched path folds to the flushed
// state.
func TestDetectorAddBatchParallelEquivalence(t *testing.T) {
	u := shuffledUnion(t, 40, 13)
	for name, reduction := range incrementalReductions(t, u.Schema) {
		t.Run(name, func(t *testing.T) {
			opts := incrementalOpts(reduction)
			batch, err := Detect(u, opts)
			if err != nil {
				t.Fatal(err)
			}

			seqOpts := opts
			seqOpts.Workers = 1
			seq, err := NewDetector(u.Schema, seqOpts, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, x := range u.Tuples {
				if err := seq.Add(x); err != nil {
					t.Fatal(err)
				}
			}
			sameResult(t, seq.Flush(), liveOnly(batch))

			for _, chunk := range []int{len(u.Tuples), 7} {
				emit, folded := foldDeltas()
				par, err := NewDetector(u.Schema, opts, emit)
				if err != nil {
					t.Fatal(err)
				}
				for lo := 0; lo < len(u.Tuples); lo += chunk {
					hi := min(lo+chunk, len(u.Tuples))
					if err := par.AddBatch(u.Tuples[lo:hi]); err != nil {
						t.Fatal(err)
					}
				}
				res := par.Flush()
				sameResult(t, res, liveOnly(batch))
				if len(folded) != len(res.ByPair) {
					t.Fatalf("chunk %d: folded deltas hold %d pairs, flush %d", chunk, len(folded), len(res.ByPair))
				}
				for p, m := range folded {
					if rm := res.ByPair[p]; rm != m {
						t.Fatalf("chunk %d: folded pair %v = %+v, flush %+v", chunk, p, m, rm)
					}
				}
			}
		})
	}
}

// TestDetectorEmitReentrancy is the deadlock regression test for the
// emit-outside-lock contract: a callback that re-enters the detector
// — Stats, Len, Flush, and a follow-up Add — must complete instead of
// deadlocking on the state lock. The whole scenario runs under a
// timeout guard so a regression fails fast instead of hanging the
// suite.
func TestDetectorEmitReentrancy(t *testing.T) {
	schema := []string{"name", "job", "age"}
	opts := incrementalOpts(nil)
	done := make(chan error, 1)
	go func() {
		var det *Detector
		var reentered atomic.Bool
		var deltas atomic.Int64
		emit := func(md MatchDelta) bool {
			deltas.Add(1)
			// Re-enter through every read path on every delta…
			st := det.Stats()
			if st.Residents != det.Len() {
				done <- fmt.Errorf("re-entrant Stats/Len disagree: %d vs %d", st.Residents, det.Len())
				return false
			}
			det.Flush()
			// …and through the mutating paths exactly once.
			if reentered.CompareAndSwap(false, true) {
				if err := det.Add(pdb.NewXTuple("reentrant", pdb.NewAlt(1, "Johnson", "pilot", "44"))); err != nil {
					done <- fmt.Errorf("re-entrant Add: %w", err)
					return false
				}
			}
			return true
		}
		var err error
		det, err = NewDetector(schema, opts, emit)
		if err != nil {
			done <- err
			return
		}
		if err := det.AddBatch([]*pdb.XTuple{
			pdb.NewXTuple("a", pdb.NewAlt(1, "Johnson", "pilot", "44")),
			pdb.NewXTuple("b", pdb.NewAlt(1, "Johnson", "pilot", "44")),
			pdb.NewXTuple("c", pdb.NewAlt(1, "Jonson", "pilot", "44")),
		}); err != nil {
			done <- err
			return
		}
		if n := deltas.Load(); n == 0 {
			done <- errors.New("no deltas delivered")
			return
		}
		// The re-entrant tuple became resident and its deltas (pairs
		// with a, b, c) were delivered by the active drainer.
		if det.Len() != 4 {
			done <- fmt.Errorf("residents = %d, want 4 (re-entrant Add lost)", det.Len())
			return
		}
		if live := det.Stats().Live; live != 6 {
			done <- fmt.Errorf("live pairs = %d, want 6 (cross product over 4 tuples)", live)
			return
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("deadlock: re-entrant emit callback did not complete within 30s")
	}
}

// TestDetectorAddBatchPartialApply pins the BatchError contract down:
// AddBatch stops at the first invalid tuple, reports its batch
// position through a typed *BatchError, and leaves exactly the
// successful prefix resident — equivalent to having added the prefix
// alone.
func TestDetectorAddBatchPartialApply(t *testing.T) {
	schema := []string{"name", "job", "age"}
	mk := func(id, name string) *pdb.XTuple {
		return pdb.NewXTuple(id, pdb.NewAlt(1, name, "pilot", "44"))
	}
	for _, tc := range []struct {
		name  string
		batch []*pdb.XTuple
		index int
		cause string
	}{
		{
			name: "arity",
			batch: []*pdb.XTuple{
				mk("a", "Johnson"), mk("b", "Jonson"),
				pdb.NewXTuple("short", pdb.NewAlt(1, "only-one-attr")),
				mk("d", "Johnsen"),
			},
			index: 2,
			cause: "attributes",
		},
		{
			name: "nil tuple",
			batch: []*pdb.XTuple{
				mk("a", "Johnson"), nil, mk("c", "Jonson"),
			},
			index: 1,
			cause: "nil",
		},
		{
			name: "intra-batch duplicate ID",
			batch: []*pdb.XTuple{
				mk("a", "Johnson"), mk("b", "Jonson"), mk("a", "Miller"), mk("d", "Johnsen"),
			},
			index: 2,
			cause: "duplicate",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := incrementalOpts(nil)
			det, err := NewDetector(schema, opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			err = det.AddBatch(tc.batch)
			var be *BatchError
			if !errors.As(err, &be) {
				t.Fatalf("error %v (%T) is not a *BatchError", err, err)
			}
			if be.Index != tc.index {
				t.Fatalf("BatchError.Index = %d, want %d", be.Index, tc.index)
			}
			if !strings.Contains(be.Err.Error(), tc.cause) {
				t.Fatalf("cause %q does not mention %q", be.Err, tc.cause)
			}
			if det.Len() != tc.index {
				t.Fatalf("residents = %d, want the successful prefix %d", det.Len(), tc.index)
			}

			// The flushed state equals a detector fed the prefix alone.
			want, err := NewDetector(schema, opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := want.AddBatch(tc.batch[:tc.index]); err != nil {
				t.Fatal(err)
			}
			sameResult(t, det.Flush(), want.Flush())

			// The detector stays usable after the failure.
			if err := det.Add(mk("later", "Johnson")); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDetectorRemoveUnknownID makes the not-found behavior explicit:
// remove-before-add and remove-twice both fail with ErrUnknownID and
// change nothing.
func TestDetectorRemoveUnknownID(t *testing.T) {
	schema := []string{"name", "job", "age"}
	det, err := NewDetector(schema, incrementalOpts(nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.Remove("never-added"); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("remove-before-add: error %v does not wrap ErrUnknownID", err)
	}
	x := pdb.NewXTuple("a", pdb.NewAlt(1, "Johnson", "pilot", "44"))
	if err := det.Add(x); err != nil {
		t.Fatal(err)
	}
	if err := det.Add(pdb.NewXTuple("b", pdb.NewAlt(1, "Jonson", "pilot", "44"))); err != nil {
		t.Fatal(err)
	}
	if err := det.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if err := det.Remove("a"); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("remove-twice: error %v does not wrap ErrUnknownID", err)
	}
	if st := det.Stats(); st.Residents != 1 || st.Live != 0 {
		t.Fatalf("failed removals changed state: %+v", st)
	}
}

// TestDetectorConcurrentCallers races Add, AddBatch, Remove, Flush,
// Stats and Len on one detector from several goroutines under the
// race detector, with an emit callback that folds the delta stream
// WITHOUT synchronization of its own — validating the sequential
// emit-invocation guarantee. Each goroutine owns a disjoint ID
// partition so the surviving resident set is deterministic; the final
// Flush must equal batch Detect over the survivors. Reductions whose
// candidate set is insertion-order independent (blocking, cross
// product) keep the oracle exact under arbitrary interleavings.
func TestDetectorConcurrentCallers(t *testing.T) {
	u := shuffledUnion(t, 36, 19)
	def, err := keys.ParseDef("name:3+job:2", u.Schema)
	if err != nil {
		t.Fatal(err)
	}
	for name, reduction := range map[string]ssr.Method{
		"cross-product":    nil,
		"blocking-certain": ssr.BlockingCertain{Key: def},
	} {
		t.Run(name, func(t *testing.T) {
			opts := incrementalOpts(reduction)
			emit, folded := foldDeltas()
			var inCallback atomic.Bool
			guarded := func(md MatchDelta) bool {
				if !inCallback.CompareAndSwap(false, true) {
					t.Error("emit callback invoked concurrently with itself")
				}
				defer inCallback.Store(false)
				return emit(md)
			}
			det, err := NewDetector(u.Schema, opts, guarded)
			if err != nil {
				t.Fatal(err)
			}

			const workers = 4
			var wg sync.WaitGroup
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					var mine []*pdb.XTuple
					for i := g; i < len(u.Tuples); i += workers {
						mine = append(mine, u.Tuples[i])
					}
					// Half arrives one at a time, half as one batch;
					// every third of the singles is retired again.
					half := len(mine) / 2
					for j, x := range mine[:half] {
						if err := det.Add(x); err != nil {
							t.Error(err)
							return
						}
						if j%3 == 0 {
							if err := det.Remove(x.ID); err != nil {
								t.Error(err)
								return
							}
						}
						det.Stats()
						det.Len()
					}
					if err := det.AddBatch(mine[half:]); err != nil {
						t.Error(err)
						return
					}
					det.Flush()
				}(g)
			}
			wg.Wait()

			// Deterministic survivor set: per goroutine, the first
			// half loses every third tuple.
			rest := pdb.NewXRelation(u.Name, u.Schema...)
			for g := 0; g < workers; g++ {
				var mine []*pdb.XTuple
				for i := g; i < len(u.Tuples); i += workers {
					mine = append(mine, u.Tuples[i])
				}
				half := len(mine) / 2
				for j, x := range mine[:half] {
					if j%3 != 0 {
						rest.Append(x)
					}
				}
				rest.Append(mine[half:]...)
			}
			batch, err := Detect(rest, opts)
			if err != nil {
				t.Fatal(err)
			}
			res := det.Flush()
			sameResult(t, res, liveOnly(batch))
			if len(folded) != len(res.ByPair) {
				t.Fatalf("folded deltas hold %d pairs, flush %d", len(folded), len(res.ByPair))
			}
			for p, m := range folded {
				if rm := res.ByPair[p]; rm != m {
					t.Fatalf("folded pair %v = %+v, flush %+v", p, m, rm)
				}
			}
		})
	}
}

// churnyIndex wraps the cross-product index and, once a first pair
// exists, prefixes every later insertion's deltas with a drop of that
// pair and two re-adds. That sequence bends the IncrementalIndex
// contract (a pair is added while it is in the set) the way a
// user-defined index might, and it is exactly the shape the parallel
// verification phase must not mishandle: the first re-add needs a
// comparison because the pair is retracted by the time it applies,
// even though it is live when the batch is collected, and the second
// must be skipped because the first made the pair live again.
type churnyIndex struct {
	inner ssr.IncrementalIndex
	first *verify.Pair
}

func (c *churnyIndex) Insert(x *pdb.XTuple, yield func(ssr.PairDelta) bool) bool {
	if c.first != nil {
		if !yield(ssr.PairDelta{Pair: *c.first, Dropped: true}) {
			return false
		}
		for range 2 {
			if !yield(ssr.PairDelta{Pair: *c.first}) {
				return false
			}
		}
	}
	return c.inner.Insert(x, func(pd ssr.PairDelta) bool {
		if c.first == nil && !pd.Dropped {
			p := pd.Pair
			c.first = &p
		}
		return yield(pd)
	})
}

func (c *churnyIndex) Remove(id string, yield func(ssr.PairDelta) bool) bool {
	return c.inner.Remove(id, yield)
}

func (c *churnyIndex) Len() int { return c.inner.Len() }

// churnyMethod is a user-defined IncrementalMethod built on the cross
// product.
type churnyMethod struct{ ssr.CrossProduct }

func (churnyMethod) Incremental() (ssr.IncrementalIndex, error) {
	inner, err := ssr.CrossProduct{}.Incremental()
	if err != nil {
		return nil, err
	}
	return &churnyIndex{inner: inner}, nil
}

// TestDetectorParallelDropReAddDelta is the regression test for the
// parallel verification phase against a user-defined index that
// drops and re-adds one pair within a single delta sequence: the
// classified state and the comparison count must be identical at
// Workers 1 and 4 (the sequential path re-compares the re-added pair;
// the parallel path must see that it is retracted by its turn to reach
// the same answer), and the churned pair — a match, so it is live when
// each sequence is collected — must survive.
func TestDetectorParallelDropReAddDelta(t *testing.T) {
	u := shuffledUnion(t, 25, 31)
	// The first two arrivals are one tuple under two IDs, so the pair the
	// index churns is an M pair.
	twin := u.Tuples[0].Clone()
	twin.ID = "twin"
	rel := pdb.NewXRelation(u.Name, u.Schema...)
	rel.Append(u.Tuples[0], twin)
	rel.Append(u.Tuples[1:]...)
	churned := verify.NewPair(u.Tuples[0].ID, twin.ID)

	results := map[int]*Result{}
	compared := map[int]int{}
	for _, workers := range []int{1, 4} {
		opts := incrementalOpts(churnyMethod{})
		opts.Workers = workers
		det, err := NewDetector(rel.Schema, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Single Adds: later insertions each yield enough cross-product
		// deltas (plus the churn prefix) to cross the inline threshold,
		// so the Workers=4 run exercises the parallel path.
		for _, x := range rel.Tuples {
			if err := det.Add(x); err != nil {
				t.Fatal(err)
			}
		}
		results[workers], compared[workers] = det.Flush(), det.Stats().Compared
	}
	if m := results[1].ByPair[churned]; m.Class != decision.M {
		t.Fatalf("churned pair %v = %+v, want a live match", churned, m)
	}
	// Every cross-product pair once, plus the churned pair once more per
	// later arrival: its second re-add finds it live.
	n := len(rel.Tuples)
	if want := ssr.TotalPairs(n) + n - 2; compared[1] != want || compared[4] != want {
		t.Fatalf("compared %d (workers=1) and %d (workers=4) pairs, want %d", compared[1], compared[4], want)
	}
	batch, err := Detect(rel, incrementalOpts(churnyMethod{}))
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, results[1], liveOnly(batch))
	sameResult(t, results[4], results[1])
}

// TestDetectorWorkersDoNotChangeDeltaStream checks the documented
// contract that Workers only changes throughput: the same AddBatch
// sequence emits the identical net delta stream (same pairs, same
// payloads) at Workers 1 and 4 — order included, because state
// updates are applied sequentially in delta order either way. The
// opt-in similarity memo (CacheCapacity 128, small enough to evict)
// must be just as invisible.
func TestDetectorWorkersDoNotChangeDeltaStream(t *testing.T) {
	u := shuffledUnion(t, 30, 23)
	def, err := keys.ParseDef("name:3+job:2", u.Schema)
	if err != nil {
		t.Fatal(err)
	}
	var ref []MatchDelta
	for _, capacity := range []int{0, 128} {
		for _, workers := range []int{1, 4} {
			opts := Options{
				Compare:       []strsim.Func{strsim.Levenshtein, strsim.Levenshtein, strsim.Levenshtein},
				Reduction:     ssr.SNMCertain{Key: def, Window: 4},
				Final:         decision.Thresholds{Lambda: 0.6, Mu: 0.8},
				Workers:       workers,
				CacheCapacity: capacity,
			}
			var got []MatchDelta
			det, err := NewDetector(u.Schema, opts, func(md MatchDelta) bool {
				got = append(got, md)
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := det.AddBatch(u.Tuples); err != nil {
				t.Fatal(err)
			}
			if memo := det.Stats().Cache; (memo.Misses > 0) != (capacity > 0) {
				t.Fatalf("capacity=%d: memo counters %+v", capacity, memo)
			}
			if ref == nil {
				ref = got
				continue
			}
			if len(got) != len(ref) {
				t.Fatalf("delta stream lengths differ: %d (workers=1, no memo) vs %d (workers=%d, capacity=%d)", len(ref), len(got), workers, capacity)
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("delta %d differs: %+v (workers=1, no memo) vs %+v (workers=%d, capacity=%d)", i, ref[i], got[i], workers, capacity)
				}
			}
		}
	}
}

// TestDetectorStopsAtProvenU: a Detector's comparers stop verifying a
// pair once its class U is proven (xmatch.Comparer.StopAtU), and that
// changes nothing a caller sees. On dataset.Generate data under the
// sorted neighbourhood over alternatives, at Workers 1 and 4 and with
// the memo off and on (an opted-in memo must only ever hold full value
// similarities), the folded delta stream and Flush must equal batch
// Detect restricted to M ∪ P, similarities bit for bit, while some
// comparisons stopped early. Part of the relation arrives in batches
// (the worker pool), part one by one, and a few residents leave and
// come back.
func TestDetectorStopsAtProvenU(t *testing.T) {
	u := shuffledUnion(t, 60, 48)
	def, err := keys.ParseDef("name:3+job:2", u.Schema)
	if err != nil {
		t.Fatal(err)
	}
	opts := incrementalOpts(ssr.SNMAlternatives{Key: def, Window: 6})
	batch, err := Detect(u, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := liveOnly(batch)
	for _, workers := range []int{1, 4} {
		for _, capacity := range []int{0, 128} {
			t.Run(fmt.Sprintf("workers=%d/cache=%d", workers, capacity), func(t *testing.T) {
				o := opts
				o.Workers, o.CacheCapacity = workers, capacity
				emit, folded := foldDeltas()
				d, err := NewDetector(u.Schema, o, emit)
				if err != nil {
					t.Fatal(err)
				}
				half := len(u.Tuples) / 2
				for lo := 0; lo < half; lo += 40 {
					if err := d.AddBatch(u.Tuples[lo:min(lo+40, half)]); err != nil {
						t.Fatal(err)
					}
				}
				for _, x := range u.Tuples[half:] {
					if err := d.Add(x); err != nil {
						t.Fatal(err)
					}
				}
				for _, x := range u.Tuples[:10] {
					if err := d.Remove(x.ID); err != nil {
						t.Fatal(err)
					}
				}
				if err := d.AddBatch(u.Tuples[:10]); err != nil {
					t.Fatal(err)
				}
				if len(folded) != len(want.ByPair) {
					t.Fatalf("folded deltas hold %d pairs, batch M ∪ P %d", len(folded), len(want.ByPair))
				}
				for p, wm := range want.ByPair {
					if gm, ok := folded[p]; !ok || math.Float64bits(gm.Sim) != math.Float64bits(wm.Sim) || gm.Class != wm.Class {
						t.Fatalf("pair %v: folded %+v (present %v), batch %+v", p, gm, ok, wm)
					}
				}
				sameResult(t, d.Flush(), want)
				exits := 0
				for _, c := range d.eng.comparers {
					exits += c.Exits()
				}
				compared := d.Stats().Compared
				t.Logf("%d of %d comparisons stopped at a proven U", exits, compared)
				if exits == 0 || exits >= compared {
					t.Fatalf("%d of %d comparisons stopped; want some, not all", exits, compared)
				}
			})
		}
	}
}
