package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"probdedup/internal/dataset"
	"probdedup/internal/decision"
	"probdedup/internal/keys"
	"probdedup/internal/pdb"
	"probdedup/internal/prepare"
	"probdedup/internal/ssr"
	"probdedup/internal/strsim"
	"probdedup/internal/verify"
)

// incrementalOpts returns a detection configuration over the synthetic
// schema with the given reduction. Workers > 1 additionally proves
// parallel batch ≡ sequential incremental.
func incrementalOpts(reduction ssr.Method) Options {
	return Options{
		Compare:   []strsim.Func{strsim.Levenshtein, strsim.Levenshtein, strsim.Levenshtein},
		Reduction: reduction,
		Final:     decision.Thresholds{Lambda: 0.6, Mu: 0.8},
		Workers:   4,
	}
}

// shuffledUnion builds a shuffled synthetic x-relation.
func shuffledUnion(t *testing.T, entities int, seed int64) *pdb.XRelation {
	t.Helper()
	d := dataset.Generate(dataset.DefaultConfig(entities, seed))
	u := d.Union()
	rng := rand.New(rand.NewSource(seed + 1))
	rng.Shuffle(len(u.Tuples), func(i, j int) {
		u.Tuples[i], u.Tuples[j] = u.Tuples[j], u.Tuples[i]
	})
	return u
}

// incrementalReductions enumerates the incremental-capable reductions
// under test (nil = cross product).
func incrementalReductions(t *testing.T, schema []string) map[string]ssr.Method {
	t.Helper()
	def, err := keys.ParseDef("name:3+job:2", schema)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]ssr.Method{
		"cross-product":            nil,
		"snm-certain":              ssr.SNMCertain{Key: def, Window: 4},
		"snm-ranked":               ssr.SNMRanked{Key: def, Window: 4},
		"snm-ranked-median":        ssr.SNMRanked{Key: def, Window: 3, Strategy: ssr.MedianKey},
		"snm-ranked-mode":          ssr.SNMRanked{Key: def, Window: 3, Strategy: ssr.ModeKey},
		"snm-alternatives":         ssr.SNMAlternatives{Key: def, Window: 4},
		"snm-multipass-top":        ssr.SNMMultiPass{Key: def, Window: 3, Select: ssr.TopWorlds, K: 3},
		"snm-multipass-dissimilar": ssr.SNMMultiPass{Key: def, Window: 3, Select: ssr.DissimilarWorlds, K: 2},
		"blocking-certain":         ssr.BlockingCertain{Key: def},
		"blocking-alternatives":    ssr.BlockingAlternatives{Key: def},
		"snm-certain+pruned":       ssr.NewFilter(ssr.SNMCertain{Key: def, Window: 5}, ssr.Pruning{MaxDiff: map[int]int{0: 4}}),
		"snm-ranked+pruned":        ssr.NewFilter(ssr.SNMRanked{Key: def, Window: 4}, ssr.Pruning{MaxDiff: map[int]int{0: 4}}),
	}
}

// liveOnly restricts a batch Result to M ∪ P: what a Detector's Flush
// holds for the same relation, since a pair compared as U is no online
// state.
func liveOnly(res *Result) *Result {
	out := &Result{Matches: res.Matches, Possible: res.Possible, ByPair: map[verify.Pair]Match{}, TotalPairs: res.TotalPairs}
	for _, p := range res.Compared {
		if m := res.ByPair[p]; m.Class != decision.U {
			out.Compared = append(out.Compared, p)
			out.ByPair[p] = m
		}
	}
	return out
}

// sameResult fails unless the two results carry identical classified
// pair sets, similarities, and classes.
func sameResult(t *testing.T, got, want *Result) {
	t.Helper()
	if len(got.Compared) != len(want.Compared) {
		t.Fatalf("compared %d pairs, want %d", len(got.Compared), len(want.Compared))
	}
	for p, wm := range want.ByPair {
		gm, ok := got.ByPair[p]
		if !ok {
			t.Fatalf("pair %v missing", p)
		}
		if gm.Sim != wm.Sim || gm.Class != wm.Class {
			t.Fatalf("pair %v: got (%v,%v), want (%v,%v)", p, gm.Sim, gm.Class, wm.Sim, wm.Class)
		}
	}
	if len(got.Matches) != len(want.Matches) || len(got.Possible) != len(want.Possible) {
		t.Fatalf("M/P sizes %d/%d, want %d/%d", len(got.Matches), len(got.Possible), len(want.Matches), len(want.Possible))
	}
	if got.TotalPairs != want.TotalPairs {
		t.Fatalf("TotalPairs %d, want %d", got.TotalPairs, want.TotalPairs)
	}
}

// TestDetectorEquivalentToBatch is the determinism proof of the
// incremental engine: Add-one-at-a-time over a shuffled relation
// produces exactly the classified pair set of batch Detect (itself
// layered on DetectStream) on the same relation — for a blocking, an
// SNM, the cross-product, and a pruned reduction.
func TestDetectorEquivalentToBatch(t *testing.T) {
	u := shuffledUnion(t, 40, 3)
	for name, reduction := range incrementalReductions(t, u.Schema) {
		t.Run(name, func(t *testing.T) {
			opts := incrementalOpts(reduction)
			batch, err := Detect(u, opts)
			if err != nil {
				t.Fatal(err)
			}
			folded := map[verify.Pair]Match{}
			det, err := NewDetector(u.Schema, opts, func(md MatchDelta) bool {
				if md.Kind == DeltaDrop {
					delete(folded, md.Pair)
				} else {
					folded[md.Pair] = md.Match
				}
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, x := range u.Tuples {
				if err := det.Add(x); err != nil {
					t.Fatal(err)
				}
			}
			res := det.Flush()
			sameResult(t, res, liveOnly(batch))
			// The emitted delta stream folds to the same state.
			if len(folded) != len(res.ByPair) {
				t.Fatalf("folded deltas hold %d pairs, flush %d", len(folded), len(res.ByPair))
			}
			for p, m := range folded {
				if rm := res.ByPair[p]; rm != m {
					t.Fatalf("folded pair %v = %+v, flush %+v", p, m, rm)
				}
			}
			if st := det.Stats(); st.Residents != len(u.Tuples) || st.Live != len(res.Compared) {
				t.Fatalf("stats %+v inconsistent with flush", st)
			}
		})
	}
}

// TestDetectorAddBatchAndRemoveEquivalence removes a third of the
// tuples and checks the flushed state equals batch Detect over the
// remaining relation.
func TestDetectorAddBatchAndRemoveEquivalence(t *testing.T) {
	u := shuffledUnion(t, 40, 5)
	for name, reduction := range incrementalReductions(t, u.Schema) {
		t.Run(name, func(t *testing.T) {
			opts := incrementalOpts(reduction)
			det, err := NewDetector(u.Schema, opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := det.AddBatch(u.Tuples); err != nil {
				t.Fatal(err)
			}
			rest := pdb.NewXRelation(u.Name, u.Schema...)
			for i, x := range u.Tuples {
				if i%3 == 0 {
					if err := det.Remove(x.ID); err != nil {
						t.Fatal(err)
					}
					continue
				}
				rest.Append(x)
			}
			batch, err := Detect(rest, opts)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, det.Flush(), liveOnly(batch))
		})
	}
}

// TestDetectorKeepsNoNonMatch pins that a comparison ending in U
// leaves no trace but the Compared counter: over an AddBatch, Add and
// Remove schedule on the cross product, no delta carries class U, the
// stream folds to Flush, neither Flush nor the snapshot holds a U pair,
// Live = Matches + Possible, Dropped counts exactly the drop deltas,
// and Compared counts every pair the cross product presented, U
// included.
func TestDetectorKeepsNoNonMatch(t *testing.T) {
	u := shuffledUnion(t, 20, 61)
	n := len(u.Tuples)
	fold, folded := foldDeltas()
	drops := 0
	det, err := NewDetector(u.Schema, incrementalOpts(nil), func(md MatchDelta) bool {
		if md.Class == decision.U {
			t.Errorf("%v delta of the U pair %v", md.Kind, md.Pair)
		}
		if md.Kind == DeltaDrop {
			drops++
		}
		return fold(md)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := det.AddBatch(u.Tuples[:n/2]); err != nil {
		t.Fatal(err)
	}
	for _, x := range u.Tuples[n/2:] {
		if err := det.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	if got := det.Stats().Compared; got != ssr.TotalPairs(n) {
		t.Fatalf("compared %d pairs, want every pair of the cross product (%d)", got, ssr.TotalPairs(n))
	}
	rest := pdb.NewXRelation(u.Name, u.Schema...)
	for i, x := range u.Tuples {
		if i%4 == 0 {
			if err := det.Remove(x.ID); err != nil {
				t.Fatal(err)
			}
			continue
		}
		rest.Append(x)
	}

	batch, err := Detect(rest, incrementalOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(liveOnly(batch).Compared) == len(batch.Compared) {
		t.Fatal("the fixture has no U pair; the test needs some")
	}
	res := det.Flush()
	sameResult(t, res, liveOnly(batch))
	st := det.Stats()
	if st.Live != st.Matches+st.Possible || st.Live != len(folded) || st.Dropped != drops || drops == 0 {
		t.Fatalf("stats %+v, %d folded pairs, %d drop deltas", st, len(folded), drops)
	}
	for p, m := range folded {
		if res.ByPair[p] != m {
			t.Fatalf("folded pair %v = %+v, flush %+v", p, m, res.ByPair[p])
		}
	}
	snap := det.SnapshotState()
	if len(snap.Pairs) != st.Live {
		t.Fatalf("snapshot holds %d pairs, %d live", len(snap.Pairs), st.Live)
	}
	for _, m := range snap.Pairs {
		if m.Class == decision.U {
			t.Fatalf("snapshot holds the U pair %v", m.Pair)
		}
	}
}

// TestDetectorRemoveInvalidatesPairDecisions is the regression test
// for the Remove fix: add → remove → re-add with the same ID but
// different attribute values must classify exactly as if the old
// version had never existed — no stale pair decision may survive the
// removal.
func TestDetectorRemoveInvalidatesPairDecisions(t *testing.T) {
	schema := []string{"name", "job", "age"}
	def, err := keys.ParseDef("name:3+job:2", schema)
	if err != nil {
		t.Fatal(err)
	}
	for name, reduction := range map[string]ssr.Method{
		"blocking-certain": ssr.BlockingCertain{Key: def},
		"snm-certain":      ssr.SNMCertain{Key: def, Window: 3},
	} {
		t.Run(name, func(t *testing.T) {
			opts := incrementalOpts(reduction)
			base := []*pdb.XTuple{
				pdb.NewXTuple("a", pdb.NewAlt(1, "Johnson", "pilot", "44")),
				pdb.NewXTuple("b", pdb.NewAlt(0.7, "Johnson", "pilot", "44"), pdb.NewAlt(0.3, "Jonson", "pilot", "44")),
				pdb.NewXTuple("c", pdb.NewAlt(1, "Miller", "baker", "31")),
			}
			// Version 1 of t matches a/b; version 2 is a different
			// person entirely, so any stale decision shows up.
			v1 := pdb.NewXTuple("t", pdb.NewAlt(1, "Johnson", "pilot", "44"))
			v2 := pdb.NewXTuple("t", pdb.NewAlt(1, "Millar", "baker", "31"))

			det, err := NewDetector(schema, opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := det.AddBatch(base); err != nil {
				t.Fatal(err)
			}
			if err := det.Add(v1); err != nil {
				t.Fatal(err)
			}
			if err := det.Remove("t"); err != nil {
				t.Fatal(err)
			}
			if err := det.Add(v2); err != nil {
				t.Fatal(err)
			}

			fresh, err := NewDetector(schema, opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.AddBatch(base); err != nil {
				t.Fatal(err)
			}
			if err := fresh.Add(v2); err != nil {
				t.Fatal(err)
			}
			sameResult(t, det.Flush(), fresh.Flush())
			// The v1-era match (a,t) must not survive: version 2 is a
			// different person, so a stale decision would classify it M.
			if det.Flush().Matches[verify.NewPair("a", "t")] {
				t.Fatal("stale match decision (a,t) survived re-add")
			}
		})
	}
}

// silentRemoveIndex wraps the cross-product index but swallows every
// delta its Remove yields: a user-defined IncrementalMethod that breaks
// the retraction half of the index contract, leaving the detector's
// defensive sweep as the only thing that retracts a removed tuple's
// pairs.
type silentRemoveIndex struct{ ssr.IncrementalIndex }

func (s silentRemoveIndex) Remove(id string, _ func(ssr.PairDelta) bool) bool {
	return s.IncrementalIndex.Remove(id, func(ssr.PairDelta) bool { return true })
}

// silentRemoveMethod is the user-defined IncrementalMethod behind
// silentRemoveIndex; batch Detect runs it as the plain cross product.
type silentRemoveMethod struct{ ssr.CrossProduct }

func (silentRemoveMethod) Incremental() (ssr.IncrementalIndex, error) {
	inner, err := ssr.CrossProduct{}.Incremental()
	return silentRemoveIndex{inner}, err
}

// TestDetectorRemoveSweepsWhatTheIndexKeeps is the regression test for
// Remove's defensive sweep: with an index whose Remove yields no drops,
// the removed tuple's pairs must still leave the live set, each with one
// drop delta, and a re-Add of the ID with other values must classify
// exactly as batch Detect over the new relation.
func TestDetectorRemoveSweepsWhatTheIndexKeeps(t *testing.T) {
	u := shuffledUnion(t, 12, 41)
	opts := incrementalOpts(silentRemoveMethod{})
	var deltas []MatchDelta
	det, err := NewDetector(u.Schema, opts, func(md MatchDelta) bool {
		deltas = append(deltas, md)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := det.AddBatch(u.Tuples); err != nil {
		t.Fatal(err)
	}
	batch, err := Detect(u, opts)
	if err != nil {
		t.Fatal(err)
	}
	victim, other := victimWithPartners(t, liveOnly(batch), u)
	before := map[verify.Pair]Match{}
	for p, m := range det.Flush().ByPair {
		if p.A == victim.ID || p.B == victim.ID {
			before[p] = m
		}
	}
	if want := partnersOf(liveOnly(batch), victim.ID); len(before) != want {
		t.Fatalf("victim holds %d live pairs, want its %d M and P pairs of batch Detect", len(before), want)
	}

	deltas = nil
	if err := det.Remove(victim.ID); err != nil {
		t.Fatal(err)
	}
	if len(deltas) != len(before) {
		t.Fatalf("Remove emitted %d deltas, want one drop per retracted pair (%d)", len(deltas), len(before))
	}
	for _, md := range deltas {
		if md.Kind != DeltaDrop || before[md.Pair] != md.Match {
			t.Fatalf("Remove emitted %v %+v, want a drop of a victim pair with its last decision", md.Kind, md.Match)
		}
		delete(before, md.Pair)
	}
	for p := range det.Flush().ByPair {
		if p.A == victim.ID || p.B == victim.ID {
			t.Fatalf("live pair %v names the removed tuple", p)
		}
	}

	// Re-add the ID with another tuple's values: nothing of the old
	// version may leak into its classification.
	changed := &pdb.XTuple{ID: victim.ID, Alts: other.Clone().Alts}
	if err := det.Add(changed); err != nil {
		t.Fatal(err)
	}
	rel := pdb.NewXRelation(u.Name, u.Schema...)
	for _, x := range u.Tuples {
		if x.ID == victim.ID {
			x = changed
		}
		rel.Append(x)
	}
	if batch, err = Detect(rel, opts); err != nil {
		t.Fatal(err)
	}
	sameResult(t, det.Flush(), liveOnly(batch))
}

// partnersOf counts the pairs of res naming id.
func partnersOf(res *Result, id string) int {
	n := 0
	for _, p := range res.Compared {
		if p.A == id || p.B == id {
			n++
		}
	}
	return n
}

// victimWithPartners picks the tuple of u holding the most M and P
// pairs in res (the first on a tie), and the tuple after it to borrow
// values from.
func victimWithPartners(t *testing.T, res *Result, u *pdb.XRelation) (victim, other *pdb.XTuple) {
	t.Helper()
	best, most := 0, 0
	for i, x := range u.Tuples {
		if n := partnersOf(res, x.ID); n > most {
			best, most = i, n
		}
	}
	if most == 0 {
		t.Fatal("no tuple holds a live pair; the test needs one")
	}
	return u.Tuples[best], u.Tuples[(best+1)%len(u.Tuples)]
}

// TestDetectorStandardizer checks online per-tuple standardization
// matches the batch path's whole-relation standardization.
func TestDetectorStandardizer(t *testing.T) {
	u := shuffledUnion(t, 20, 9)
	def, err := keys.ParseDef("name:3", u.Schema)
	if err != nil {
		t.Fatal(err)
	}
	opts := incrementalOpts(ssr.BlockingCertain{Key: def})
	opts.Standardizer = prepare.NewStandardizer(prepare.LowerCase, prepare.LowerCase, nil)
	batch, err := Detect(u, opts)
	if err != nil {
		t.Fatal(err)
	}
	det, err := NewDetector(u.Schema, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.AddBatch(u.Tuples); err != nil {
		t.Fatal(err)
	}
	sameResult(t, det.Flush(), liveOnly(batch))
}

// batchOnlyMethod is a third-party reduction without the Incremental
// hook, standing in for user code that has not opted in.
type batchOnlyMethod struct{}

func (batchOnlyMethod) Name() string { return "batch-only" }
func (batchOnlyMethod) EnumeratePairs(*pdb.XRelation, func(verify.Pair) bool) bool {
	return true
}

// TestDetectorErrors exercises the validation surface: unsupported
// reductions, arity mismatches, duplicate IDs, unknown removals, and
// nil tuples.
func TestDetectorErrors(t *testing.T) {
	schema := []string{"name", "job", "age"}
	if _, err := NewDetector(schema, incrementalOpts(batchOnlyMethod{}), nil); err == nil {
		t.Fatal("expected an error for a non-incremental reduction")
	} else if !errors.Is(err, ssr.ErrNotIncremental) {
		t.Fatalf("error %q does not wrap ssr.ErrNotIncremental", err)
	} else if !strings.Contains(err.Error(), "batch-only") {
		t.Fatalf("unhelpful error: %v", err)
	}
	det, err := NewDetector(schema, incrementalOpts(nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.Add(nil); err == nil {
		t.Fatal("expected an error for a nil tuple")
	}
	if err := det.Add(pdb.NewXTuple("short", pdb.NewAlt(1, "only-one-attr"))); err == nil {
		t.Fatal("expected an arity error")
	}
	if err := det.Add(pdb.NewXTuple("a", pdb.NewAlt(1, "Tim", "pilot", "44"))); err != nil {
		t.Fatal(err)
	}
	if err := det.Add(pdb.NewXTuple("a", pdb.NewAlt(1, "Tom", "baker", "31"))); err == nil {
		t.Fatal("expected a duplicate-ID error")
	}
	if err := det.Remove("nobody"); err == nil {
		t.Fatal("expected an unknown-ID error")
	}
}

// TestDetectorEmitStop checks that a false-returning callback stops
// delta delivery permanently while state maintenance continues.
func TestDetectorEmitStop(t *testing.T) {
	u := shuffledUnion(t, 15, 21)
	opts := incrementalOpts(nil)
	emitted := 0
	det, err := NewDetector(u.Schema, opts, func(MatchDelta) bool {
		emitted++
		return emitted < 3
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := det.AddBatch(u.Tuples); err != nil {
		t.Fatal(err)
	}
	if emitted != 3 {
		t.Fatalf("emitted %d deltas, want exactly 3", emitted)
	}
	st := det.Stats()
	if !st.Stopped {
		t.Fatal("Stopped not set after the callback returned false")
	}
	batch, err := Detect(u, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, det.Flush(), liveOnly(batch))
}

// TestDetectorAddIsolatesCallerTuple checks the deep copy: mutating
// the caller's tuple after Add must not corrupt the resident state.
func TestDetectorAddIsolatesCallerTuple(t *testing.T) {
	schema := []string{"name"}
	opts := Options{
		Compare: []strsim.Func{strsim.Levenshtein},
		Final:   decision.Thresholds{Lambda: 0.6, Mu: 0.8},
	}
	det, err := NewDetector(schema, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	x := pdb.NewXTuple("a", pdb.NewAlt(1, "Tim"))
	if err := det.Add(x); err != nil {
		t.Fatal(err)
	}
	x.Alts[0] = pdb.NewAlt(1, "Zoe")
	if err := det.Add(pdb.NewXTuple("b", pdb.NewAlt(1, "Tim"))); err != nil {
		t.Fatal(err)
	}
	res := det.Flush()
	m, ok := res.ByPair[verify.NewPair("a", "b")]
	if !ok {
		t.Fatal("pair (a,b) not compared")
	}
	if m.Sim != 1 {
		t.Fatalf("sim = %v, want 1 (caller mutation leaked into resident tuple)", m.Sim)
	}
}

// TestDetectorBlockingClusterEpochs runs the bounded-staleness tier
// end to end: BlockingCluster tuples stream through the detector,
// drift stays within the configured bound (auto-reseals happen
// in-band), Stats exposes the staleness report, the emitted delta
// stream folds exactly to the flushed state across epoch flips, and a
// manual Reseal makes Flush equal batch Detect on the residents — at
// Workers 1 and 4 with identical results.
func TestDetectorBlockingClusterEpochs(t *testing.T) {
	u := shuffledUnion(t, 40, 41)
	def, err := keys.ParseDef("name:3+job:2", u.Schema)
	if err != nil {
		t.Fatal(err)
	}
	reduction := ssr.BlockingCluster{Key: def, K: 4, Seed: 1}
	results := map[int]*Result{}
	for _, workers := range []int{1, 4} {
		opts := incrementalOpts(reduction)
		opts.Workers = workers
		folded := map[verify.Pair]Match{}
		det, err := NewDetector(u.Schema, opts, func(md MatchDelta) bool {
			if md.Kind == DeltaDrop {
				delete(folded, md.Pair)
			} else {
				folded[md.Pair] = md.Match
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range u.Tuples {
			if err := det.Add(x); err != nil {
				t.Fatal(err)
			}
			st := det.Stats()
			if st.Staleness == nil {
				t.Fatal("Stats().Staleness is nil for blocking-cluster")
			}
			if float64(st.Staleness.Drifted) > st.Staleness.Bound*float64(st.Staleness.Residents) {
				t.Fatalf("after add %d: drift %d exceeds bound", i, st.Staleness.Drifted)
			}
		}
		if ep := det.Stats().Staleness.Epoch; ep < 2 {
			t.Fatalf("expected several epochs over the stream, got %d", ep)
		}
		if err := det.Reseal(); err != nil {
			t.Fatal(err)
		}
		st := det.Stats()
		if st.Staleness.Drifted != 0 {
			t.Fatalf("Drifted = %d right after Reseal, want 0", st.Staleness.Drifted)
		}
		res := det.Flush()
		if len(folded) != len(res.ByPair) {
			t.Fatalf("folded deltas hold %d pairs, flush %d", len(folded), len(res.ByPair))
		}
		for p, m := range folded {
			fm, ok := res.ByPair[p]
			if !ok || fm.Sim != m.Sim || fm.Class != m.Class {
				t.Fatalf("folded pair %v diverges from flush", p)
			}
		}
		results[workers] = res
	}
	sameResult(t, results[4], results[1])

	batch, err := Detect(u, incrementalOpts(reduction))
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, results[1], liveOnly(batch))
}

// TestDetectorResealNoOpOnExactTier checks that Reseal on an
// exact-tier reduction changes nothing and emits nothing.
func TestDetectorResealNoOpOnExactTier(t *testing.T) {
	u := shuffledUnion(t, 15, 43)
	emitted := 0
	det, err := NewDetector(u.Schema, incrementalOpts(nil), func(MatchDelta) bool {
		emitted++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range u.Tuples {
		if err := det.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	if det.Stats().Staleness != nil {
		t.Fatal("exact-tier reduction reports a staleness")
	}
	before := det.Flush()
	n := emitted
	if err := det.Reseal(); err != nil {
		t.Fatal(err)
	}
	if emitted != n {
		t.Fatalf("Reseal on exact tier emitted %d deltas", emitted-n)
	}
	sameResult(t, det.Flush(), before)
}

// TestDetectorStatsCountersMatchFlush pins the live M/P counters of
// Stats — maintained where pairs enter and leave the live set, so Stats
// never walks it — to a recount from Flush: after every operation of a
// random Add/AddBatch/Remove/Reseal schedule, and again across a
// snapshot → restore round trip followed by more of the schedule.
func TestDetectorStatsCountersMatchFlush(t *testing.T) {
	u := shuffledUnion(t, 30, 53)
	def, err := keys.ParseDef("name:3+job:2", u.Schema)
	if err != nil {
		t.Fatal(err)
	}
	check := func(t *testing.T, det *Detector, when string) {
		t.Helper()
		st, res := det.Stats(), det.Flush()
		if st.Live != len(res.ByPair) || st.Matches != len(res.Matches) || st.Possible != len(res.Possible) {
			t.Fatalf("%s: Stats live/M/P = %d/%d/%d, Flush recounts %d/%d/%d", when,
				st.Live, st.Matches, st.Possible, len(res.ByPair), len(res.Matches), len(res.Possible))
		}
	}
	for name, c := range map[string]struct {
		reduction ssr.Method
		prefilter bool
	}{
		"cross-product":              {nil, false},
		"snm-certain+prefilter":      {ssr.SNMCertain{Key: def, Window: 4}, true},
		"blocking-certain+prefilter": {ssr.BlockingCertain{Key: def}, true},
		"blocking-cluster":           {ssr.BlockingCluster{Key: def, K: 4, Seed: 1}, false},
	} {
		t.Run(name, func(t *testing.T) {
			opts := incrementalOpts(c.reduction)
			opts.PreFilter = c.prefilter
			det, err := NewDetector(u.Schema, opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(59))
			next, sawM := 0, false
			var resident []string
			step := func(i int) {
				switch op := rng.Intn(10); {
				case op < 4 && next < len(u.Tuples):
					x := u.Tuples[next]
					next++
					resident = append(resident, x.ID)
					err = det.Add(x)
				case op < 6 && next < len(u.Tuples):
					hi := min(next+1+rng.Intn(6), len(u.Tuples))
					for _, x := range u.Tuples[next:hi] {
						resident = append(resident, x.ID)
					}
					err = det.AddBatch(u.Tuples[next:hi])
					next = hi
				case op < 9 && len(resident) > 0:
					k := rng.Intn(len(resident))
					err = det.Remove(resident[k])
					resident = append(resident[:k], resident[k+1:]...)
				default:
					err = det.Reseal()
				}
				if err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
				check(t, det, fmt.Sprintf("after op %d", i))
				sawM = sawM || det.Stats().Matches > 0
			}
			for i := 0; i < 60; i++ {
				step(i)
			}
			det, err = RestoreDetector(opts, nil, det.SnapshotState())
			if err != nil {
				t.Fatal(err)
			}
			check(t, det, "after restore")
			for i := 60; i < 90; i++ {
				step(i)
			}
			if !sawM {
				t.Fatal("schedule never held a match: the counters were not exercised")
			}
		})
	}
}

// TestDetectorDropsLargeBatchScratch pins that one large AddBatch does
// not leave its delta buffer and emit queue at the batch's size for
// the detector's lifetime: the next operation starts from a buffer of
// at most maxKeptScratch items.
func TestDetectorDropsLargeBatchScratch(t *testing.T) {
	u := shuffledUnion(t, 60, 31)
	opts := incrementalOpts(nil)
	opts.Workers = 1
	det, err := NewDetector(u.Schema, opts, func(MatchDelta) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	last := len(u.Tuples) - 1
	if err := det.AddBatch(u.Tuples[:last]); err != nil {
		t.Fatal(err)
	}
	if n := cap(det.deltaBuf); n <= maxKeptScratch {
		t.Fatalf("the batch grew the delta buffer to %d items only; the test needs more than %d", n, maxKeptScratch)
	}
	if err := det.Add(u.Tuples[last]); err != nil {
		t.Fatal(err)
	}
	if n := cap(det.deltaBuf); n > maxKeptScratch {
		t.Fatalf("delta buffer keeps %d items after a single Add", n)
	}
	if n := cap(det.emits.queue); n > maxKeptScratch {
		t.Fatalf("emit queue keeps %d items after a single Add", n)
	}
}
