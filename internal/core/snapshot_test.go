package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"probdedup/internal/decision"
	"probdedup/internal/keys"
	"probdedup/internal/pdb"
	"probdedup/internal/ssr"
	"probdedup/internal/verify"
)

// snapshotFixture drives a detector through a mixed schedule (adds,
// batched adds, removals, reseals) and returns it with its input.
func snapshotFixture(t *testing.T, red ssr.Method, entities int, seed int64) (*Detector, *pdb.XRelation, Options) {
	t.Helper()
	u := shuffledUnion(t, entities, seed)
	opts := incrementalOpts(red)
	det, err := NewDetector(u.Schema, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	half := len(u.Tuples) / 2
	for i, x := range u.Tuples[:half] {
		if err := det.Add(x); err != nil {
			t.Fatal(err)
		}
		if i%5 == 4 {
			if err := det.Remove(x.ID); err != nil {
				t.Fatal(err)
			}
		}
		if i%7 == 6 {
			if err := det.Reseal(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := det.AddBatch(u.Tuples[half : half+4]); err != nil {
		t.Fatal(err)
	}
	return det, u, opts
}

// TestSnapshotRestoreRoundTrip pins the snapshot contract on an exact
// tier and on the bounded-staleness tier: the restored detector
// reports the identical classified pair set, counters, and residents,
// and then behaves bit-identically on further operations.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	schema := shuffledUnion(t, 4, 1).Schema
	reds := incrementalReductions(t, schema)
	def, err := keys.ParseDef("name:3+job:2", schema)
	if err != nil {
		t.Fatal(err)
	}
	reds["blocking-cluster"] = ssr.BlockingCluster{Key: def, K: 4, Seed: 1}
	for name, red := range reds {
		red := red
		t.Run(name, func(t *testing.T) {
			det, u, opts := snapshotFixture(t, red, 30, 11)
			st := det.SnapshotState()
			restored, err := RestoreDetector(opts, nil, st)
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			sameResult(t, restored.Flush(), det.Flush())
			a, b := restored.Stats(), det.Stats()
			if (a.Staleness == nil) != (b.Staleness == nil) {
				t.Fatalf("staleness presence diverges: %+v vs %+v", a.Staleness, b.Staleness)
			}
			if a.Staleness != nil && *a.Staleness != *b.Staleness {
				t.Fatalf("staleness diverges: %+v vs %+v", *a.Staleness, *b.Staleness)
			}
			a.Staleness, b.Staleness = nil, nil
			if a != b {
				t.Fatalf("stats diverge: %+v vs %+v", a, b)
			}
			if restored.Len() != det.Len() {
				t.Fatalf("Len %d vs %d", restored.Len(), det.Len())
			}
			// Future behavior: identical fold on both engines.
			half := len(u.Tuples) / 2
			for _, x := range u.Tuples[half+4 : half+10] {
				if err := det.Add(x); err != nil {
					t.Fatal(err)
				}
				if err := restored.Add(x); err != nil {
					t.Fatal(err)
				}
			}
			if err := det.Reseal(); err != nil {
				t.Fatal(err)
			}
			if err := restored.Reseal(); err != nil {
				t.Fatal(err)
			}
			rm := u.Tuples[half].ID
			if err := det.Remove(rm); err != nil {
				t.Fatal(err)
			}
			if err := restored.Remove(rm); err != nil {
				t.Fatal(err)
			}
			sameResult(t, restored.Flush(), det.Flush())
		})
	}
}

// TestSnapshotIsStable: a taken snapshot is unaffected by later
// detector operations (the slices are fresh copies).
func TestSnapshotIsStable(t *testing.T) {
	det, u, _ := snapshotFixture(t, nil, 20, 13)
	st := det.SnapshotState()
	nres, npairs := len(st.Residents), len(st.Pairs)
	if err := det.AddBatch(u.Tuples[len(u.Tuples)-4:]); err != nil {
		t.Fatal(err)
	}
	if err := det.Remove(st.Residents[0].ID); err != nil {
		t.Fatal(err)
	}
	if len(st.Residents) != nres || len(st.Pairs) != npairs {
		t.Fatalf("snapshot mutated by later operations: %d/%d residents, %d/%d pairs",
			len(st.Residents), nres, len(st.Pairs), npairs)
	}
}

// TestRestoreDetectorRejectsCorrupt: a hostile or damaged snapshot
// fails loudly with a named problem, never a panic.
func TestRestoreDetectorRejectsCorrupt(t *testing.T) {
	schema := shuffledUnion(t, 4, 1).Schema
	exact := incrementalReductions(t, schema)["blocking-certain"]
	def, err := keys.ParseDef("name:3+job:2", schema)
	if err != nil {
		t.Fatal(err)
	}
	stateful := ssr.BlockingCluster{Key: def, K: 4, Seed: 1}
	base := func() *DetectorState {
		det, _, _ := snapshotFixture(t, exact, 20, 17)
		return det.SnapshotState()
	}
	cases := []struct {
		name   string
		mutate func(st *DetectorState)
		errSub string
	}{
		{"nil resident", func(st *DetectorState) { st.Residents[0] = nil }, "nil resident"},
		{"duplicate resident", func(st *DetectorState) { st.Residents[1] = st.Residents[0] }, "twice"},
		{"non-canonical pair", func(st *DetectorState) {
			p := &st.Pairs[0].Pair
			p.A, p.B = p.B, p.A
		}, "canonical"},
		{"pair references ghost", func(st *DetectorState) { st.Pairs[0].Pair.B = "zzzz-ghost" }, "non-resident"},
		{"duplicate pair", func(st *DetectorState) { st.Pairs[1] = st.Pairs[0] }, "twice"},
		{"unknown class", func(st *DetectorState) { st.Pairs[0].Class = decision.Class(99) }, "class"},
		{"U pair", func(st *DetectorState) { st.Pairs[0].Class = decision.U }, "only M and P"},
		{"NaN similarity", func(st *DetectorState) { st.Pairs[0].Sim = math.NaN() }, "NaN"},
		{"negative counters", func(st *DetectorState) { st.Compared = -1 }, "negative"},
		{"epoch state on exact tier", func(st *DetectorState) { st.Epoch = &ssr.EpochState{} }, "epoch"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st := base()
			if len(st.Pairs) < 2 || len(st.Residents) < 2 {
				t.Fatalf("fixture too small: %d pairs, %d residents", len(st.Pairs), len(st.Residents))
			}
			c.mutate(st)
			if _, err := RestoreDetector(incrementalOpts(exact), nil, st); err == nil {
				t.Fatal("corrupt snapshot accepted")
			} else if !strings.Contains(err.Error(), c.errSub) {
				t.Fatalf("error %q does not mention %q", err, c.errSub)
			}
		})
	}

	// The converse tier mismatch: a bounded-staleness reduction must
	// refuse a snapshot without epoch state.
	det, _, _ := snapshotFixture(t, stateful, 20, 17)
	st := det.SnapshotState()
	st.Epoch = nil
	if _, err := RestoreDetector(incrementalOpts(stateful), nil, st); err == nil ||
		!strings.Contains(err.Error(), "epoch") {
		t.Fatalf("missing epoch state: %v", err)
	}
}

// TestBatchErrorAndDeltaKindStrings covers the small diagnostic
// surfaces used by the durable WAL layer.
func TestBatchErrorAndDeltaKindStrings(t *testing.T) {
	cause := errors.New("boom")
	be := &BatchError{Index: 3, Err: cause}
	if !strings.Contains(be.Error(), "3") || !strings.Contains(be.Error(), "boom") {
		t.Fatalf("BatchError.Error() = %q", be.Error())
	}
	if !errors.Is(be, cause) {
		t.Fatal("BatchError does not unwrap its cause")
	}
	if DeltaAdd.String() != "add" || DeltaDrop.String() != "drop" {
		t.Fatalf("DeltaKind strings: %q, %q", DeltaAdd, DeltaDrop)
	}
}

// TestResidentLookup covers the Resident accessor the integrator and
// the durable layer rely on.
func TestResidentLookup(t *testing.T) {
	det, u, _ := snapshotFixture(t, nil, 10, 19)
	var someID string
	for _, x := range u.Tuples[:3] {
		if _, ok := det.Resident(x.ID); ok {
			someID = x.ID
			break
		}
	}
	if someID == "" {
		t.Fatal("no resident found among the first arrivals")
	}
	x, ok := det.Resident(someID)
	if !ok || x.ID != someID {
		t.Fatalf("Resident(%q) = %v, %t", someID, x, ok)
	}
	if _, ok := det.Resident("zzzz-ghost"); ok {
		t.Fatal("ghost resident found")
	}
	_ = verify.Pair{}
}
