package resolve

import (
	"math/rand"
	"strings"
	"testing"

	"probdedup/internal/core"
	"probdedup/internal/pdb"
	"probdedup/internal/ssr"
)

// restoreFixture drives a live integrator through a mixed schedule and
// returns it alongside the tuples applied, so tests can replay the
// same future on a restored twin.
func restoreFixture(t *testing.T, red ssr.Method, n int, seed int64) (*Integrator, []*pdb.XTuple) {
	t.Helper()
	opts := integratorOpts(t, red, 1, nil)
	ig, err := NewIntegrator([]string{"name", "job"}, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	var xs []*pdb.XTuple
	for i := 0; i < n; i++ {
		xs = append(xs, randomTuple(rng, tupleID(i)))
	}
	for i, x := range xs[:n/2] {
		if err := ig.Add(x); err != nil {
			t.Fatal(err)
		}
		if i%6 == 5 {
			if err := ig.Remove(x.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := ig.AddBatch(xs[n/2 : n/2+3]); err != nil {
		t.Fatal(err)
	}
	return ig, xs
}

func tupleID(i int) string {
	return string(rune('a'+i/26)) + string(rune('a'+i%26))
}

// TestRestoreIntegratorRoundTrip: restoring the integrator's snapshot
// yields a bit-identical Resolution, identical stats and pairwise
// result, and the restored engine then tracks the live one exactly —
// including across removals and batches.
func TestRestoreIntegratorRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		red  func(t *testing.T) ssr.Method
	}{
		{"blocking-certain", func(t *testing.T) ssr.Method {
			return ssr.BlockingCertain{Key: keyDef(t, "name:3")}
		}},
		{"snm-certain", func(t *testing.T) ssr.Method {
			return ssr.SNMCertain{Key: keyDef(t, "name:4+job:2"), Window: 3}
		}},
		{"blocking-cluster", func(t *testing.T) ssr.Method {
			return ssr.BlockingCluster{Key: keyDef(t, "name:3+job:2"), K: 3, Seed: 1}
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			ig, xs := restoreFixture(t, c.red(t), 30, 7)
			opts := integratorOpts(t, c.red(t), 1, nil)
			st := ig.SnapshotState()
			restored, err := RestoreIntegrator(opts, nil, st)
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			liveR, err := ig.Flush()
			if err != nil {
				t.Fatal(err)
			}
			restoredR, err := restored.Flush()
			if err != nil {
				t.Fatal(err)
			}
			requireEqualResolution(t, "post-restore", restoredR, liveR)
			if restored.Len() != ig.Len() {
				t.Fatalf("Len %d vs %d", restored.Len(), ig.Len())
			}
			sameFlushResult(t, restored.FlushResult(), ig.FlushResult())
			if a, b := restored.Stats().Entities, ig.Stats().Entities; a != b {
				t.Fatalf("entity count %d vs %d", a, b)
			}

			// Future behavior on both engines.
			for _, x := range xs[18:24] {
				if err := ig.Add(x); err != nil {
					t.Fatal(err)
				}
				if err := restored.Add(x); err != nil {
					t.Fatal(err)
				}
			}
			rm := xs[18].ID
			if err := ig.Remove(rm); err != nil {
				t.Fatal(err)
			}
			if err := restored.Remove(rm); err != nil {
				t.Fatal(err)
			}
			liveR, err = ig.Flush()
			if err != nil {
				t.Fatal(err)
			}
			restoredR, err = restored.Flush()
			if err != nil {
				t.Fatal(err)
			}
			requireEqualResolution(t, "post-continuation", restoredR, liveR)
		})
	}
}

// sameFlushResult compares the detectors' pairwise results by the
// classified pair map (the stable part of core.Result).
func sameFlushResult(t *testing.T, got, want *core.Result) {
	t.Helper()
	if len(got.ByPair) != len(want.ByPair) {
		t.Fatalf("pair count %d vs %d", len(got.ByPair), len(want.ByPair))
	}
	for p, wm := range want.ByPair {
		gm, ok := got.ByPair[p]
		if !ok || gm.Sim != wm.Sim || gm.Class != wm.Class {
			t.Fatalf("pair %v: %+v vs %+v", p, gm, wm)
		}
	}
}

// TestRestoreIntegratorRejectsCorrupt: RestoreIntegrator surfaces the
// detector layer's snapshot validation rather than building a
// half-consistent entity graph.
func TestRestoreIntegratorRejectsCorrupt(t *testing.T) {
	red := ssr.BlockingCertain{Key: keyDef(t, "name:3")}
	ig, _ := restoreFixture(t, red, 20, 9)
	st := ig.SnapshotState()
	if len(st.Residents) < 2 {
		t.Fatalf("fixture too small: %d residents", len(st.Residents))
	}
	st.Residents[1] = st.Residents[0]
	opts := integratorOpts(t, red, 1, nil)
	if _, err := RestoreIntegrator(opts, nil, st); err == nil ||
		!strings.Contains(err.Error(), "twice") {
		t.Fatalf("corrupt snapshot: %v", err)
	}
}

// TestRestoreIntegratorEmitsNothing: recovery itself is silent; the
// first post-restore operation emits deltas relative to the restored
// state only.
func TestRestoreIntegratorEmitsNothing(t *testing.T) {
	red := ssr.BlockingCertain{Key: keyDef(t, "name:3")}
	ig, xs := restoreFixture(t, red, 20, 11)
	st := ig.SnapshotState()
	var deltas []EntityDelta
	restored, err := RestoreIntegrator(integratorOpts(t, red, 1, nil), func(d EntityDelta) bool {
		deltas = append(deltas, d)
		return true
	}, st)
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 0 {
		t.Fatalf("restore emitted %d entity deltas", len(deltas))
	}
	if err := restored.Add(xs[len(xs)-1]); err != nil {
		t.Fatal(err)
	}
	if len(deltas) == 0 {
		t.Fatal("post-restore operation emitted nothing")
	}
}
