package ssr

import (
	"reflect"
	"strings"
	"testing"

	"probdedup/internal/pdb"
	"probdedup/internal/verify"
)

// epochStateFixture drives a cluster index through inserts, removals
// and reseals, and returns it with its resident tuple map.
func epochStateFixture(t *testing.T, nInsert int) (BlockingCluster, EpochIndex, map[string]*pdb.XTuple, *pdb.XRelation) {
	t.Helper()
	u := shuffledUnion(40, 31)
	m := clusterTestMethod(t, u.Schema)
	idx := epochIndexOf(t, m)
	resident := map[string]*pdb.XTuple{}
	on := func(PairDelta) bool { return true }
	for i, x := range u.Tuples[:nInsert] {
		idx.Insert(x, on)
		resident[x.ID] = x
		if i%9 == 8 {
			idx.Reseal(on)
		}
		if i%7 == 6 {
			idx.Remove(x.ID, on)
			delete(resident, x.ID)
		}
	}
	return m, idx, resident, u
}

// TestEpochStateExportRestoreRoundTrip pins the durable-snapshot
// contract of the bounded-staleness tier: restoring an exported
// EpochState into a fresh index reproduces the exported state exactly,
// and the restored index then behaves bit-identically — same deltas on
// future inserts, removals and reseals.
func TestEpochStateExportRestoreRoundTrip(t *testing.T) {
	m, idx, resident, u := epochStateFixture(t, 30)
	st := idx.(StatefulEpochIndex).ExportEpochState()

	idx2 := epochIndexOf(t, m)
	err := idx2.(StatefulEpochIndex).RestoreEpochState(st, func(id string) (*pdb.XTuple, bool) {
		x, ok := resident[id]
		return x, ok
	})
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if idx2.Len() != idx.Len() {
		t.Fatalf("restored Len=%d, want %d", idx2.Len(), idx.Len())
	}
	if st2 := idx2.(StatefulEpochIndex).ExportEpochState(); !reflect.DeepEqual(st, st2) {
		t.Fatalf("re-export diverges:\n%+v\nvs\n%+v", st, st2)
	}

	// Future behavior: both indexes must emit identical delta sequences
	// for the same operations, including across an epoch flip.
	var got, want []PairDelta
	collectA := func(d PairDelta) bool { want = append(want, d); return true }
	collectB := func(d PairDelta) bool { got = append(got, d); return true }
	for _, x := range u.Tuples[30:36] {
		idx.Insert(x, collectA)
		idx2.Insert(x, collectB)
	}
	idx.Reseal(collectA)
	idx2.Reseal(collectB)
	for _, x := range u.Tuples[30:33] {
		idx.Remove(x.ID, collectA)
		idx2.Remove(x.ID, collectB)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored index delta stream diverges:\n%v\nvs\n%v", got, want)
	}
}

// TestEpochStateRestoreEmpty: restoring the export of an untouched
// index keeps the fresh zero state.
func TestEpochStateRestoreEmpty(t *testing.T) {
	u := shuffledUnion(4, 3)
	m := clusterTestMethod(t, u.Schema)
	st := epochIndexOf(t, m).(StatefulEpochIndex).ExportEpochState()
	idx := epochIndexOf(t, m)
	if err := idx.(StatefulEpochIndex).RestoreEpochState(st, func(string) (*pdb.XTuple, bool) { return nil, false }); err != nil {
		t.Fatalf("empty restore: %v", err)
	}
	if idx.Len() != 0 {
		t.Fatalf("Len=%d after empty restore", idx.Len())
	}
	// The next insertion must seal epoch 1 exactly like a never-
	// persisted index.
	maintained := verify.PairSet{}
	on := func(d PairDelta) bool { applyDelta(t, maintained, d); return true }
	for _, x := range u.Tuples {
		idx.Insert(x, on)
	}
	idx.Reseal(on)
	if d := diffSets(maintained, Candidates(m, u)); len(d) != 0 {
		t.Fatalf("post-restore behavior diverges from batch: %v", d)
	}
}

// TestEpochStateRestoreRejectsCorrupt: every validation failure is
// loud, names the problem, and leaves the target index untouched.
func TestEpochStateRestoreRejectsCorrupt(t *testing.T) {
	m, idx, resident, _ := epochStateFixture(t, 20)
	good := idx.(StatefulEpochIndex).ExportEpochState()
	lookup := func(id string) (*pdb.XTuple, bool) {
		x, ok := resident[id]
		return x, ok
	}
	cases := []struct {
		name   string
		mutate func(st *EpochState)
		errSub string
	}{
		{"label count mismatch", func(st *EpochState) { st.Labels = st.Labels[:1] }, "labels"},
		{"zero k", func(st *EpochState) { st.K = 0 }, "inconsistent clustering"},
		{"centroid count mismatch", func(st *EpochState) { st.Centroids = st.Centroids[:1] }, "inconsistent clustering"},
		{"label out of range", func(st *EpochState) { st.Labels[0] = len(st.Centroids) }, "outside"},
		{"negative label", func(st *EpochState) { st.Labels[0] = -1 }, "outside"},
		{"unsorted embedding keys", func(st *EpochState) {
			st.EmbeddingKeys[0], st.EmbeddingKeys[1] = st.EmbeddingKeys[1], st.EmbeddingKeys[0]
		}, "not sorted"},
		{"duplicate embedding keys", func(st *EpochState) { st.EmbeddingKeys[1] = st.EmbeddingKeys[0] }, "duplicate"},
		{"duplicate arrival", func(st *EpochState) { st.Arrivals[1] = st.Arrivals[0] }, "twice"},
		{"non-resident arrival", func(st *EpochState) { st.Arrivals[0] = "ghost" }, "non-resident"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st := &EpochState{
				Epoch:         good.Epoch,
				K:             good.K,
				Drifted:       good.Drifted,
				Centroids:     append([]float64(nil), good.Centroids...),
				EmbeddingKeys: append([]string(nil), good.EmbeddingKeys...),
				Arrivals:      append([]string(nil), good.Arrivals...),
				Labels:        append([]int(nil), good.Labels...),
			}
			c.mutate(st)
			fresh := epochIndexOf(t, m)
			err := fresh.(StatefulEpochIndex).RestoreEpochState(st, lookup)
			if err == nil {
				t.Fatal("corrupt state accepted")
			}
			if !strings.Contains(err.Error(), c.errSub) {
				t.Fatalf("error %q does not mention %q", err, c.errSub)
			}
			if fresh.Len() != 0 {
				t.Fatalf("failed restore left %d residents behind", fresh.Len())
			}
		})
	}

	// Restoring onto a used index is refused.
	if err := idx.(StatefulEpochIndex).RestoreEpochState(good, lookup); err == nil ||
		!strings.Contains(err.Error(), "non-fresh") {
		t.Fatalf("restore on non-fresh index: %v", err)
	}
}
