package ssr

import (
	"math/rand"
	"testing"

	"probdedup/internal/keys"
	"probdedup/internal/pdb"
	"probdedup/internal/verify"
)

func clusterTestMethod(t *testing.T, schema []string) BlockingCluster {
	t.Helper()
	def, err := keys.ParseDef("name:3+job:2", schema)
	if err != nil {
		t.Fatal(err)
	}
	return BlockingCluster{Key: def, K: 4, Seed: 1}
}

// epochIndexOf builds the incremental index and asserts it is on the
// bounded-staleness tier.
func epochIndexOf(t *testing.T, m BlockingCluster) EpochIndex {
	t.Helper()
	idx, err := IncrementalOf(m)
	if err != nil {
		t.Fatal(err)
	}
	ei, ok := idx.(EpochIndex)
	if !ok {
		t.Fatalf("blocking-cluster index is not an EpochIndex: %T", idx)
	}
	return ei
}

// TestBlockingClusterResealMatchesBatch pins the epoch-boundary
// contract: right after a Reseal, the maintained set equals the batch
// candidate set of the residents in insertion order — also after
// interleaved removals.
func TestBlockingClusterResealMatchesBatch(t *testing.T) {
	u := shuffledUnion(40, 23)
	m := clusterTestMethod(t, u.Schema)
	idx := epochIndexOf(t, m)
	maintained := verify.PairSet{}
	on := func(d PairDelta) bool {
		applyDelta(t, maintained, d)
		return true
	}
	for _, x := range u.Tuples {
		idx.Insert(x, on)
	}
	idx.Reseal(on)
	if d := diffSets(maintained, Candidates(m, u)); len(d) != 0 {
		t.Fatalf("resealed set diverges from batch: %v", d[:min(len(d), 8)])
	}

	rest := pdb.NewXRelation(u.Name, u.Schema...)
	for i, x := range u.Tuples {
		if i%3 == 0 {
			idx.Remove(x.ID, on)
			continue
		}
		rest.Append(x)
	}
	idx.Reseal(on)
	if idx.Len() != len(rest.Tuples) {
		t.Fatalf("Len = %d, want %d", idx.Len(), len(rest.Tuples))
	}
	if d := diffSets(maintained, Candidates(m, rest)); len(d) != 0 {
		t.Fatalf("resealed set diverges from batch after removals: %v", d[:min(len(d), 8)])
	}
}

// TestBlockingClusterStalenessBound is the staleness-bound property
// test: under a random insert/remove schedule, the reported drift
// never exceeds the bound after any operation, the reseal itself is
// in-band (no call beyond Insert/Remove needed), and every delta stream
// stays set-consistent across epoch flips.
func TestBlockingClusterStalenessBound(t *testing.T) {
	u := shuffledUnion(60, 29)
	m := clusterTestMethod(t, u.Schema)
	idx := epochIndexOf(t, m)
	maintained := verify.PairSet{}
	on := func(d PairDelta) bool {
		applyDelta(t, maintained, d)
		return true
	}
	rng := rand.New(rand.NewSource(31))
	var resident []*pdb.XTuple
	next := 0
	check := func(op string) {
		st := idx.Staleness()
		if st.Bound != maxDrift {
			t.Fatalf("Staleness().Bound = %v, want %v", st.Bound, maxDrift)
		}
		if st.Residents != len(resident) || st.Residents != idx.Len() {
			t.Fatalf("Staleness().Residents = %d, want %d", st.Residents, len(resident))
		}
		if float64(st.Drifted) > st.Bound*float64(st.Residents) {
			t.Fatalf("after %s: drift %d exceeds bound %v of %d residents",
				op, st.Drifted, st.Bound, st.Residents)
		}
		if st.Epoch != idx.Epoch() {
			t.Fatalf("Staleness().Epoch = %d, Epoch() = %d", st.Epoch, idx.Epoch())
		}
	}
	for op := 0; op < 3*len(u.Tuples); op++ {
		if next < len(u.Tuples) && (len(resident) == 0 || rng.Intn(3) != 0) {
			x := u.Tuples[next]
			next++
			resident = append(resident, x)
			idx.Insert(x, on)
			check("insert")
			continue
		}
		if len(resident) == 0 {
			continue
		}
		i := rng.Intn(len(resident))
		idx.Remove(resident[i].ID, on)
		resident = append(resident[:i], resident[i+1:]...)
		check("remove")
	}
	if idx.Epoch() < 2 {
		t.Fatalf("expected several epochs under the schedule, got %d", idx.Epoch())
	}
}

// TestBlockingClusterRecallCurve measures the recall-vs-batch curve of
// the bounded-staleness tier: at every prefix of an online insertion
// stream, the maintained candidate set is scored against the batch
// candidate set of the same residents with verify.Reduction (the batch
// set is the truth, so PairsCompleteness is the recall). The curve must
// return to exactly 1 at every epoch boundary and average at least 0.5.
func TestBlockingClusterRecallCurve(t *testing.T) {
	u := shuffledUnion(50, 43)
	m := clusterTestMethod(t, u.Schema)
	idx := epochIndexOf(t, m)
	maintained := verify.PairSet{}
	on := func(d PairDelta) bool {
		applyDelta(t, maintained, d)
		return true
	}
	resident := pdb.NewXRelation(u.Name, u.Schema...)
	tab := verify.NewTable("n", "epoch", "drifted", "recall")
	var sum float64
	points := 0
	for _, x := range u.Tuples {
		epochBefore := idx.Epoch()
		idx.Insert(x, on)
		resident.Append(x)
		batch := Candidates(m, resident)
		red := verify.Reduction{
			TotalPairs: len(resident.Tuples) * (len(resident.Tuples) - 1) / 2,
			TrueTotal:  len(batch),
		}
		for p := range maintained {
			red.CandidatePairs++
			if batch[p] {
				red.TrueInCandidates++
			}
		}
		recall := red.PairsCompleteness()
		st := idx.Staleness()
		tab.AddRow(red.TotalPairs, st.Epoch, st.Drifted, recall)
		if idx.Epoch() > epochBefore && recall != 1 {
			t.Fatalf("n=%d: recall %v right after an epoch reseal, want exactly 1",
				len(resident.Tuples), recall)
		}
		sum += recall
		points++
	}
	mean := sum / float64(points)
	t.Logf("mean recall %.4f over %d points\n%s", mean, points, tab)
	if mean < 0.5 {
		t.Fatalf("mean recall %.4f collapsed below 0.5", mean)
	}
}

// TestBlockingClusterManualResealIdempotent checks that Reseal is a
// fixed point: resealing twice in a row yields no deltas the second
// time and leaves the set untouched.
func TestBlockingClusterManualResealIdempotent(t *testing.T) {
	u := shuffledUnion(20, 37)
	m := clusterTestMethod(t, u.Schema)
	idx := epochIndexOf(t, m)
	maintained := verify.PairSet{}
	on := func(d PairDelta) bool {
		applyDelta(t, maintained, d)
		return true
	}
	for _, x := range u.Tuples {
		idx.Insert(x, on)
	}
	idx.Reseal(on)
	before := idx.Epoch()
	n := 0
	idx.Reseal(func(d PairDelta) bool {
		n++
		return true
	})
	if n != 0 {
		t.Fatalf("second Reseal yielded %d deltas, want 0", n)
	}
	if idx.Epoch() != before+1 {
		t.Fatalf("Epoch after manual reseal = %d, want %d", idx.Epoch(), before+1)
	}
	if idx.Staleness().Drifted != 0 {
		t.Fatalf("Drifted after reseal = %d, want 0", idx.Staleness().Drifted)
	}
}
