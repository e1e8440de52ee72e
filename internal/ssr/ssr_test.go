package ssr

import (
	"testing"

	"probdedup/internal/fusion"
	"probdedup/internal/keys"
	"probdedup/internal/paperdata"
	"probdedup/internal/pdb"
	"probdedup/internal/verify"
	"probdedup/internal/worlds"
)

// paperKey is the paper's sorting key: name:3+job:2.
func paperKey() keys.Def {
	return keys.NewDef(keys.Part{Attr: 0, Prefix: 3}, keys.Part{Attr: 1, Prefix: 2})
}

// fig14Key is the paper's blocking key: name:1+job:1.
func fig14Key() keys.Def {
	return keys.NewDef(keys.Part{Attr: 0, Prefix: 1}, keys.Part{Attr: 1, Prefix: 1})
}

func TestAllPairs(t *testing.T) {
	r := paperdata.R34()
	all := AllPairs(r)
	// The paper counts "ten possible x-tuple matchings of ℛ34 (intra- as
	// well as intersource)": C(5,2) = 10.
	if len(all) != 10 {
		t.Fatalf("|all pairs| = %d, want 10", len(all))
	}
}

func TestCrossProduct(t *testing.T) {
	r := paperdata.R34()
	c := Candidates(CrossProduct{}, r)
	if len(c) != 10 {
		t.Fatalf("cross product %d pairs", len(c))
	}
}

func TestWindowPairs(t *testing.T) {
	out := verify.PairSet{}
	windowStream([]string{"a", "b", "c", "d"}, 3, func(p verify.Pair) bool {
		out[p] = true
		return true
	})
	want := verify.NewPairSet(
		verify.Pair{A: "a", B: "b"}, verify.Pair{A: "b", B: "c"},
		verify.Pair{A: "c", B: "d"}, verify.Pair{A: "a", B: "c"},
		verify.Pair{A: "b", B: "d"},
	)
	if len(out) != len(want) {
		t.Fatalf("got %v", out.Sorted())
	}
	for p := range want {
		if !out[p] {
			t.Fatalf("missing %v", p)
		}
	}
	// Window below 2 behaves as 2; same-ID entries never pair, so only the
	// adjacent (a,b) pair remains.
	out2 := verify.PairSet{}
	windowStream([]string{"a", "a", "b"}, 1, func(p verify.Pair) bool {
		out2[p] = true
		return true
	})
	if len(out2) != 1 || !out2.Has("a", "b") {
		t.Fatalf("got %v", out2.Sorted())
	}
}

// E05: multi-pass sorting orders of the two worlds of Fig. 8 match Fig. 9.
func TestE05MultiPassWorldOrders(t *testing.T) {
	xr := paperdata.R34()
	def := paperKey()

	// Find the two specific worlds of Fig. 8 among the conditioned worlds.
	wantI1 := map[string][2]string{
		"t31": {"John", "pilot"}, "t32": {"Tim", "mechanic"},
		"t41": {"Johan", "pianist"}, "t42": {"Tom", "mechanic"}, "t43": {"Sean", "pilot"},
	}
	wantI2 := map[string][2]string{
		"t31": {"Johan", "musician"}, "t32": {"Jim", "mechanic"},
		"t41": {"John", "pilot"}, "t42": {"Tom", "mechanic"}, "t43": {"John", ""},
	}
	var orderI1, orderI2 []string
	worlds.ForEach(xr, true, func(w worlds.World) bool {
		r := worlds.Materialize(xr, w)
		if matchesWorld(r, wantI1) {
			orderI1 = sortedIDsByKey(r, def)
		}
		if matchesWorld(r, wantI2) {
			orderI2 = sortedIDsByKey(r, def)
		}
		return true
	})
	// Fig. 9 left: Johpi t31, Johpi t41, Seapi t43, Timme t32, Tomme t42.
	assertOrder(t, "I1", orderI1, []string{"t31", "t41", "t43", "t32", "t42"})
	// Fig. 9 right: Jimme t32, Joh t43, Johmu t31, Johpi t41, Tomme t42.
	assertOrder(t, "I2", orderI2, []string{"t32", "t43", "t31", "t41", "t42"})
}

func matchesWorld(r *pdb.Relation, want map[string][2]string) bool {
	if len(r.Tuples) != len(want) {
		return false
	}
	for _, tu := range r.Tuples {
		w, ok := want[tu.ID]
		if !ok {
			return false
		}
		name := tu.Attrs[0].String()
		job := tu.Attrs[1].String()
		if job == "⊥" {
			job = ""
		}
		if name != w[0] || job != w[1] {
			return false
		}
	}
	return true
}

func assertOrder(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: order %v, want %v", label, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: order %v, want %v", label, got, want)
		}
	}
}

// E06: certain keys via the most probable alternatives give Fig. 10's
// sorted order, and the matchings are a subset of the multi-pass ones.
func TestE06CertainKeys(t *testing.T) {
	xr := paperdata.R34()
	m := SNMCertain{Key: paperKey(), Window: 2}
	// Fig. 10 order: Jimba t32, Johpi t31, Johpi t41, Seapi t43, Tomme t42.
	r := fusion.ResolveRelation(fusion.MostProbable{}, xr)
	assertOrder(t, "fig10", sortedIDsByKey(r, paperKey()), []string{"t32", "t31", "t41", "t43", "t42"})

	certain := Candidates(m, xr)
	multi := Candidates(SNMMultiPass{Key: paperKey(), Window: 2, Select: AllWorlds}, xr)
	for p := range certain {
		if !multi[p] {
			t.Fatalf("certain-key matching %v not produced by multi-pass", p)
		}
	}
	if len(certain) >= len(multi) {
		t.Fatalf("certain (%d) should be a strict subset of multi-pass (%d) here", len(certain), len(multi))
	}
}

// E07: sorting alternatives (Figs. 11–12) with window 2 yields exactly the
// paper's five matchings, each once.
func TestE07SortingAlternatives(t *testing.T) {
	xr := paperdata.R34()
	m := SNMAlternatives{Key: paperKey(), Window: 2}

	// The sorted entry list after omission (Fig. 11 right, kept rows).
	ents := m.SortedEntries(xr)
	wantEnts := []KeyEntry{
		{"Jimba", "t32"}, {"Joh", "t43"}, {"Johmu", "t31"},
		{"Johpi", "t41"}, {"Seapi", "t43"}, {"Timme", "t32"}, {"Tomme", "t42"},
	}
	if len(ents) != len(wantEnts) {
		t.Fatalf("entries %v, want %v", ents, wantEnts)
	}
	for i, w := range wantEnts {
		if ents[i] != w {
			t.Fatalf("entry %d = %v, want %v", i, ents[i], w)
		}
	}

	got := Candidates(m, xr)
	want := verify.NewPairSet(
		verify.Pair{A: "t32", B: "t43"},
		verify.Pair{A: "t43", B: "t31"},
		verify.Pair{A: "t31", B: "t41"},
		verify.Pair{A: "t41", B: "t43"},
		verify.Pair{A: "t32", B: "t42"},
	)
	if len(got) != 5 {
		t.Fatalf("matchings %v, want the paper's 5", got.Sorted())
	}
	for p := range want {
		if !got[p] {
			t.Fatalf("missing matching %v; got %v", p, got.Sorted())
		}
	}
}

// E08: ranked uncertain keys order ℛ34 as in Fig. 13.
func TestE08RankedOrder(t *testing.T) {
	m := SNMRanked{Key: paperKey(), Window: 2}
	assertOrder(t, "fig13", m.RankedIDs(paperdata.R34()),
		[]string{"t32", "t31", "t41", "t43", "t42"})
	cands := Candidates(m, paperdata.R34())
	// Window 2 over 5 tuples gives 4 pairs.
	if len(cands) != 4 {
		t.Fatalf("candidates %v", cands.Sorted())
	}
}

// E09: blocking with alternative key values (Fig. 14) produces six blocks
// and exactly three matchings forming the paper's chain structure.
func TestE09BlockingAlternatives(t *testing.T) {
	xr := paperdata.R34()
	m := BlockingAlternatives{Key: fig14Key()}
	blocks := m.Blocks(xr)
	wantBlocks := map[string][]string{
		"Jp": {"t31", "t41"},
		"Jm": {"t31", "t32"},
		"Tm": {"t32", "t42"},
		"Jb": {"t32"},
		"J":  {"t43"},
		"Sp": {"t43"},
	}
	if len(blocks) != len(wantBlocks) {
		t.Fatalf("blocks %v, want %v", blocks, wantBlocks)
	}
	for k, members := range wantBlocks {
		got := blocks[k]
		if len(got) != len(members) {
			t.Fatalf("block %q = %v, want %v", k, got, members)
		}
		seen := map[string]bool{}
		for _, id := range got {
			seen[id] = true
		}
		for _, id := range members {
			if !seen[id] {
				t.Fatalf("block %q = %v, want %v", k, got, members)
			}
		}
	}
	cands := Candidates(m, xr)
	want := verify.NewPairSet(
		verify.Pair{A: "t31", B: "t41"},
		verify.Pair{A: "t31", B: "t32"},
		verify.Pair{A: "t32", B: "t42"},
	)
	if len(cands) != 3 {
		t.Fatalf("matchings %v, want 3", cands.Sorted())
	}
	for p := range want {
		if !cands[p] {
			t.Fatalf("missing %v; got %v", p, cands.Sorted())
		}
	}
}

func TestBlockingCertain(t *testing.T) {
	xr := paperdata.R34()
	cands := Candidates(BlockingCertain{Key: paperKey()}, xr)
	// Resolved keys: Jimba, Johpi, Johpi, Seapi, Tomme → single pair
	// (t31,t41).
	if len(cands) != 1 || !cands.Has("t31", "t41") {
		t.Fatalf("blocking-certain = %v", cands.Sorted())
	}
}

func TestBlockingCluster(t *testing.T) {
	xr := paperdata.R34()
	m := BlockingCluster{Key: paperKey(), K: 2, Seed: 1}
	cands := Candidates(m, xr)
	if len(cands) == 0 {
		t.Fatal("cluster blocking produced no candidates")
	}
	// Deterministic across runs with the same seed.
	again := Candidates(m, xr)
	if len(again) != len(cands) {
		t.Fatal("cluster blocking not deterministic")
	}
	for p := range cands {
		if !again[p] {
			t.Fatal("cluster blocking not deterministic")
		}
	}
	// Default K derivation works.
	if got := Candidates(BlockingCluster{Key: paperKey(), Seed: 1}, xr); len(got) == 0 {
		t.Fatal("default-K cluster blocking empty")
	}
}

func TestSNMMultiPassSelectors(t *testing.T) {
	xr := paperdata.R34()
	all := Candidates(SNMMultiPass{Key: paperKey(), Window: 2, Select: AllWorlds}, xr)
	top := Candidates(SNMMultiPass{Key: paperKey(), Window: 2, Select: TopWorlds, K: 3}, xr)
	dis := Candidates(SNMMultiPass{Key: paperKey(), Window: 2, Select: DissimilarWorlds, K: 3}, xr)
	if len(top) == 0 || len(dis) == 0 || len(all) == 0 {
		t.Fatal("empty candidate sets")
	}
	// Subset relations: any selected-world pass is a subset of all-worlds.
	for p := range top {
		if !all[p] {
			t.Fatalf("top-worlds pair %v missing from all-worlds", p)
		}
	}
	for p := range dis {
		if !all[p] {
			t.Fatalf("dissimilar-worlds pair %v missing from all-worlds", p)
		}
	}
	// MaxWorlds guard falls back gracefully.
	guarded := Candidates(SNMMultiPass{Key: paperKey(), Window: 2, Select: AllWorlds, MaxWorlds: 2}, xr)
	if len(guarded) == 0 {
		t.Fatal("guarded multi-pass empty")
	}
}

func TestMeasure(t *testing.T) {
	xr := paperdata.R34()
	truth := verify.NewPairSet(verify.Pair{A: "t31", B: "t41"}, verify.Pair{A: "t32", B: "t42"})
	red := Measure(BlockingAlternatives{Key: fig14Key()}, xr, truth)
	if red.TotalPairs != 10 || red.CandidatePairs != 3 {
		t.Fatalf("reduction %+v", red)
	}
	if red.TrueInCandidates != 2 || red.TrueTotal != 2 {
		t.Fatalf("reduction %+v", red)
	}
	if red.PairsCompleteness() != 1.0 {
		t.Fatalf("PC = %v", red.PairsCompleteness())
	}
}

func TestMethodNamesUnique(t *testing.T) {
	ms := []Method{
		CrossProduct{},
		SNMMultiPass{Select: AllWorlds}, SNMMultiPass{Select: TopWorlds},
		SNMMultiPass{Select: DissimilarWorlds},
		SNMCertain{}, SNMAlternatives{}, SNMRanked{},
		BlockingCertain{}, BlockingAlternatives{}, BlockingCluster{},
	}
	seen := map[string]bool{}
	for _, m := range ms {
		if m.Name() == "" || seen[m.Name()] {
			t.Errorf("duplicate or empty method name %q", m.Name())
		}
		seen[m.Name()] = true
	}
}
