package ssr

import (
	"testing"

	"probdedup/internal/paperdata"
	"probdedup/internal/pdb"
)

func TestPruningKeepsLengthCompatiblePairs(t *testing.T) {
	xr := pdb.NewXRelation("X", "name", "job").Append(
		pdb.NewXTuple("short", pdb.NewAlt(1, "Tim", "mechanic")),
		pdb.NewXTuple("short2", pdb.NewAlt(1, "Tom", "mechanic")),
		pdb.NewXTuple("long", pdb.NewAlt(1, "Maximiliane", "mechanic")),
	)
	c := Candidates(NewFilter(nil, Pruning{MaxDiff: map[int]int{0: 2}}), xr)
	if !c.Has("short", "short2") {
		t.Fatal("similar lengths must survive")
	}
	if c.Has("short", "long") || c.Has("short2", "long") {
		t.Fatalf("length difference 8 > 2 must prune: %v", c.Sorted())
	}
}

func TestPruningUncertaintyAware(t *testing.T) {
	// One alternative is long, but a second alternative has a compatible
	// length: the pair must survive (some world could match).
	xr := pdb.NewXRelation("X", "name").Append(
		pdb.NewXTuple("a", pdb.NewAlt(1, "Tim")),
		pdb.NewXTuple("b",
			pdb.NewAlt(0.5, "Maximiliane"),
			pdb.NewAlt(0.5, "Tom")),
	)
	c := Candidates(NewFilter(nil, Pruning{MaxDiff: map[int]int{0: 1}}), xr)
	if !c.Has("a", "b") {
		t.Fatal("alternative with compatible length must keep the pair")
	}
}

func TestPruningNullLength(t *testing.T) {
	// ⊥ counts as length 0, so a ⊥-possible attribute is compatible with
	// short values.
	xr := pdb.NewXRelation("X", "name").Append(
		pdb.NewXTuple("a", pdb.NewAltDists(1, pdb.MustDist(
			pdb.Alternative{Value: pdb.V("Maximiliane"), P: 0.5}))), // ⊥ 0.5
		pdb.NewXTuple("b", pdb.NewAltDists(1, pdb.CertainNull())),
	)
	c := Candidates(NewFilter(nil, Pruning{MaxDiff: map[int]int{0: 0}}), xr)
	if !c.Has("a", "b") {
		t.Fatal("⊥/⊥ lengths must be compatible")
	}
}

func TestPruningUnconstrained(t *testing.T) {
	xr := paperdata.R34()
	c := Candidates(NewFilter(nil, Pruning{}), xr)
	if len(c) != len(AllPairs(xr)) {
		t.Fatalf("no constraints must keep all pairs: %d", len(c))
	}
}

func TestFilterComposition(t *testing.T) {
	xr := paperdata.R34()
	inner := SNMAlternatives{Key: paperKey(), Window: 2}
	f := NewFilter(inner, Pruning{MaxDiff: map[int]int{0: 10}})
	for _, g := range []Filter{f, {Inner: inner}} {
		if g.Name() != "snm-alternatives+pruned" {
			t.Fatalf("name %q", g.Name())
		}
	}
	if name := NewFilter(nil, Pruning{}).Name(); name != "cross-product+pruned" {
		t.Fatalf("pruned cross product named %q", name)
	}
	// A permissive filter keeps everything the inner method emits.
	in := Candidates(inner, xr)
	out := Candidates(f, xr)
	if len(out) != len(in) {
		t.Fatalf("permissive filter changed candidates: %d vs %d", len(out), len(in))
	}
	// A strict filter shrinks the set but never adds pairs.
	strict := NewFilter(inner, Pruning{MaxDiff: map[int]int{0: 0}})
	sc := Candidates(strict, xr)
	for p := range sc {
		if !in[p] {
			t.Fatalf("filter invented pair %v", p)
		}
	}
	if len(sc) >= len(in) {
		t.Fatalf("strict filter did not prune (%d vs %d)", len(sc), len(in))
	}
}

func TestSNMRankedStrategies(t *testing.T) {
	xr := paperdata.R34()
	exp := SNMRanked{Key: paperKey(), Window: 2}
	med := SNMRanked{Key: paperKey(), Window: 2, Strategy: MedianKey}
	mod := SNMRanked{Key: paperKey(), Window: 2, Strategy: ModeKey}
	if exp.Name() != "snm-ranked" || med.Name() != "snm-ranked-median" || mod.Name() != "snm-ranked-mode" {
		t.Fatalf("names: %q %q %q", exp.Name(), med.Name(), mod.Name())
	}
	for _, m := range []SNMRanked{exp, med, mod} {
		ids := m.RankedIDs(xr)
		if len(ids) != len(xr.Tuples) {
			t.Fatalf("%s: %v", m.Name(), ids)
		}
		seen := map[string]bool{}
		for _, id := range ids {
			if seen[id] {
				t.Fatalf("%s: duplicate %s", m.Name(), id)
			}
			seen[id] = true
		}
		if len(Candidates(m, xr)) == 0 {
			t.Fatalf("%s: no candidates", m.Name())
		}
	}
	// Median ordering on ℛ34: median keys are Johpi(t31), Jimme(t32)?
	// t32's sorted keys: Jimba .4, Jimme .2, Timme .3 → cumulative at
	// Jimba = .4/.9 < .5, Jimme = .6/.9 ≥ .5 → median Jimme.
	ids := med.RankedIDs(xr)
	if ids[0] != "t32" {
		t.Fatalf("median order %v", ids)
	}
}
