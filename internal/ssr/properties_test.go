package ssr

import (
	"testing"

	"probdedup/internal/dataset"
	"probdedup/internal/keys"
	"probdedup/internal/pdb"
	"probdedup/internal/verify"
)

// allMethods instantiates every reduction method for property testing.
func allMethods(def keys.Def) []Method {
	return []Method{
		CrossProduct{},
		SNMCertain{Key: def, Window: 5},
		SNMAlternatives{Key: def, Window: 5},
		SNMRanked{Key: def, Window: 5},
		SNMRanked{Key: def, Window: 5, Strategy: MedianKey},
		SNMRanked{Key: def, Window: 5, Strategy: ModeKey},
		SNMMultiPass{Key: def, Window: 5, Select: TopWorlds, K: 4},
		SNMMultiPass{Key: def, Window: 5, Select: DissimilarWorlds, K: 4},
		BlockingCertain{Key: def},
		BlockingAlternatives{Key: def},
		BlockingCluster{Key: def, K: 6, Seed: 3},
		NewFilter(SNMAlternatives{Key: def, Window: 5}, Pruning{MaxDiff: map[int]int{0: 3}}),
	}
}

// TestQuickMethodContracts checks, on random corpora, that every method:
// emits canonical pairs referencing existing tuples, never self-pairs,
// never exceeds the cross product, and is deterministic.
func TestQuickMethodContracts(t *testing.T) {
	def := keys.NewDef(keys.Part{Attr: 0, Prefix: 3}, keys.Part{Attr: 1, Prefix: 2})
	for seed := int64(0); seed < 8; seed++ {
		d := dataset.Generate(dataset.DefaultConfig(25, seed))
		u := d.Union()
		ids := map[string]bool{}
		for _, x := range u.Tuples {
			ids[x.ID] = true
		}
		full := Candidates(CrossProduct{}, u)
		for _, m := range allMethods(def) {
			c1 := Candidates(m, u)
			for p := range c1 {
				if p.A == p.B {
					t.Fatalf("seed %d %s: self pair %v", seed, m.Name(), p)
				}
				if p.A > p.B {
					t.Fatalf("seed %d %s: non-canonical pair %v", seed, m.Name(), p)
				}
				if !ids[p.A] || !ids[p.B] {
					t.Fatalf("seed %d %s: unknown tuple in %v", seed, m.Name(), p)
				}
				if !full[p] {
					t.Fatalf("seed %d %s: pair %v outside cross product", seed, m.Name(), p)
				}
			}
			c2 := Candidates(m, u)
			if len(c1) != len(c2) {
				t.Fatalf("seed %d %s: nondeterministic sizes %d vs %d", seed, m.Name(), len(c1), len(c2))
			}
			for p := range c1 {
				if !c2[p] {
					t.Fatalf("seed %d %s: nondeterministic pair set", seed, m.Name())
				}
			}
		}
	}
}

// TestQuickSNMWindowMonotone checks that enlarging the window never removes
// candidates for the single-order SNM variants.
func TestQuickSNMWindowMonotone(t *testing.T) {
	def := keys.NewDef(keys.Part{Attr: 0, Prefix: 3}, keys.Part{Attr: 1, Prefix: 2})
	for seed := int64(0); seed < 5; seed++ {
		d := dataset.Generate(dataset.DefaultConfig(20, seed))
		u := d.Union()
		for _, mk := range []func(w int) Method{
			func(w int) Method { return SNMCertain{Key: def, Window: w} },
			func(w int) Method { return SNMAlternatives{Key: def, Window: w} },
			func(w int) Method { return SNMRanked{Key: def, Window: w} },
			func(w int) Method { return SNMRanked{Key: def, Window: w, Strategy: MedianKey} },
		} {
			small := Candidates(mk(3), u)
			large := Candidates(mk(6), u)
			name := mk(3).Name()
			for p := range small {
				if !large[p] {
					t.Fatalf("seed %d %s: window 6 lost pair %v of window 3", seed, name, p)
				}
			}
		}
	}
}

// TestQuickMultiPassMonotoneInWorlds checks that more top worlds never
// reduce the candidate set.
func TestQuickMultiPassMonotoneInWorlds(t *testing.T) {
	def := keys.NewDef(keys.Part{Attr: 0, Prefix: 3}, keys.Part{Attr: 1, Prefix: 2})
	for seed := int64(0); seed < 5; seed++ {
		d := dataset.Generate(dataset.DefaultConfig(15, seed))
		u := d.Union()
		prev := verify.PairSet{}
		for _, k := range []int{1, 2, 4, 8} {
			cur := Candidates(SNMMultiPass{Key: def, Window: 4, Select: TopWorlds, K: k}, u)
			for p := range prev {
				if !cur[p] {
					t.Fatalf("seed %d: k=%d lost pair %v", seed, k, p)
				}
			}
			prev = cur
		}
	}
}

// TestBlockingPartitions checks that certain blocking partitions tuples:
// every tuple appears in exactly one block, so blocks cover disjoint pairs.
func TestBlockingPartitions(t *testing.T) {
	def := keys.NewDef(keys.Part{Attr: 0, Prefix: 2})
	xr := pdb.NewXRelation("X", "name", "job")
	for _, n := range []string{"Anna", "Anton", "Bert", "Berta", "Cleo"} {
		xr.Append(pdb.NewXTuple("t"+n, pdb.NewAlt(1, n, "job")))
	}
	cands := Candidates(BlockingCertain{Key: def}, xr)
	// Blocks: An{Anna,Anton}, Be{Bert,Berta}, Cl{Cleo} → exactly 2 pairs.
	if len(cands) != 2 || !cands.Has("tAnna", "tAnton") || !cands.Has("tBert", "tBerta") {
		t.Fatalf("blocking pairs %v", cands.Sorted())
	}
}
