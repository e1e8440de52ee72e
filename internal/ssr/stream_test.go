package ssr

import (
	"slices"
	"testing"

	"probdedup/internal/dataset"
	"probdedup/internal/keys"
	"probdedup/internal/pdb"
	"probdedup/internal/verify"
)

// streamMethods returns every reduction method of the package,
// configured against the given schema.
func streamMethods(def keys.Def) []Method {
	prune := Pruning{MaxDiff: map[int]int{0: 4}}
	return []Method{
		CrossProduct{},
		SNMMultiPass{Key: def, Window: 3, Select: TopWorlds, K: 4},
		SNMCertain{Key: def, Window: 3},
		SNMAlternatives{Key: def, Window: 3},
		SNMRanked{Key: def, Window: 3},
		SNMRanked{Key: def, Window: 3, Strategy: MedianKey},
		BlockingCertain{Key: def},
		BlockingAlternatives{Key: def},
		BlockingCluster{Key: def, K: 8, Seed: 1},
		NewFilter(nil, prune),
		NewFilter(SNMAlternatives{Key: def, Window: 3}, prune),
	}
}

func streamCorpus(t *testing.T) (*pdb.XRelation, keys.Def) {
	t.Helper()
	d := dataset.Generate(dataset.DefaultConfig(40, 7))
	u := d.Union()
	def, err := keys.ParseDef("name:3+job:2", u.Schema)
	if err != nil {
		t.Fatal(err)
	}
	return u, def
}

// TestStreamMatchesCandidates asserts for every method that the
// enumeration yields canonical pairs, none twice, and runs to the end,
// so Candidates loses nothing to collecting it into a set.
func TestStreamMatchesCandidates(t *testing.T) {
	u, def := streamCorpus(t)
	for _, m := range streamMethods(def) {
		got := verify.PairSet{}
		completed := m.EnumeratePairs(u, func(p verify.Pair) bool {
			if got[p] {
				t.Fatalf("%s: pair %v yielded twice", m.Name(), p)
			}
			if p != verify.NewPair(p.A, p.B) {
				t.Fatalf("%s: pair %v not canonical", m.Name(), p)
			}
			got[p] = true
			return true
		})
		if !completed {
			t.Fatalf("%s: enumeration reported an early stop", m.Name())
		}
		if want := Candidates(m, u); len(got) != len(want) {
			t.Fatalf("%s: streamed %d pairs, candidates %d", m.Name(), len(got), len(want))
		}
	}
}

// TestStreamEarlyStop asserts that yield returning false stops the
// enumeration immediately and is reported by the return value.
func TestStreamEarlyStop(t *testing.T) {
	u, def := streamCorpus(t)
	for _, m := range streamMethods(def) {
		if len(Candidates(m, u)) < 2 {
			continue
		}
		seen := 0
		completed := m.EnumeratePairs(u, func(verify.Pair) bool {
			seen++
			return seen < 2
		})
		if completed {
			t.Fatalf("%s: early stop not reported", m.Name())
		}
		if seen != 2 {
			t.Fatalf("%s: %d pairs yielded after stop at 2", m.Name(), seen)
		}
	}
}

// TestEnumerateBlocks pins the blocking enumeration: a singleton block
// and a member repeated in its block pair with nothing, blocks come in
// sorted-label order and members in insertion order, and an own rule
// keeps a pair shared by two blocks in one of them only.
func TestEnumerateBlocks(t *testing.T) {
	blocks := map[string][]string{
		"b": {"x", "y", "z"},
		"a": {"z", "y"},
		"c": {"w"},
		"d": {"v", "v"},
	}
	collect := func(own func(label, a, b string) bool) []verify.Pair {
		var got []verify.Pair
		enumerateBlocks(blocks, own, func(p verify.Pair) bool {
			got = append(got, p)
			return true
		})
		return got
	}
	yz, xy, xz := verify.NewPair("y", "z"), verify.NewPair("x", "y"), verify.NewPair("x", "z")
	if got, want := collect(nil), []verify.Pair{yz, xy, xz, yz}; !slices.Equal(got, want) {
		t.Fatalf("no own rule: %v, want %v", got, want)
	}
	inA := func(label, a, b string) bool { return label == "a" || verify.NewPair(a, b) != yz }
	if got, want := collect(inA), []verify.Pair{yz, xy, xz}; !slices.Equal(got, want) {
		t.Fatalf("own rule: %v, want %v", got, want)
	}
	n := 0
	if enumerateBlocks(blocks, nil, func(verify.Pair) bool { n++; return false }) || n != 1 {
		t.Fatalf("early stop: %d pairs yielded, or not reported", n)
	}
}

// TestBlockingAlternativesSharedBlocks pins the canonical-block rule
// on a handcrafted relation where two tuples share two blocks: the
// pair must surface exactly once.
func TestBlockingAlternativesSharedBlocks(t *testing.T) {
	xr := pdb.NewXRelation("shared", "name")
	xr.Append(pdb.NewXTuple("t1", pdb.NewAlt(0.5, "anna"), pdb.NewAlt(0.5, "berta")))
	xr.Append(pdb.NewXTuple("t2", pdb.NewAlt(0.5, "anna"), pdb.NewAlt(0.5, "berta")))
	def := keys.NewDef(keys.Part{Attr: 0, Prefix: 3})
	m := BlockingAlternatives{Key: def}

	if blocks := m.Blocks(xr); len(blocks["ann"]) != 2 || len(blocks["ber"]) != 2 {
		t.Fatalf("blocks %v, want both tuples in 'ann' and 'ber'", blocks)
	}
	var yielded []verify.Pair
	m.EnumeratePairs(xr, func(p verify.Pair) bool {
		yielded = append(yielded, p)
		return true
	})
	if len(yielded) != 1 || yielded[0] != verify.NewPair("t1", "t2") {
		t.Fatalf("yielded %v, want the pair (t1, t2) exactly once", yielded)
	}
}

// TestFilterDropsForeignPairs pins the Filter's set-intersection
// semantics: a wrapped method emitting pairs with IDs outside the
// relation has them dropped silently, as in the materialized path.
func TestFilterDropsForeignPairs(t *testing.T) {
	u, _ := streamCorpus(t)
	f := NewFilter(foreignPairMethod{}, Pruning{MaxDiff: map[int]int{0: 100}})
	if c := Candidates(f, u); len(c) != 0 {
		t.Fatalf("foreign pairs survived the filter: %v", c.Sorted())
	}
	n := 0
	f.EnumeratePairs(u, func(verify.Pair) bool { n++; return true })
	if n != 0 {
		t.Fatalf("stream yielded %d foreign pairs", n)
	}
}

// foreignPairMethod emits a pair referencing IDs outside the relation.
type foreignPairMethod struct{}

func (foreignPairMethod) Name() string { return "foreign" }

func (foreignPairMethod) EnumeratePairs(_ *pdb.XRelation, yield func(verify.Pair) bool) bool {
	return yield(verify.Pair{A: "ghost-a", B: "ghost-b"})
}

// TestTotalPairs checks the arithmetic pair count against AllPairs.
func TestTotalPairs(t *testing.T) {
	u, _ := streamCorpus(t)
	if got, want := TotalPairs(len(u.Tuples)), len(AllPairs(u)); got != want {
		t.Fatalf("TotalPairs(%d) = %d, want %d", len(u.Tuples), got, want)
	}
	for n, want := range map[int]int{0: 0, 1: 0, 2: 1, 5: 10, 6: 15} {
		if got := TotalPairs(n); got != want {
			t.Fatalf("TotalPairs(%d) = %d, want %d", n, got, want)
		}
	}
}
