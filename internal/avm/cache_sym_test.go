package avm

import (
	"testing"

	"probdedup/internal/pdb"
	"probdedup/internal/strsim"
)

// internedDist builds a single-value distribution whose value carries
// the given interned symbol, the shape the detection engine's
// standardization step produces. NewDist normalizes values and drops
// annotations, so the symbol is attached afterwards — exactly like
// prepare.InternDist does.
func internedDist(s string, sym uint32) pdb.Dist {
	d := pdb.MustDist(pdb.Alternative{Value: pdb.V(s), P: 1})
	return d.Annotate(func(v pdb.Value) pdb.Value { return v.WithSym(sym) })
}

func plainDist(s string) pdb.Dist {
	return pdb.MustDist(pdb.Alternative{Value: pdb.V(s), P: 1})
}

// TestSymKeyedMemoization: interned value pairs are memoized under the
// symbol key — the second lookup is a hit, order of the pair does not
// matter, and the entry is visible to Len/Stats/SizeByAttr.
func TestSymKeyedMemoization(t *testing.T) {
	calls := 0
	counting := func(a, b string) float64 { calls++; return strsim.Levenshtein(a, b) }
	cache := NewCache(1024)
	m := NewMatcherWithCache(cache, counting)

	a, b := internedDist("machinist", 7), internedDist("mechanic", 9)
	want := strsim.Levenshtein("machinist", "mechanic")
	if got := m.AttrSim(0, a, b); got != want {
		t.Fatalf("AttrSim = %v, want %v", got, want)
	}
	if got := m.AttrSim(0, a, b); got != want {
		t.Fatalf("memoized AttrSim = %v, want %v", got, want)
	}
	// The symbol key is canonically ordered: the swapped pair hits too.
	if got := m.AttrSim(0, b, a); got != want {
		t.Fatalf("swapped AttrSim = %v, want %v", got, want)
	}
	if calls != 1 {
		t.Fatalf("comparison function ran %d times, want 1", calls)
	}
	st := m.CacheStats()
	if st.Entries != 1 || st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 entry, 2 hits, 1 miss", st)
	}
	if cache.Len() != 1 {
		t.Fatalf("Len = %d, want 1", cache.Len())
	}
	if sz := m.CacheSize(); len(sz) != 1 || sz[0] != 1 {
		t.Fatalf("SizeByAttr = %v, want [1]", sz)
	}
	if hr := st.HitRate(); hr != 2.0/3.0 {
		t.Fatalf("HitRate = %v, want 2/3", hr)
	}
}

// TestUninternedValuesComputeDirectly: the memo is keyed by symbol pair
// only, so a pair with an un-interned side bypasses it — computed every
// time, never stored, never counted.
func TestUninternedValuesComputeDirectly(t *testing.T) {
	calls := 0
	counting := func(a, b string) float64 { calls++; return 0.25 }
	m := NewMatcherWithCache(NewCache(1024), counting)
	a, b := internedDist("alpha", 3), plainDist("beta")
	if got := m.AttrSim(0, a, b) + m.AttrSim(0, b, a); got != 0.5 {
		t.Fatalf("AttrSim sum = %v, want 0.5", got)
	}
	if calls != 2 {
		t.Fatalf("comparison ran %d times, want 2 (no memo without symbols)", calls)
	}
	if st := m.CacheStats(); st.Entries != 0 || st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want an untouched cache", st)
	}
}

// TestNilCacheMatcher: a matcher without a cache recomputes every pair
// and reports zero stats — the memo-free reference configuration.
func TestNilCacheMatcher(t *testing.T) {
	calls := 0
	m := NewMatcherWithCache(nil, func(a, b string) float64 { calls++; return 1 })
	a, b := internedDist("x", 1), internedDist("y", 2)
	m.AttrSim(0, a, b)
	m.AttrSim(0, a, b)
	if calls != 2 {
		t.Fatalf("nil cache memoized: %d calls", calls)
	}
	if st := m.CacheStats(); st != (CacheStats{}) {
		t.Fatalf("nil cache stats = %+v, want zero", st)
	}
	if sz := m.CacheSize(); len(sz) != 1 || sz[0] != 0 {
		t.Fatalf("nil cache SizeByAttr = %v", sz)
	}
}

// TestValueSimNullSemantics pins the three branches of ValueSim.
func TestValueSimNullSemantics(t *testing.T) {
	ns := NullSemantics{NullNull: 0.9, NullValue: 0.2}
	f := strsim.Exact
	if got := ns.ValueSim(f, pdb.Null, pdb.Null); got != 0.9 {
		t.Fatalf("sim(⊥,⊥) = %v, want 0.9", got)
	}
	if got := ns.ValueSim(f, pdb.Null, pdb.V("a")); got != 0.2 {
		t.Fatalf("sim(⊥,a) = %v, want 0.2", got)
	}
	if got := ns.ValueSim(f, pdb.V("a"), pdb.Null); got != 0.2 {
		t.Fatalf("sim(a,⊥) = %v, want 0.2", got)
	}
	if got := ns.ValueSim(f, pdb.V("a"), pdb.V("a")); got != 1 {
		t.Fatalf("sim(a,a) = %v, want 1", got)
	}
}

// TestHitRateEmpty: no lookups yet means rate 0, not NaN.
func TestHitRateEmpty(t *testing.T) {
	if hr := (CacheStats{}).HitRate(); hr != 0 {
		t.Fatalf("HitRate of zero stats = %v", hr)
	}
}
