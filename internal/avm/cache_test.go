package avm

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"probdedup/internal/pdb"
	"probdedup/internal/prepare"
	"probdedup/internal/strsim"
	"probdedup/internal/sym"
)

// certain builds a single-value distribution interned into tab — the
// shape every value has by the time the detection engine compares it.
func certain(tab *sym.Table, s string) pdb.Dist {
	return prepare.InternDist(tab, pdb.Certain(s))
}

func TestCacheBoundedUnderChurn(t *testing.T) {
	c := NewCache(1024)
	m := NewMatcherWithCache(c, strsim.Levenshtein)
	tab := sym.NewTable(0)
	for i := 0; i < 20000; i++ {
		a := certain(tab, fmt.Sprintf("value-%d", i))
		b := certain(tab, fmt.Sprintf("value-%d", i+1))
		m.AttrSim(0, a, b)
	}
	st := c.Stats()
	if st.Entries > c.Capacity() {
		t.Fatalf("cache holds %d entries, capacity %d", st.Entries, c.Capacity())
	}
	if st.Evictions == 0 {
		t.Fatal("20k distinct pairs through a 1k cache must evict")
	}
	if got := c.Len(); got != st.Entries {
		t.Fatalf("Len() = %d, Stats().Entries = %d", got, st.Entries)
	}
}

func TestCacheHitMissStats(t *testing.T) {
	c := NewCache(DefaultCacheCapacity)
	m := NewMatcherWithCache(c, strsim.Levenshtein)
	tab := sym.NewTable(0)
	a, b := certain(tab, "machinist"), certain(tab, "mechanic")
	m.AttrSim(0, a, b)
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("after first compare: %+v", st)
	}
	for i := 0; i < 9; i++ {
		m.AttrSim(0, a, b)
	}
	// The symmetric lookup must hit the same entry.
	m.AttrSim(0, b, a)
	st = c.Stats()
	if st.Misses != 1 || st.Hits != 10 {
		t.Fatalf("after repeats: %+v", st)
	}
	if hr := st.HitRate(); math.Abs(hr-10.0/11) > 1e-12 {
		t.Fatalf("hit rate %v", hr)
	}
	if sizes := m.CacheSize(); sizes[0] != 1 {
		t.Fatalf("CacheSize = %v", sizes)
	}
}

// TestCacheEvictionKeepsResultsExact drives far more distinct pairs than
// the cache holds and checks every similarity against the uncached path:
// eviction must only cost recomputation, never correctness.
func TestCacheEvictionKeepsResultsExact(t *testing.T) {
	c := NewCache(64)
	cached := NewMatcherWithCache(c, strsim.Levenshtein)
	uncached := NewMatcherWithCache(nil, strsim.Levenshtein)
	tab := sym.NewTable(0)
	for round := 0; round < 3; round++ { // revisit pairs across evictions
		for i := 0; i < 500; i++ {
			a := certain(tab, fmt.Sprintf("left-%d", i))
			b := certain(tab, fmt.Sprintf("right-%d", i%37))
			got := cached.AttrSim(0, a, b)
			want := uncached.AttrSim(0, a, b)
			if got != want {
				t.Fatalf("pair %d: cached %v, uncached %v", i, got, want)
			}
		}
	}
}

// TestCacheConcurrentSharedMatchers exercises one cache from many
// matcher-owning goroutines (the engine's worker topology); run with
// -race. Cross-goroutine hits are checked via the stats: the total miss
// count of disjoint repeated workloads must stay below one worker's
// distinct-pair count times the worker count.
func TestCacheConcurrentSharedMatchers(t *testing.T) {
	c := NewCache(DefaultCacheCapacity)
	const workers = 8
	const distinct = 200
	// Interned up front, as the engine does before its workers start.
	tab := sym.NewTable(0)
	var as, bs [distinct]pdb.Dist
	for i := range as {
		as[i] = certain(tab, fmt.Sprintf("alpha-%03d", i))
		bs[i] = certain(tab, fmt.Sprintf("alphb-%03d", i))
	}
	var wg sync.WaitGroup
	results := make([][]float64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := NewMatcherWithCache(c, strsim.Levenshtein, strsim.Jaro)
			out := make([]float64, 0, 4*distinct)
			for rep := 0; rep < 4; rep++ {
				for i := 0; i < distinct; i++ {
					out = append(out, m.AttrSim(0, as[i], bs[i])+m.AttrSim(1, as[i], bs[i]))
				}
			}
			results[w] = out
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := range results[0] {
			if results[w][i] != results[0][i] {
				t.Fatalf("worker %d diverged at %d", w, i)
			}
		}
	}
	st := c.Stats()
	// 2 attributes × distinct pairs are the only possible misses; with
	// cross-worker sharing the misses stay near that, far below the
	// workers× blowup of per-worker caches.
	if st.Misses >= uint64(workers*2*distinct) {
		t.Fatalf("misses %d suggest no cross-worker sharing", st.Misses)
	}
	if st.Hits == 0 {
		t.Fatal("no hits recorded")
	}
}

func TestMatcherSharedCacheMatchesPrivate(t *testing.T) {
	shared := NewCache(DefaultCacheCapacity)
	m1 := NewMatcherWithCache(shared, strsim.NormalizedHamming)
	m2 := NewMatcherWithCache(shared, strsim.NormalizedHamming)
	private := NewMatcher(strsim.NormalizedHamming)
	tab := sym.NewTable(0)
	d1 := prepare.InternDist(tab, pdb.MustDist(pdb.Alternative{Value: pdb.V("Tim"), P: 0.6}, pdb.Alternative{Value: pdb.V("Tom"), P: 0.4}))
	d2 := prepare.InternDist(tab, pdb.MustDist(pdb.Alternative{Value: pdb.V("Kim"), P: 0.9}))
	want := private.AttrSim(0, d1, d2)
	if got := m1.AttrSim(0, d1, d2); got != want {
		t.Fatalf("m1: %v want %v", got, want)
	}
	if got := m2.AttrSim(0, d1, d2); got != want {
		t.Fatalf("m2: %v want %v", got, want)
	}
	st := shared.Stats()
	if st.Hits == 0 {
		t.Fatalf("m2 should hit m1's entries: %+v", st)
	}
}
