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

// slotCount is the total length of the stripes' slot arrays.
func slotCount(c *Cache) int {
	n := 0
	for i := range c.shards {
		n += len(c.shards[i].slots)
	}
	return n
}

// memoize is valueSim's miss path on a raw key.
func memoize(c *Cache, k symKey, v float64) {
	if _, ok := c.get(k); !ok {
		c.put(k, v)
	}
}

// TestCacheFootprintBoundedUnderChurn pushes 50× capacity distinct pairs
// through a small cache: the slot arrays stop growing at the rounded
// capacity, so the footprint after 10× and after 50× capacity is the
// same. Below the bound nothing is evicted.
func TestCacheFootprintBoundedUnderChurn(t *testing.T) {
	ample := NewCache(DefaultCacheCapacity)
	for i := 1; i <= 5000; i++ {
		memoize(ample, symKey{attr: uint32(i % 3), a: uint32(i), b: uint32(i + 7)}, float64(i))
	}
	if st := ample.Stats(); st.Evictions != 0 || st.Entries != 5000 {
		t.Fatalf("ample capacity: %+v, want 5000 entries and no eviction", st)
	}

	if got := NewCache(0).Capacity(); got != DefaultCacheCapacity {
		t.Fatalf("NewCache(0).Capacity() = %d, want %d", got, DefaultCacheCapacity)
	}
	c := NewCache(1000)
	if c.Capacity() != 1024 {
		t.Fatalf("Capacity() = %d, want 1000 rounded to 64 stripes × 16", c.Capacity())
	}
	var slotsAt10 int
	for i := 1; i <= 50*c.Capacity(); i++ {
		memoize(c, symKey{attr: uint32(i % 3), a: uint32(i), b: uint32(i + 7)}, float64(i))
		if i%c.Capacity() != 0 {
			continue
		}
		if n := slotCount(c); n > c.Capacity() {
			t.Fatalf("after %d pairs: %d slots, capacity %d", i, n, c.Capacity())
		}
		if i == 10*c.Capacity() {
			slotsAt10 = slotCount(c)
		}
	}
	if n := slotCount(c); n != slotsAt10 {
		t.Fatalf("%d slots after 50× capacity, %d after 10×", n, slotsAt10)
	}
	st := c.Stats()
	if st.Entries > st.Capacity || c.Len() != st.Entries {
		t.Fatalf("Len() = %d, stats %+v", c.Len(), st)
	}
	if st.Evictions == 0 {
		t.Fatal("50× capacity distinct pairs must evict")
	}
}

// TestCacheReplacedSlotForgetsItsKey fills one window of a stripe at its
// bound with keys sharing a home slot, then inserts one more: it
// replaces the home slot, the key it displaced misses from then on, and
// every other key of the window still hits.
func TestCacheReplacedSlotForgetsItsKey(t *testing.T) {
	c := NewCache(probeWindow * cacheShards) // one full-size window per stripe
	var keys []symKey
	for i := uint32(1); len(keys) < probeWindow+1; i++ {
		k := symKey{a: i, b: i + 1}
		if hashKey(k)>>(64-9) == 0 { // stripe 0, home slot 0
			keys = append(keys, k)
		}
	}
	window, extra := keys[:probeWindow], keys[probeWindow]
	for i, k := range window {
		c.put(k, float64(i))
	}
	for i, k := range window {
		if v, ok := c.get(k); !ok || v != float64(i) {
			t.Fatalf("window key %d: (%v, %v), want (%d, true)", i, v, ok, i)
		}
	}
	c.put(extra, -1)
	if v, ok := c.get(window[0]); ok {
		t.Fatalf("displaced key still answers %v", v)
	}
	if v, ok := c.get(extra); !ok || v != -1 {
		t.Fatalf("replacing key: (%v, %v), want (-1, true)", v, ok)
	}
	for i, k := range window[1:] {
		if v, ok := c.get(k); !ok || v != float64(i+1) {
			t.Fatalf("window key %d after replacement: (%v, %v)", i+1, v, ok)
		}
	}
	if st := c.Stats(); st.Entries != probeWindow || st.Evictions != 1 {
		t.Fatalf("stats %+v, want %d entries and 1 eviction", st, probeWindow)
	}
}

// TestCacheGrowRehashesOverflowingWindows hands grow nine entries that
// share home slot 0 up to 64 slots, more than one window holds. Below
// the bound grow keeps doubling until all nine fit; with the bound at
// 64 the ninth replaces its home slot as one eviction.
func TestCacheGrowRehashesOverflowingWindows(t *testing.T) {
	var crowd []cacheSlot
	for i := uint32(1); len(crowd) < probeWindow+1; i++ {
		k := symKey{a: i, b: i + 1}
		if hashKey(k)>>(64-6-6) == 0 { // stripe 0, home 0 at ≤ 64 slots
			crowd = append(crowd, cacheSlot{key: k, v: float64(i)})
		}
	}
	stripe := func() *cacheShard {
		s := &cacheShard{slots: make([]cacheSlot, 16), n: len(crowd)}
		copy(s.slots, crowd)
		return s
	}
	found := func(s *cacheShard) int {
		n := 0
		for _, sl := range crowd {
			if j, ok := s.probe(sl.key, hashKey(sl.key)); ok && s.slots[j].v == sl.v {
				n++
			}
		}
		return n
	}

	s := stripe()
	s.grow(1 << 10)
	if len(s.slots) <= 64 || s.evics != 0 || s.n != len(crowd) || found(s) != len(crowd) {
		t.Fatalf("below the bound: %d slots, %d evictions, n=%d, %d of %d found", len(s.slots), s.evics, s.n, found(s), len(crowd))
	}
	s = stripe()
	s.grow(64)
	if len(s.slots) != 64 || s.evics != 1 || s.n != probeWindow || found(s) != probeWindow {
		t.Fatalf("at the bound: %d slots, %d evictions, n=%d, %d of %d found", len(s.slots), s.evics, s.n, found(s), len(crowd))
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
