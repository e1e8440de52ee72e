package core

import (
	"math"
	"strings"
	"testing"

	"probdedup/internal/avm"
	"probdedup/internal/dataset"
	"probdedup/internal/decision"
	"probdedup/internal/ssr"
	"probdedup/internal/strsim"
	"probdedup/internal/xmatch"
)

// cacheTestOptions is a parallel blocking run over a mid-sized corpus —
// the topology where the shared cache matters.
func cacheTestOptions(t *testing.T, workers, cacheCapacity int) (*dataset.Dataset, Options) {
	t.Helper()
	d := dataset.Generate(dataset.DefaultConfig(80, 29))
	return d, Options{
		Compare:       []strsim.Func{strsim.Levenshtein, strsim.Levenshtein, strsim.Levenshtein},
		Final:         decision.Thresholds{Lambda: 0.6, Mu: 0.8},
		Derivation:    xmatch.SimilarityBased{Conditioned: true},
		Workers:       workers,
		CacheCapacity: cacheCapacity,
	}
}

// TestSharedCacheResultsMatchUncached proves the cache is semantically
// invisible: cached (tiny, forcing evictions), avm.DefaultCacheCapacity
// and memo-less (0, the default) runs classify identically at any
// worker count. Run with -race to exercise the concurrent cache paths.
func TestSharedCacheResultsMatchUncached(t *testing.T) {
	d, base := cacheTestOptions(t, 1, 0)
	u := d.Union()
	ref, err := Detect(u, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		for _, capacity := range []int{0, avm.DefaultCacheCapacity, 128} {
			opts := base
			opts.Workers = workers
			opts.CacheCapacity = capacity
			got, err := Detect(u, opts)
			if err != nil {
				t.Fatalf("workers=%d capacity=%d: %v", workers, capacity, err)
			}
			if len(got.Compared) != len(ref.Compared) {
				t.Fatalf("workers=%d capacity=%d: compared %d vs %d", workers, capacity, len(got.Compared), len(ref.Compared))
			}
			for p, want := range ref.ByPair {
				g, ok := got.ByPair[p]
				if !ok || g.Class != want.Class || math.Abs(g.Sim-want.Sim) > 1e-12 {
					t.Fatalf("workers=%d capacity=%d: pair %v differs (%+v vs %+v)", workers, capacity, p, g, want)
				}
			}
		}
	}
}

// TestSharedCacheBoundedAndSharedAcrossWorkers inspects the engine's
// cache after a parallel run: the entry count must respect the
// configured bound no matter the worker count, and the hit count must
// prove cross-worker reuse (the same relation compared by N workers
// cannot miss more often than the distinct-pair universe).
func TestSharedCacheBoundedAndSharedAcrossWorkers(t *testing.T) {
	d, opts := cacheTestOptions(t, 8, 512)
	u := d.Union()
	stats, err := DetectStream(u, opts, func(Match) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	st := stats.Cache
	if st.Capacity == 0 {
		t.Fatal("engine has no shared cache")
	}
	if st.Entries > st.Capacity {
		t.Fatalf("cache entries %d exceed capacity %d", st.Entries, st.Capacity)
	}
	if st.Hits == 0 {
		t.Fatalf("no cache hits in a blocking run: %+v", st)
	}
	// With the small bound, churn must have evicted.
	if st.Evictions == 0 {
		t.Fatalf("expected evictions at capacity 512: %+v", st)
	}

	// Same run with ample capacity: misses are then bounded by the
	// distinct value-pair universe — not multiplied by the 8 workers,
	// which proves the workers share one memo.
	stats2, err := DetectStream(u, Options{
		Compare:       opts.Compare,
		Final:         opts.Final,
		Derivation:    opts.Derivation,
		Workers:       8,
		CacheCapacity: 1 << 20,
	}, func(Match) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	st2 := stats2.Cache
	if st2.Evictions != 0 {
		t.Fatalf("ample capacity must not evict: %+v", st2)
	}
	// Every miss inserts one entry; without cross-worker sharing the
	// workers would each recompute the same pairs, pushing misses to a
	// multiple of the final entry count. A small slack covers racing
	// misses of the same key (both workers compute, both insert the
	// same deterministic value).
	slack := uint64(st2.Entries)/10 + 64
	if st2.Misses > uint64(st2.Entries)+slack {
		t.Fatalf("misses %d for %d entries: workers did not share the cache", st2.Misses, st2.Entries)
	}
}

// TestCrossProductStreamSharedCache covers a non-partitioned reduction
// through the worker pool and the opted-in memo under -race as well.
func TestCrossProductStreamSharedCache(t *testing.T) {
	d, opts := cacheTestOptions(t, 4, avm.DefaultCacheCapacity)
	opts.Reduction = ssr.CrossProduct{}
	u := d.Union()
	seq := opts
	seq.Workers = 1
	want, err := Detect(u, seq)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Detect(u, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Compared) != len(want.Compared) || len(got.Matches) != len(want.Matches) {
		t.Fatalf("parallel cross product diverged: %d/%d vs %d/%d",
			len(got.Compared), len(got.Matches), len(want.Compared), len(want.Matches))
	}
}

// TestEngineRejectsArityMismatch pins the configuration error for
// weight/schema arity mismatches (three attributes, two weights).
func TestEngineRejectsArityMismatch(t *testing.T) {
	d := dataset.Generate(dataset.DefaultConfig(5, 3))
	u := d.Union() // three-attribute schema
	_, err := Detect(u, Options{
		AltModel: decision.SimpleModel{
			Phi: decision.WeightedSum(0.8, 0.2),
			T:   decision.Thresholds{Lambda: 0.4, Mu: 0.7},
		},
		Final: decision.Thresholds{Lambda: 0.4, Mu: 0.7},
	})
	if err == nil {
		t.Fatal("two weights against a three-attribute schema must be rejected")
	}
	if !strings.Contains(err.Error(), "bound to 2 attributes") {
		t.Fatalf("unexpected error: %v", err)
	}
	// Fellegi–Sunter arity is validated through the same path.
	fs, ferr := decision.NewFellegiSunter([]float64{0.9, 0.9}, []float64{0.1, 0.1}, decision.Thresholds{})
	if ferr != nil {
		t.Fatal(ferr)
	}
	if _, err := Detect(u, Options{AltModel: fs, Final: decision.Thresholds{}}); err == nil {
		t.Fatal("FS model with wrong arity must be rejected")
	}
}
