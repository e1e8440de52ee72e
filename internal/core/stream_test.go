package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"probdedup/internal/dataset"
	"probdedup/internal/decision"
	"probdedup/internal/keys"
	"probdedup/internal/pdb"
	"probdedup/internal/ssr"
	"probdedup/internal/strsim"
	"probdedup/internal/verify"
	"probdedup/internal/xmatch"
)

func streamOptions() Options {
	return Options{
		Compare: []strsim.Func{strsim.Levenshtein, strsim.Levenshtein, strsim.Levenshtein},
		AltModel: decision.SimpleModel{
			Phi: decision.WeightedSum(0.4, 0.3, 0.3),
			T:   decision.Thresholds{Lambda: 0.6, Mu: 0.8},
		},
		Derivation: xmatch.SimilarityBased{Conditioned: true},
		Final:      decision.Thresholds{Lambda: 0.6, Mu: 0.8},
	}
}

// collectStream runs DetectStream and gathers the emitted matches.
func collectStream(t *testing.T, xr *pdb.XRelation, opts Options) (map[verify.Pair]Match, StreamStats) {
	t.Helper()
	got := map[verify.Pair]Match{}
	stats, err := DetectStream(xr, opts, func(m Match) bool {
		if _, dup := got[m.Pair]; dup {
			t.Fatalf("pair %v emitted twice", m.Pair)
		}
		got[m.Pair] = m
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, stats
}

// assertSameResults checks a streamed result set against a
// materialized Detect run: identical pairs, similarities, classes.
func assertSameResults(t *testing.T, res *Result, got map[verify.Pair]Match, stats StreamStats) {
	t.Helper()
	if len(got) != len(res.Compared) {
		t.Fatalf("streamed %d pairs, Detect compared %d", len(got), len(res.Compared))
	}
	if stats.Compared != len(res.Compared) {
		t.Fatalf("stats.Compared %d, want %d", stats.Compared, len(res.Compared))
	}
	if stats.TotalPairs != res.TotalPairs {
		t.Fatalf("stats.TotalPairs %d, want %d", stats.TotalPairs, res.TotalPairs)
	}
	if stats.Matches != len(res.Matches) || stats.Possible != len(res.Possible) {
		t.Fatalf("stats sets M=%d P=%d, want M=%d P=%d",
			stats.Matches, stats.Possible, len(res.Matches), len(res.Possible))
	}
	for p, want := range res.ByPair {
		m, ok := got[p]
		if !ok {
			t.Fatalf("pair %v missing from stream", p)
		}
		if math.Abs(m.Sim-want.Sim) > 1e-12 || m.Class != want.Class {
			t.Fatalf("pair %v differs: stream %v/%v, detect %v/%v",
				p, m.Sim, m.Class, want.Sim, want.Class)
		}
	}
}

// TestDetectStreamMatchesDetect asserts across reductions and worker
// counts that the streaming path classifies exactly like Detect —
// satellite requirement together with TestParallelDetectMatchesSequential,
// exercised under -race in CI.
func TestDetectStreamMatchesDetect(t *testing.T) {
	d := dataset.Generate(dataset.DefaultConfig(50, 23))
	u := d.Union()
	def, err := keys.ParseDef("name:3+job:2", u.Schema)
	if err != nil {
		t.Fatal(err)
	}
	reductions := map[string]ssr.Method{
		"cross-product":         nil,
		"snm-ranked":            ssr.SNMRanked{Key: def, Window: 5},
		"snm-alternatives":      ssr.SNMAlternatives{Key: def, Window: 5},
		"blocking-certain":      ssr.BlockingCertain{Key: def},
		"blocking-alternatives": ssr.BlockingAlternatives{Key: def},
		"blocking-cluster":      ssr.BlockingCluster{Key: def, K: 8, Seed: 1},
		"user-defined":          firstLastMethod{},
	}
	for name, red := range reductions {
		opts := streamOptions()
		opts.Reduction = red
		seq, err := Detect(u, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, workers := range []int{1, 4, 32} {
			opts.Workers = workers
			got, stats := collectStream(t, u, opts)
			assertSameResults(t, seq, got, stats)
			if stats.Stopped {
				t.Fatalf("%s workers=%d: run reported stopped", name, workers)
			}
			// The parallel Detect must also equal the sequential one.
			par, err := Detect(u, opts)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			for i := range seq.Compared {
				if par.Compared[i] != seq.Compared[i] {
					t.Fatalf("%s workers=%d: Compared order diverges at %d", name, workers, i)
				}
			}
		}
	}
}

// firstLastMethod is a user-defined Method: the first and last tuple
// form the only candidate pair.
type firstLastMethod struct{}

func (firstLastMethod) Name() string { return "first-last" }

func (firstLastMethod) EnumeratePairs(xr *pdb.XRelation, yield func(verify.Pair) bool) bool {
	n := len(xr.Tuples)
	return n < 2 || yield(verify.NewPair(xr.Tuples[0].ID, xr.Tuples[n-1].ID))
}

// TestDetectStreamLargeBlocking is the scale acceptance check: a
// ≥10k-tuple relation streams through a blocking reduction block by
// block and classifies exactly like Detect, while the
// engine never builds the global candidate pair set.
func TestDetectStreamLargeBlocking(t *testing.T) {
	if testing.Short() {
		t.Skip("large corpus")
	}
	d := dataset.Generate(dataset.DefaultConfig(6500, 9))
	u := d.Union()
	if len(u.Tuples) < 10_000 {
		t.Fatalf("corpus has %d tuples, want >= 10000", len(u.Tuples))
	}
	def, err := keys.ParseDef("name:5+job:3", u.Schema)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Compare:   []strsim.Func{strsim.NormalizedHamming, strsim.NormalizedHamming, strsim.NormalizedHamming},
		Reduction: ssr.BlockingCertain{Key: def},
		Final:     decision.Thresholds{Lambda: 0.6, Mu: 0.8},
		Workers:   8,
	}
	matches, possible := verify.PairSet{}, verify.PairSet{}
	stats, err := DetectStream(u, opts, func(m Match) bool {
		switch m.Class {
		case decision.M:
			matches[m.Pair] = true
		case decision.P:
			possible[m.Pair] = true
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := ssr.TotalPairs(len(u.Tuples)); stats.TotalPairs != want {
		t.Fatalf("TotalPairs %d, want %d", stats.TotalPairs, want)
	}

	opts.Workers = 4
	res, err := Detect(u, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != len(res.Matches) || len(possible) != len(res.Possible) {
		t.Fatalf("stream M=%d P=%d, detect M=%d P=%d",
			len(matches), len(possible), len(res.Matches), len(res.Possible))
	}
	for p := range res.Matches {
		if !matches[p] {
			t.Fatalf("match %v missing from stream", p)
		}
	}
	for p := range res.Possible {
		if !possible[p] {
			t.Fatalf("possible %v missing from stream", p)
		}
	}
}

// TestDetectStreamEarlyStop asserts that emit returning false ends the
// run at that pair, and that the worker count changes nothing a caller
// sees: at Workers 1, 2, 4 and 8, with the pre-filter on and off, and
// stopping after the first pair, after 50 or never, the emitted
// sequence and every StreamStats field are the same.
func TestDetectStreamEarlyStop(t *testing.T) {
	u := dataset.Generate(dataset.DefaultConfig(400, 9)).Union()
	def, err := keys.ParseDef("name:2", u.Schema)
	if err != nil {
		t.Fatal(err)
	}
	final := decision.Thresholds{Lambda: 0.6, Mu: 0.8}
	base := Options{
		Compare:    []strsim.Func{strsim.Levenshtein, strsim.Levenshtein, strsim.Levenshtein},
		AltModel:   decision.WeightedSumModel{Weights: []float64{0.4, 0.3, 0.3}, T: final},
		Derivation: xmatch.SimilarityBased{Conditioned: true},
		Final:      final,
	}
	reductions := []struct {
		name string
		m    ssr.Method
	}{
		{"blocking-certain", ssr.BlockingCertain{Key: def}},
		{"snm-alternatives", ssr.SNMAlternatives{Key: def, Window: 5}},
	}
	for _, red := range reductions {
		var enum []verify.Pair
		red.m.EnumeratePairs(u, func(p verify.Pair) bool {
			enum = append(enum, p)
			return true
		})
		for _, filter := range []bool{false, true} {
			for _, stop := range []int{1, 50, 0} {
				name := fmt.Sprintf("%s/prefilter=%t/stop=%d", red.name, filter, stop)
				var ref []Match
				var refStats StreamStats
				for _, workers := range []int{1, 2, 4, 8} {
					opts := base
					opts.Reduction, opts.PreFilter, opts.Workers = red.m, filter, workers
					var got []Match
					stats, err := DetectStream(u, opts, func(m Match) bool {
						got = append(got, m)
						return stop == 0 || len(got) < stop
					})
					if err != nil {
						t.Fatalf("%s workers=%d: %v", name, workers, err)
					}
					if stats.Stopped != (stop > 0) || (stop > 0 && len(got) != stop) || stats.Compared != len(got) {
						t.Fatalf("%s workers=%d: emitted %d, stats %+v", name, workers, len(got), stats)
					}
					if stats.FilterActive != filter || stats.Enumerated != stats.Compared+stats.Filtered {
						t.Fatalf("%s workers=%d: filter stats %+v", name, workers, stats)
					}
					// The stats stop at the last emitted pair, not
					// where enumeration stopped.
					wantEnum := len(enum)
					if stop > 0 {
						wantEnum = slices.Index(enum, got[len(got)-1].Pair) + 1
					}
					if stats.Enumerated != wantEnum {
						t.Fatalf("%s workers=%d: Enumerated %d, want %d", name, workers, stats.Enumerated, wantEnum)
					}
					if filter && stop == 0 && stats.Filtered == 0 {
						t.Fatalf("%s workers=%d: the pre-filter rejected nothing", name, workers)
					}
					if workers == 1 {
						ref, refStats = got, stats
						continue
					}
					if stats != refStats {
						t.Fatalf("%s: stats differ\nworkers=1: %+v\nworkers=%d: %+v", name, refStats, workers, stats)
					}
					if !slices.Equal(got, ref) {
						t.Fatalf("%s workers=%d: emitted sequence differs from workers=1", name, workers)
					}
				}
			}
		}
	}
}

// TestDetectStreamEmitsEnumerationOrder checks the worker pool against
// the reduction and one comparer, sharing no code with the pool: for
// every built-in reduction, with the pre-filter off, DetectStream emits
// exactly the pairs the reduction enumerates, in the same order, each
// with the match the comparer computes, at any worker count — no pair
// dropped, repeated, reordered or left uncompared.
func TestDetectStreamEmitsEnumerationOrder(t *testing.T) {
	u := dataset.Generate(dataset.DefaultConfig(400, 23)).Union()
	def, err := keys.ParseDef("name:2", u.Schema)
	if err != nil {
		t.Fatal(err)
	}
	reductions := map[string]ssr.Method{
		"snm-certain":           ssr.SNMCertain{Key: def, Window: 5},
		"snm-alternatives":      ssr.SNMAlternatives{Key: def, Window: 5},
		"snm-ranked":            ssr.SNMRanked{Key: def, Window: 5},
		"snm-ranked-median":     ssr.SNMRanked{Key: def, Window: 5, Strategy: ssr.MedianKey},
		"snm-multipass":         ssr.SNMMultiPass{Key: def, Window: 5, Select: ssr.TopWorlds, K: 3},
		"blocking-certain":      ssr.BlockingCertain{Key: def},
		"blocking-alternatives": ssr.BlockingAlternatives{Key: def},
		"blocking-cluster":      ssr.BlockingCluster{Key: def, K: 8, Seed: 1},
	}
	eng, err := newEngine(u, streamOptions())
	if err != nil {
		t.Fatal(err)
	}
	c := eng.newComparer()
	for name, m := range reductions {
		var want []Match
		m.EnumeratePairs(u, func(p verify.Pair) bool {
			r := c.Compare(eng.byID[p.A], eng.byID[p.B])
			want = append(want, Match{Pair: p, Sim: r.Sim, Class: r.Class})
			return true
		})
		if len(want) <= streamChunkSize {
			t.Fatalf("%s: %d pairs fit in one chunk", name, len(want))
		}
		for _, workers := range []int{1, 2, 4, 8} {
			opts := streamOptions()
			opts.Reduction, opts.Workers = m, workers
			var got []Match
			if _, err := DetectStream(u, opts, func(m Match) bool {
				got = append(got, m)
				return true
			}); err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s workers=%d: emitted %d matches, want %d, or their order or values differ",
					name, workers, len(got), len(want))
			}
		}
	}
}

// bogusMethod emits a candidate pair that references no tuple of the
// relation — the engine must fail cleanly in both modes.
type bogusMethod struct{}

func (bogusMethod) Name() string { return "bogus" }

func (bogusMethod) EnumeratePairs(_ *pdb.XRelation, yield func(verify.Pair) bool) bool {
	return yield(verify.Pair{A: "no-such-a", B: "no-such-b"})
}

func TestDetectStreamErrors(t *testing.T) {
	d := dataset.Generate(dataset.DefaultConfig(20, 23))
	u := d.Union()

	// Invalid thresholds are rejected before any work.
	if _, err := DetectStream(u, Options{Final: decision.Thresholds{Lambda: 1, Mu: 0}}, func(Match) bool { return true }); err == nil {
		t.Fatal("want threshold error")
	}

	for _, workers := range []int{1, 4} {
		opts := streamOptions()
		opts.Workers = workers
		opts.Reduction = bogusMethod{}
		_, err := DetectStream(u, opts, func(Match) bool { return true })
		if err == nil || !strings.Contains(err.Error(), "unknown tuples") {
			t.Fatalf("workers=%d: err = %v, want unknown-tuples error", workers, err)
		}
		if _, err := Detect(u, opts); err == nil {
			t.Fatalf("workers=%d: Detect must propagate the error", workers)
		}
	}
}

// TestDetectStreamTinyRelations guards the degenerate shapes: no
// pairs, fewer pairs than workers — the pipeline must terminate.
func TestDetectStreamTinyRelations(t *testing.T) {
	one := pdb.NewXRelation("one", "a").Append(pdb.NewXTuple("t", pdb.NewAlt(1, "x")))
	for _, workers := range []int{1, 8} {
		opts := Options{Final: decision.Thresholds{Lambda: 0.4, Mu: 0.7}, Workers: workers}
		stats, err := DetectStream(one, opts, func(Match) bool { return true })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if stats.Compared != 0 || stats.TotalPairs != 0 {
			t.Fatalf("workers=%d: stats %+v", workers, stats)
		}
	}
}
