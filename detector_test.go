package probdedup_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"probdedup"
	"probdedup/internal/shard"
)

// TestPublicDetectorMatchesDetectStream exercises the exported
// incremental surface end to end: Add-one-at-a-time over a shuffled
// synthetic relation reproduces the M and P pairs of the batch
// streaming engine, through the public API.
func TestPublicDetectorMatchesDetectStream(t *testing.T) {
	d := probdedup.GenerateDataset(probdedup.DefaultDatasetConfig(30, 41))
	u := d.Union()
	rng := rand.New(rand.NewSource(42))
	rng.Shuffle(len(u.Tuples), func(i, j int) {
		u.Tuples[i], u.Tuples[j] = u.Tuples[j], u.Tuples[i]
	})
	def, err := probdedup.ParseKeyDef("name:3+job:2", u.Schema)
	if err != nil {
		t.Fatal(err)
	}
	opts := probdedup.Options{
		Compare:   []probdedup.CompareFunc{probdedup.Levenshtein, probdedup.Levenshtein, probdedup.Levenshtein},
		Reduction: probdedup.SNMCertain{Key: def, Window: 5},
		Final:     probdedup.Thresholds{Lambda: 0.6, Mu: 0.8},
		Workers:   4,
	}

	batch := map[probdedup.Pair]probdedup.PairMatch{}
	if _, err := probdedup.DetectStream(u, opts, func(m probdedup.PairMatch) bool {
		if m.Class != probdedup.ClassU {
			batch[m.Pair] = m
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}

	det, err := probdedup.NewDetector(u.Schema, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range u.Tuples {
		if err := det.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	res := det.Flush()
	if len(res.Compared) != len(batch) {
		t.Fatalf("incremental compared %d pairs, batch %d", len(res.Compared), len(batch))
	}
	for p, bm := range batch {
		im, ok := res.ByPair[p]
		if !ok {
			t.Fatalf("pair %v missing from incremental result", p)
		}
		if im.Sim != bm.Sim || im.Class != bm.Class {
			t.Fatalf("pair %v: incremental (%v,%v) vs batch (%v,%v)", p, im.Sim, im.Class, bm.Sim, bm.Class)
		}
	}
}

// TestPublicDetectorAddBatchParallel drives the parallel online
// ingestion path through the exported surface: AddBatch with
// Workers=4 over a shuffled synthetic relation compares every pair the
// batch streaming engine compares and keeps exactly its M and P pairs.
func TestPublicDetectorAddBatchParallel(t *testing.T) {
	d := probdedup.GenerateDataset(probdedup.DefaultDatasetConfig(30, 43))
	u := d.Union()
	rng := rand.New(rand.NewSource(44))
	rng.Shuffle(len(u.Tuples), func(i, j int) {
		u.Tuples[i], u.Tuples[j] = u.Tuples[j], u.Tuples[i]
	})
	def, err := probdedup.ParseKeyDef("name:4+job:2", u.Schema)
	if err != nil {
		t.Fatal(err)
	}
	opts := probdedup.Options{
		Compare:   []probdedup.CompareFunc{probdedup.Levenshtein, probdedup.Levenshtein, probdedup.Levenshtein},
		Reduction: probdedup.BlockingCertain{Key: def},
		Final:     probdedup.Thresholds{Lambda: 0.6, Mu: 0.8},
		Workers:   4,
	}
	batch := map[probdedup.Pair]probdedup.PairMatch{}
	stats, err := probdedup.DetectStream(u, opts, func(m probdedup.PairMatch) bool {
		if m.Class != probdedup.ClassU {
			batch[m.Pair] = m
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	det, err := probdedup.NewDetector(u.Schema, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.AddBatch(u.Tuples); err != nil {
		t.Fatal(err)
	}
	if got := det.Stats().Compared; got != stats.Compared {
		t.Fatalf("parallel AddBatch made %d comparisons, batch %d", got, stats.Compared)
	}
	res := det.Flush()
	if len(res.Compared) != len(batch) {
		t.Fatalf("parallel AddBatch compared %d pairs, batch %d", len(res.Compared), len(batch))
	}
	for p, bm := range batch {
		im, ok := res.ByPair[p]
		if !ok {
			t.Fatalf("pair %v missing from incremental result", p)
		}
		if im.Sim != bm.Sim || im.Class != bm.Class {
			t.Fatalf("pair %v: incremental (%v,%v) vs batch (%v,%v)", p, im.Sim, im.Class, bm.Sim, bm.Class)
		}
	}
}

// TestPublicDetectorErrors exercises the exported typed errors: a
// failing AddBatch surfaces a *DetectorBatchError with the failing
// position and the successful-prefix residency, and Remove of an
// unknown ID wraps ErrUnknownID.
func TestPublicDetectorErrors(t *testing.T) {
	schema := []string{"name", "job"}
	det, err := probdedup.NewDetector(schema, probdedup.Options{
		Final: probdedup.Thresholds{Lambda: 0.4, Mu: 0.7},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = det.AddBatch([]*probdedup.XTuple{
		probdedup.NewXTuple("a", probdedup.NewAlt(1, "Tim", "pilot")),
		probdedup.NewXTuple("bad", probdedup.NewAlt(1, "only-one")),
		probdedup.NewXTuple("c", probdedup.NewAlt(1, "Tom", "baker")),
	})
	var be *probdedup.DetectorBatchError
	if !errors.As(err, &be) {
		t.Fatalf("error %v (%T) is not a *DetectorBatchError", err, err)
	}
	if be.Index != 1 {
		t.Fatalf("BatchError.Index = %d, want 1", be.Index)
	}
	if det.Len() != 1 {
		t.Fatalf("residents = %d, want the successful prefix 1", det.Len())
	}
	if err := det.Remove("never-added"); !errors.Is(err, probdedup.ErrUnknownID) {
		t.Fatalf("error %v does not wrap ErrUnknownID", err)
	}
}

// batchOnlyReduction is a user-defined reduction without incremental
// support; NewIncrementalIndex must reject it with ErrNotIncremental.
type batchOnlyReduction struct{}

func (batchOnlyReduction) Name() string { return "batch-only" }
func (batchOnlyReduction) EnumeratePairs(*probdedup.XRelation, func(probdedup.Pair) bool) bool {
	return true
}

// TestPublicIncrementalIndex checks the exported index constructor:
// every built-in method yields a working index (BlockingCluster on
// the bounded-staleness tier), and a user-defined method without
// incremental support fails with ErrNotIncremental.
func TestPublicIncrementalIndex(t *testing.T) {
	idx, err := probdedup.NewIncrementalIndex(nil)
	if err != nil {
		t.Fatal(err)
	}
	added := 0
	idx.Insert(probdedup.NewXTuple("a", probdedup.NewAlt(1, "Tim")), func(probdedup.CandidatePairDelta) bool { return true })
	idx.Insert(probdedup.NewXTuple("b", probdedup.NewAlt(1, "Tom")), func(d probdedup.CandidatePairDelta) bool {
		added++
		return true
	})
	if added != 1 || idx.Len() != 2 {
		t.Fatalf("cross index: %d deltas, Len %d", added, idx.Len())
	}
	def, err := probdedup.ParseKeyDef("name:3", []string{"name"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := probdedup.NewIncrementalIndex(probdedup.SNMRanked{Key: def, Window: 3}); err != nil {
		t.Fatalf("SNMRanked is incrementally maintainable, got error %v", err)
	}
	cidx, err := probdedup.NewIncrementalIndex(probdedup.BlockingCluster{Key: def, K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cidx.(probdedup.EpochIndex); !ok {
		t.Fatalf("BlockingCluster index is not an EpochIndex: %T", cidx)
	}
	_, err = probdedup.NewIncrementalIndex(batchOnlyReduction{})
	if !errors.Is(err, probdedup.ErrNotIncremental) {
		t.Fatalf("error %v does not wrap ErrNotIncremental", err)
	}
}

// TestPublicDetectorPrunedCrossProduct: the length-pruned cross
// product, NewReductionFilter(nil, p), works online like every other
// built-in reduction — NewDetector accepts it and its Flush equals
// batch Detect's M and P pairs.
func TestPublicDetectorPrunedCrossProduct(t *testing.T) {
	u := probdedup.GenerateDataset(probdedup.DefaultDatasetConfig(20, 5)).Union()
	red := probdedup.NewReductionFilter(nil, probdedup.Pruning{MaxDiff: map[int]int{0: 2}})
	if red.Name() != "cross-product+pruned" {
		t.Fatalf("pruned cross product named %q", red.Name())
	}
	opts := probdedup.Options{
		Compare:   []probdedup.CompareFunc{probdedup.Levenshtein, probdedup.Levenshtein, probdedup.Levenshtein},
		Reduction: red,
		Final:     probdedup.Thresholds{Lambda: 0.6, Mu: 0.8},
	}
	batch, err := probdedup.Detect(u, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Matches) == 0 {
		t.Fatal("corpus yields no match to compare")
	}
	det, err := probdedup.NewDetector(u.Schema, opts, nil)
	if err != nil {
		t.Fatalf("NewDetector refused the pruned cross product: %v", err)
	}
	if err := det.AddBatch(u.Tuples); err != nil {
		t.Fatal(err)
	}
	res := det.Flush()
	if len(res.Matches) != len(batch.Matches) || len(res.Possible) != len(batch.Possible) {
		t.Fatalf("online M=%d P=%d, batch M=%d P=%d",
			len(res.Matches), len(res.Possible), len(batch.Matches), len(batch.Possible))
	}
	for p := range batch.Matches {
		if !res.Matches[p] {
			t.Fatalf("match %v missing online", p)
		}
	}
	for p := range batch.Possible {
		if !res.Possible[p] {
			t.Fatalf("possible %v missing online", p)
		}
	}
}

// TestMemoOffByDefault: with default Options no engine builds the
// similarity memo, so every memo counter reads 0 while pairs are
// compared, and CacheCapacity, the memo's opt-in, refuses a negative
// value at every entry point instead of reading it as "off".
func TestMemoOffByDefault(t *testing.T) {
	u := probdedup.GenerateDataset(probdedup.DefaultDatasetConfig(30, 1)).Union()
	def, err := probdedup.ParseKeyDef("name:3", u.Schema)
	if err != nil {
		t.Fatal(err)
	}
	// Each entry point builds its engine, takes every tuple and reports
	// its memo counters and compared-pair count.
	entries := map[string]func(probdedup.Options) (probdedup.SimCacheStats, int, error){
		"Detect": func(opts probdedup.Options) (probdedup.SimCacheStats, int, error) {
			_, st, err := probdedup.DetectWithStats(u, opts)
			return st.Cache, st.Compared, err
		},
		"NewDetector": func(opts probdedup.Options) (probdedup.SimCacheStats, int, error) {
			det, err := probdedup.NewDetector(u.Schema, opts, nil)
			if err != nil {
				return probdedup.SimCacheStats{}, 0, err
			}
			err = det.AddBatch(u.Tuples)
			st := det.Stats()
			return st.Cache, st.Compared, err
		},
		"NewIntegrator": func(opts probdedup.Options) (probdedup.SimCacheStats, int, error) {
			ig, err := probdedup.NewIntegrator(u.Schema, opts, nil)
			if err != nil {
				return probdedup.SimCacheStats{}, 0, err
			}
			err = ig.AddBatch(u.Tuples)
			st := ig.Stats().Detector
			return st.Cache, st.Compared, err
		},
		"OpenDurable": func(opts probdedup.Options) (probdedup.SimCacheStats, int, error) {
			dd, err := probdedup.OpenDurable(t.TempDir(), u.Schema, opts, nil)
			if err != nil {
				return probdedup.SimCacheStats{}, 0, err
			}
			err = dd.AddBatch(u.Tuples)
			st := dd.Stats()
			return st.Cache, st.Compared, errors.Join(err, dd.Close())
		},
		"shard.Open": func(opts probdedup.Options) (probdedup.SimCacheStats, int, error) {
			r, err := shard.Open(shard.Config{Shards: 3, Schema: u.Schema, Opts: opts})
			if err != nil {
				return probdedup.SimCacheStats{}, 0, err
			}
			for _, x := range u.Tuples {
				err = errors.Join(err, r.Ingest(x))
			}
			err = errors.Join(err, r.Drain())
			st := r.Stats()
			for _, ss := range st.PerShard {
				if ss.Detector.Cache != (probdedup.SimCacheStats{}) {
					err = errors.Join(err, fmt.Errorf("shard %d memo counters %+v", ss.Shard, ss.Detector.Cache))
				}
			}
			return st.Detector.Cache, st.Detector.Compared, errors.Join(err, r.Close())
		},
	}
	opts := probdedup.Options{
		Compare:   []probdedup.CompareFunc{probdedup.Levenshtein, probdedup.Levenshtein, probdedup.Levenshtein},
		Reduction: probdedup.BlockingCertain{Key: def},
		Final:     probdedup.Thresholds{Lambda: 0.6, Mu: 0.8},
	}
	for name, run := range entries {
		cache, compared, err := run(opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if compared == 0 || cache != (probdedup.SimCacheStats{}) {
			t.Errorf("%s with default Options: compared %d, memo counters %+v, want pairs compared and no memo", name, compared, cache)
		}
		neg := opts
		neg.CacheCapacity = -1
		if _, _, err := run(neg); err == nil {
			t.Errorf("%s accepted CacheCapacity -1", name)
		}
	}
}
