// Micro-benchmarks of the hot paths. The paper's experiments (E01–E10,
// S01–S05, A01–A02) are not benchmarked here: TestGoldenExperiments
// regenerates every one of them against EXPERIMENTS.md, and end-to-end
// performance is bench/'s business (bash bench/run.sh).
//
// Run with:
//
//	go test -bench=. -benchmem
package probdedup_test

import (
	"fmt"
	"math/rand"
	"os"
	"testing"

	"probdedup"
	"probdedup/internal/paperdata"
	"probdedup/internal/ssr"
)

// ---- Streaming vs. materialized pipeline ----

// blockingBenchSetup builds a corpus large enough that the seed path's
// O(n²) cross-product allocation (TotalPairs via ssr.AllPairs) and the
// materialized result maps dominate: 1000 entities ≈ 2100 tuples ≈
// 2.2M universe pairs.
func blockingBenchSetup(b *testing.B) (*probdedup.XRelation, probdedup.Options) {
	b.Helper()
	d := probdedup.GenerateDataset(probdedup.DefaultDatasetConfig(1000, 17))
	u := d.Union()
	def, err := probdedup.ParseKeyDef("name:4+job:2", u.Schema)
	if err != nil {
		b.Fatal(err)
	}
	return u, probdedup.Options{
		Compare:   []probdedup.CompareFunc{probdedup.Levenshtein, probdedup.Levenshtein, probdedup.Levenshtein},
		Reduction: probdedup.BlockingCertain{Key: def},
		Final:     probdedup.Thresholds{Lambda: 0.6, Mu: 0.8},
		Workers:   4,
	}
}

// BenchmarkDetectBlocking1000 materializes the full Result (sorted
// Compared slice, ByPair map) — the exact-result entry point.
func BenchmarkDetectBlocking1000(b *testing.B) {
	u, opts := blockingBenchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := probdedup.Detect(u, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetectStreamBlocking1000 runs the same detection through
// the streaming engine, retaining nothing.
func BenchmarkDetectStreamBlocking1000(b *testing.B) {
	u, opts := blockingBenchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matches := 0
		if _, err := probdedup.DetectStream(u, opts, func(m probdedup.PairMatch) bool {
			if m.Class == probdedup.ClassM {
				matches++
			}
			return true
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetectStreamWorkers sweeps the worker count over the same
// blocking run: throughput should scale with the cores available.
func BenchmarkDetectStreamWorkers(b *testing.B) {
	u, opts := blockingBenchSetup(b)
	for _, workers := range []int{1, 2, 4, 8} {
		opts := opts
		opts.Workers = workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := probdedup.DetectStream(u, opts, func(probdedup.PairMatch) bool { return true }); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Micro-benchmarks of the hot paths ----

func BenchmarkAttrSimUncertain(b *testing.B) {
	a1 := probdedup.MustDist(
		probdedup.Alternative{Value: probdedup.V("machinist"), P: 0.7},
		probdedup.Alternative{Value: probdedup.V("mechanic"), P: 0.2})
	a2 := probdedup.MustDist(
		probdedup.Alternative{Value: probdedup.V("mechanist"), P: 0.8},
		probdedup.Alternative{Value: probdedup.V("engineer"), P: 0.2})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = probdedup.AttrSim(probdedup.Levenshtein, a1, a2)
	}
}

func BenchmarkTopKWorldsR34(b *testing.B) {
	xr := paperdata.R34()
	for i := 0; i < b.N; i++ {
		_ = probdedup.TopKWorlds(xr, true, 16)
	}
}

func BenchmarkDetectPaperR34(b *testing.B) {
	xr := paperdata.R34()
	opts := probdedup.Options{
		AltModel: probdedup.SimpleModel{
			Phi: probdedup.WeightedSum(0.8, 0.2),
			T:   probdedup.Thresholds{Lambda: 0.4, Mu: 0.7},
		},
		Final: probdedup.Thresholds{Lambda: 0.4, Mu: 0.7},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := probdedup.Detect(xr, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDetectSynthetic(b *testing.B) {
	d := probdedup.GenerateDataset(probdedup.DefaultDatasetConfig(60, 17))
	u := d.Union()
	def, _ := probdedup.ParseKeyDef("name:3+job:2", u.Schema)
	opts := probdedup.Options{
		Compare:   []probdedup.CompareFunc{probdedup.Levenshtein, probdedup.Levenshtein, probdedup.Levenshtein},
		Reduction: probdedup.SNMRanked{Key: def, Window: 7},
		Final:     probdedup.Thresholds{Lambda: 0.6, Mu: 0.8},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := probdedup.Detect(u, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReductionMethods(b *testing.B) {
	d := probdedup.GenerateDataset(probdedup.DefaultDatasetConfig(100, 17))
	u := d.Union()
	def, _ := probdedup.ParseKeyDef("name:3+job:2", u.Schema)
	methods := []probdedup.ReductionMethod{
		ssr.CrossProduct{},
		ssr.SNMCertain{Key: def, Window: 7},
		ssr.SNMAlternatives{Key: def, Window: 7},
		ssr.SNMRanked{Key: def, Window: 7},
		ssr.BlockingCertain{Key: def},
		ssr.BlockingAlternatives{Key: def},
		ssr.BlockingCluster{Key: def, K: 16, Seed: 1},
	}
	for _, m := range methods {
		b.Run(m.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = probdedup.Candidates(m, u)
			}
		})
	}
}

func BenchmarkExpectedRanking(b *testing.B) {
	d := probdedup.GenerateDataset(probdedup.DefaultDatasetConfig(200, 17))
	u := d.Union()
	def, _ := probdedup.ParseKeyDef("name:3+job:2", u.Schema)
	m := ssr.SNMRanked{Key: def, Window: 7}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.RankedIDs(u)
	}
}

// ---- Incremental online engine ----
//
// The cost of one online arrival and the batch-versus-incremental gap
// are bench's traced lib_snm cells (core.add_ns_per_tuple,
// core.detect_batch_s, resolve.resolve_batch_s); only the AddBatch
// worker sweeps live here.

// detectorBenchOpts configures the online engine over the synthetic
// schema. Blocking pairs an arrival with its whole block (block sizes
// grow with the corpus under a fixed key); the sorted-neighborhood
// window bounds the candidates per arrival to 2(w−1), so its Add cost
// stays flat as the resident relation grows.
func detectorBenchOpts(b *testing.B, schema []string, reduction string) probdedup.Options {
	b.Helper()
	def, err := probdedup.ParseKeyDef("name:4+job:2", schema)
	if err != nil {
		b.Fatal(err)
	}
	opts := probdedup.Options{
		Compare: []probdedup.CompareFunc{probdedup.Levenshtein, probdedup.Levenshtein, probdedup.Levenshtein},
		Final:   probdedup.Thresholds{Lambda: 0.6, Mu: 0.8},
	}
	switch reduction {
	case "blocking":
		opts.Reduction = probdedup.BlockingCertain{Key: def}
	case "snm":
		opts.Reduction = probdedup.SNMCertain{Key: def, Window: 4}
	default:
		b.Fatalf("unknown reduction %q", reduction)
	}
	return opts
}

// detectorBenchCorpus returns n resident tuples plus a pool of fresh
// arrivals with the same value distribution.
func detectorBenchCorpus(b *testing.B, n int) (resident, pool []*probdedup.XTuple, schema []string) {
	b.Helper()
	d := probdedup.GenerateDataset(probdedup.DefaultDatasetConfig(n, 29))
	u := d.Union()
	if len(u.Tuples) <= n {
		b.Fatalf("corpus too small: %d tuples for %d residents", len(u.Tuples), n)
	}
	return u.Tuples[:n], u.Tuples[n:], u.Schema
}

// BenchmarkDetectorAddBatch measures online ingestion throughput at a
// fixed resident size: each iteration feeds one 256-tuple batch of
// fresh arrivals through AddBatch — the unit the -follow read-ahead
// loop produces under sustained traffic — and retires it again outside
// the timer. The workers sweep documents the parallel verification
// phase: at 4 workers the comparisons of a batch's net-new pairs fan
// out while state updates and delta emission stay sequential, so
// tuples/s scales with the cores actually available (GOMAXPROCS; on a
// single-core machine the sweep documents that the fan-out costs
// nothing) and classifications stay identical
// (TestDetectorWorkersDoNotChangeDeltaStream). Without the opt-in
// similarity memo every pair pays its real comparison cost, as it
// would with genuinely new user data.
func BenchmarkDetectorAddBatch(b *testing.B) {
	const batchSize = 256
	for _, reduction := range []string{"blocking", "snm"} {
		for _, n := range []int{1000, 10000} {
			for _, workers := range []int{1, 4} {
				b.Run(fmt.Sprintf("%s/resident=%d/workers=%d", reduction, n, workers), func(b *testing.B) {
					resident, pool, schema := detectorBenchCorpus(b, n)
					opts := detectorBenchOpts(b, schema, reduction)
					opts.Workers = workers
					det, err := probdedup.NewDetector(schema, opts, nil)
					if err != nil {
						b.Fatal(err)
					}
					if err := det.AddBatch(resident); err != nil {
						b.Fatal(err)
					}
					batch := make([]*probdedup.XTuple, batchSize)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						for j := range batch {
							x := pool[(i*batchSize+j)%len(pool)].Clone()
							x.ID = fmt.Sprintf("arrival-%d-%d", i, j)
							batch[j] = x
						}
						if err := det.AddBatch(batch); err != nil {
							b.Fatal(err)
						}
						b.StopTimer()
						for j := range batch {
							if err := det.Remove(batch[j].ID); err != nil {
								b.Fatal(err)
							}
						}
						b.StartTimer()
					}
					b.ReportMetric(float64(batchSize)*float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
				})
			}
		}
	}
}

// skewedBenchCorpus builds a skewed-key corpus (the shape bench's
// serve_skew workload drives end to end): long random fields under a
// blocking key
// that concentrates half the tuples in hot blocks of ~192 members, so
// every arrival is enumerated against hundreds of candidates of which
// almost none can reach the decision threshold. A small duplicate
// fraction keeps real matches flowing.
func skewedBenchCorpus(n, arrivals int, seed int64) (resident, pool []*probdedup.XTuple, schema []string) {
	const (
		hotBlock  = 192
		coldBlock = 16
	)
	rng := rand.New(rand.NewSource(seed))
	hotBlocks := n / 2 / hotBlock
	if hotBlocks < 1 {
		hotBlocks = 1
	}
	word := func() string {
		b := make([]byte, 36+rng.Intn(25))
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return string(b)
	}
	var prevName, prevJob, prevBlock string
	mk := func(id int, block string) *probdedup.XTuple {
		xid := fmt.Sprintf("t%07d", id)
		if prevName != "" && prevBlock == block && rng.Float64() < 0.02 {
			prevName += "x"
			return probdedup.NewXTuple(xid, probdedup.NewAlt(1, prevName, prevJob, block))
		}
		prevName, prevJob, prevBlock = word(), word(), block
		return probdedup.NewXTuple(xid, probdedup.NewAlt(1, prevName, prevJob, block))
	}
	schema = []string{"name", "job", "block"}
	for i := 0; i < n; i++ {
		block := fmt.Sprintf("c%07d", (i-n/2)/coldBlock)
		if i < n/2 {
			block = fmt.Sprintf("h%07d", i/hotBlock)
		}
		resident = append(resident, mk(i, block))
	}
	for i := 0; i < arrivals; i++ {
		pool = append(pool, mk(n+i, fmt.Sprintf("h%07d", rng.Intn(hotBlocks))))
	}
	return resident, pool, schema
}

// skewedBenchOpts is the scale-suite configuration: blocking on the
// skewed key, Levenshtein everywhere, thresholds wide enough for the
// q-gram count filter to prove non-duplicates out. No similarity memo
// (the default): every verified pair pays its comparison, which is
// what the prefilter dimension saves.
func skewedBenchOpts(b *testing.B, schema []string, workers int, filtered bool) probdedup.Options {
	b.Helper()
	def, err := probdedup.ParseKeyDef("block:8", schema)
	if err != nil {
		b.Fatal(err)
	}
	return probdedup.Options{
		Compare:   []probdedup.CompareFunc{probdedup.Levenshtein, probdedup.Levenshtein, probdedup.Levenshtein},
		Reduction: probdedup.BlockingCertain{Key: def},
		Final:     probdedup.Thresholds{Lambda: 0.75, Mu: 0.9},
		Workers:   workers,
		PreFilter: filtered,
	}
}

// BenchmarkDetectorAddBatchSkewed is BenchmarkDetectorAddBatch on the
// skewed corpus with the candidate pre-filter as a sweep dimension:
// the prefilter=true/false pairs at equal size and workers measure
// what constant-time rejection from precomputed symbol statistics buys
// when verification cost dominates (end to end, bench's serve_skew
// workload reports it as core.filtered_share; classifications are
// identical by the filter's soundness contract, enforced by
// TestPreFilterEquivalence). The 1000-resident size keeps the CI
// smoke affordable; set PDBENCH_LARGE=1 to sweep 10k and 100k too.
func BenchmarkDetectorAddBatchSkewed(b *testing.B) {
	const batchSize = 256
	sizes := []int{1000}
	if os.Getenv("PDBENCH_LARGE") != "" {
		sizes = append(sizes, 10000, 100000)
	}
	for _, n := range sizes {
		for _, filtered := range []bool{false, true} {
			for _, workers := range []int{1, 4} {
				b.Run(fmt.Sprintf("resident=%d/prefilter=%t/workers=%d", n, filtered, workers), func(b *testing.B) {
					resident, pool, schema := skewedBenchCorpus(n, batchSize, 42)
					det, err := probdedup.NewDetector(schema, skewedBenchOpts(b, schema, workers, filtered), nil)
					if err != nil {
						b.Fatal(err)
					}
					if err := det.AddBatch(resident); err != nil {
						b.Fatal(err)
					}
					batch := make([]*probdedup.XTuple, batchSize)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						for j := range batch {
							x := pool[j].Clone()
							x.ID = fmt.Sprintf("arrival-%d-%d", i, j)
							batch[j] = x
						}
						if err := det.AddBatch(batch); err != nil {
							b.Fatal(err)
						}
						b.StopTimer()
						for j := range batch {
							if err := det.Remove(batch[j].ID); err != nil {
								b.Fatal(err)
							}
						}
						b.StartTimer()
					}
					b.ReportMetric(float64(batchSize)*float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
				})
			}
		}
	}
}
