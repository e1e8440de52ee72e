package core

import (
	"fmt"
	"sync"

	"probdedup/internal/avm"
	"probdedup/internal/decision"
	"probdedup/internal/pdb"
	"probdedup/internal/prepare"
	"probdedup/internal/ssr"
	"probdedup/internal/strsim"
	"probdedup/internal/sym"
	"probdedup/internal/verify"
	"probdedup/internal/xmatch"
)

// streamBatchSize is the number of candidate pairs per unit of work
// handed to the matching workers. Batching amortizes channel traffic;
// the value trades scheduling overhead against load-balancing grain.
const streamBatchSize = 128

// StreamStats summarizes a DetectStream run.
type StreamStats struct {
	// Compared counts the candidate pairs emitted.
	Compared int
	// Matches and Possible count the pairs classified M and P.
	Matches, Possible int
	// TotalPairs is the unreduced search-space size n(n-1)/2, computed
	// arithmetically — the full cross product is never materialized.
	TotalPairs int
	// Partitions is the number of independent blocks fanned out when
	// the reduction partitions its search space and the run is
	// parallel; 0 otherwise.
	Partitions int
	// Stopped reports that the emit callback ended the run early.
	Stopped bool
	// Cache holds the end-of-run counters of the shared similarity
	// cache — entries, capacity, hits, misses, evictions (zero value
	// when memoization was disabled via Options.CacheCapacity < 0).
	Cache avm.CacheStats
	// Enumerated counts the candidate pairs the reduction produced:
	// Compared plus Filtered (pairs the run did not reach after an
	// early stop are not counted).
	Enumerated int
	// Filtered counts the enumerated pairs the pre-filter rejected as
	// provable non-matches (0 when the filter is off or inert).
	Filtered int
	// FilterActive reports whether the candidate pre-filter was
	// constructed and consulted (Options.PreFilter set and the
	// configuration boundable).
	FilterActive bool
}

// engine is the validated, defaulted configuration shared by the
// streaming and the materializing entry points.
type engine struct {
	xr *pdb.XRelation
	// byID indexes xr's tuples for the batch entry points. A Detector's
	// relation starts empty and stays so: its residents live in its
	// pairTable.
	byID        map[string]*pdb.XTuple
	reduction   ssr.Method
	newComparer func() *xmatch.Comparer
	workers     int
	// cache is the run's shared similarity memo (nil when disabled);
	// every worker's matcher writes into and reads from it.
	cache *avm.Cache
	// symtab is the run's symbol plane: every standardized value is
	// interned once and annotated with its dense symbol.
	symtab *sym.Table
	// filter is the sound candidate pre-filter (nil when off or when
	// the configuration cannot be bounded).
	filter *ssr.PreFilter
}

// newEngine validates the options and applies the defaults documented
// on Options (steps A and the step-C prerequisites of the pipeline).
func newEngine(xr *pdb.XRelation, opts Options) (*engine, error) {
	if err := xr.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := opts.Final.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	// Step A: data preparation.
	if opts.Standardizer != nil {
		xr = opts.Standardizer.XRelation(xr)
	}

	// The run-wide symbol plane: intern every standardized value so the
	// similarity cache keys value pairs by symbol and the pre-filter
	// reads precomputed stats. Gram statistics are only computed when
	// the pre-filter consumes them. Without a Standardizer the relation
	// is still the caller's — clone before the interning pass replaces
	// value annotations. A detector's relation starts empty; its
	// arrivals are interned in prepareTuple.
	q := 0
	if opts.PreFilter {
		q = opts.FilterQ
		if q <= 0 {
			q = 2
		}
	}
	symtab := sym.NewTable(q)
	if opts.Standardizer == nil {
		xr = xr.Clone()
	}
	prepare.InternXRelation(symtab, xr)

	// Step C prerequisites: comparison functions.
	compare := opts.Compare
	if len(compare) == 0 {
		compare = make([]strsim.Func, len(xr.Schema))
		for i := range compare {
			compare[i] = strsim.NormalizedHamming
		}
	}
	if len(compare) != len(xr.Schema) {
		return nil, fmt.Errorf("core: %d comparison functions for %d attributes", len(compare), len(xr.Schema))
	}

	altModel := opts.AltModel
	if altModel == nil {
		// The explicit weighted-sum model is bit-identical to
		// SimpleModel{Phi: WeightedSum(equal weights)} and, unlike the
		// closure, exposes its structure to the pre-filter's bounds.
		altModel = decision.WeightedSumModel{
			Weights: decision.EqualWeights(len(xr.Schema)),
			T:       opts.Final,
		}
	}
	// Reject weight/schema arity mismatches here instead of letting them
	// skew (or panic in) every comparison.
	if err := decision.ValidateArity(altModel, len(xr.Schema)); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	derive := opts.Derivation
	if derive == nil {
		derive = xmatch.SimilarityBased{Conditioned: true}
	}

	byID := make(map[string]*pdb.XTuple, len(xr.Tuples))
	for _, x := range xr.Tuples {
		byID[x.ID] = x
	}

	var reduction ssr.Method = opts.Reduction
	if reduction == nil {
		reduction = ssr.CrossProduct{}
	}
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}

	// One bounded similarity cache per run, shared by every worker's
	// matcher: total memo memory is capped by CacheCapacity no matter
	// how many workers run, and a value pair computed by one worker is
	// a hit for all others.
	var cache *avm.Cache
	if opts.CacheCapacity >= 0 {
		cache = avm.NewCache(opts.CacheCapacity)
	}

	// The candidate pre-filter: constructed only when the configuration
	// is provably boundable (explicit model, boundable derivation,
	// ⊥ similarities in [0,1]); otherwise the run proceeds unfiltered
	// and the stats report FilterActive=false.
	var filter *ssr.PreFilter
	if opts.PreFilter {
		nulls := avm.PaperNulls
		if opts.Nulls != nil {
			nulls = *opts.Nulls
		}
		filter, _ = ssr.NewPreFilter(ssr.PreFilterConfig{
			Table:  symtab,
			Funcs:  compare,
			Model:  altModel,
			Derive: derive,
			Lambda: opts.Final.Lambda,
			Nulls:  nulls,
		})
		if filter != nil {
			for _, x := range xr.Tuples {
				filter.Insert(x)
			}
		}
	}

	return &engine{
		xr:        xr,
		byID:      byID,
		reduction: reduction,
		workers:   workers,
		cache:     cache,
		symtab:    symtab,
		filter:    filter,
		newComparer: func() *xmatch.Comparer {
			m := avm.NewMatcherWithCache(cache, compare...)
			m.Nulls = opts.Nulls
			return &xmatch.Comparer{
				Matcher:  m,
				AltModel: altModel,
				Derive:   derive,
				Final:    opts.Final,
			}
		},
	}, nil
}

// compare matches one candidate pair, or fails when the pair references
// tuples outside the relation.
func (e *engine) compare(c *xmatch.Comparer, p verify.Pair) (Match, error) {
	x1, ok1 := e.byID[p.A]
	x2, ok2 := e.byID[p.B]
	if !ok1 || !ok2 {
		return Match{}, unknownTuples(p)
	}
	return compareTuples(c, p, x1, x2), nil
}

// compareTuples matches the pair p of the tuples x1 and x2.
func compareTuples(c *xmatch.Comparer, p verify.Pair, x1, x2 *pdb.XTuple) Match {
	r := c.Compare(x1, x2)
	return Match{Pair: p, Sim: r.Sim, Class: r.Class}
}

// unknownTuples is the error of a candidate pair naming a tuple outside
// the relation, which only a misbehaving user-defined reduction yields.
func unknownTuples(p verify.Pair) error {
	return fmt.Errorf("core: candidate pair %v references unknown tuples", p)
}

// DetectStream runs the pipeline over an x-relation and emits each
// compared pair's Match through the callback, without retaining the
// candidate set or the results: candidate pairs are enumerated
// incrementally (see ssr.Streamer), batched through the worker pool,
// and discarded after emission. The engine itself holds no per-pair
// state, so with the blocking variants, cross product, SNMCertain,
// SNMRanked and pruning, memory stays proportional to the relation;
// SNMMultiPass and SNMAlternatives additionally keep their
// executed-matching set while enumerating, and reduction methods
// without streaming support are adapted by materializing their
// candidate set once.
//
// emit is always called sequentially from the caller's goroutine; it
// returns false to stop the run early (Stopped is then set in the
// stats). With Options.Workers > 1 the emission order is unspecified;
// a sequential run emits in the reduction method's enumeration order.
// Classifications are identical to Detect in either case. When the
// reduction partitions its search space (the blocking variants), a
// parallel run fans out block by block so partitions are enumerated
// and compared concurrently.
//
// On error the already-emitted matches stand, the stats cover the work
// done so far, and the error is returned.
func DetectStream(xr *pdb.XRelation, opts Options, emit func(Match) bool) (StreamStats, error) {
	eng, err := newEngine(xr, opts)
	if err != nil {
		return StreamStats{}, err
	}
	stats := StreamStats{TotalPairs: ssr.TotalPairs(len(eng.xr.Tuples))}
	if eng.workers <= 1 {
		err = eng.runSequential(&stats, emit)
	} else {
		err = eng.runParallel(&stats, emit)
	}
	if eng.cache != nil {
		stats.Cache = eng.cache.Stats()
	}
	if eng.filter != nil {
		stats.FilterActive = true
		stats.Filtered = int(eng.filter.Stats().Filtered)
	}
	stats.Enumerated = stats.Compared + stats.Filtered
	return stats, err
}

// count tallies one emitted match into the stats.
func (s *StreamStats) count(m Match) {
	s.Compared++
	switch m.Class {
	case decision.M:
		s.Matches++
	case decision.P:
		s.Possible++
	}
}

// runSequential streams candidates straight through one comparer on
// the caller's goroutine.
func (e *engine) runSequential(stats *StreamStats, emit func(Match) bool) error {
	comparer := e.newComparer()
	var err error
	ssr.StreamOf(e.reduction).EnumeratePairs(e.xr, func(p verify.Pair) bool {
		if e.filter != nil && !e.filter.Admit(p) {
			return true // provably class U: skip verification
		}
		var m Match
		if m, err = e.compare(comparer, p); err != nil {
			return false
		}
		stats.count(m)
		if !emit(m) {
			stats.Stopped = true
			return false
		}
		return true
	})
	return err
}

// runParallel builds the batched pipeline: producers enumerate
// candidate pairs (one per partition for partitioned reductions),
// workers match-and-decide batches, and the caller's goroutine
// collects results and emits them.
func (e *engine) runParallel(stats *StreamStats, emit func(Match) bool) error {
	stop := make(chan struct{})
	var stopOnce sync.Once
	cancel := func() { stopOnce.Do(func() { close(stop) }) }

	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		cancel()
	}
	failed := func() bool {
		errMu.Lock()
		defer errMu.Unlock()
		return firstErr != nil
	}

	batches := make(chan []verify.Pair, 2*e.workers)
	results := make(chan []Match, 2*e.workers)

	// sendBatch hands a full batch to the workers unless the run was
	// canceled; it reports whether production should continue.
	sendBatch := func(batch []verify.Pair) bool {
		select {
		case batches <- batch:
			return true
		case <-stop:
			return false
		}
	}

	// Producers: partition fan-out when the reduction supports it, a
	// single enumerator otherwise.
	var prodWg sync.WaitGroup
	produce := func(enumerate func(yield func(verify.Pair) bool) bool) {
		defer prodWg.Done()
		batch := make([]verify.Pair, 0, streamBatchSize)
		enumerate(func(p verify.Pair) bool {
			// Filter at the producer: rejected pairs never enter a
			// batch, so workers and channels only see pairs that need
			// real verification (Admit is safe for concurrent use).
			if e.filter != nil && !e.filter.Admit(p) {
				return true
			}
			batch = append(batch, p)
			if len(batch) == streamBatchSize {
				if !sendBatch(batch) {
					return false
				}
				batch = make([]verify.Pair, 0, streamBatchSize)
			}
			return true
		})
		if len(batch) > 0 {
			sendBatch(batch)
		}
	}
	if part, ok := e.reduction.(ssr.Partitioner); ok {
		parts := part.Partitions(e.xr)
		stats.Partitions = len(parts)
		partCh := make(chan ssr.Partition, len(parts))
		for _, p := range parts {
			partCh <- p
		}
		close(partCh)
		producers := e.workers
		if producers > len(parts) {
			producers = len(parts)
		}
		for i := 0; i < producers; i++ {
			prodWg.Add(1)
			go produce(func(yield func(verify.Pair) bool) bool {
				for p := range partCh {
					if !p.Enumerate(yield) {
						return false
					}
				}
				return true
			})
		}
	} else {
		prodWg.Add(1)
		stream := ssr.StreamOf(e.reduction)
		go produce(func(yield func(verify.Pair) bool) bool {
			return stream.EnumeratePairs(e.xr, yield)
		})
	}
	go func() {
		prodWg.Wait()
		close(batches)
	}()

	// Workers: match and decide batches; each worker owns its comparer
	// (the fold scratch is not shareable) while all matchers memoize
	// into the engine's shared cache. Comparison functions are
	// deterministic, so results are identical to a sequential run.
	var workWg sync.WaitGroup
	for w := 0; w < e.workers; w++ {
		workWg.Add(1)
		go func() {
			defer workWg.Done()
			comparer := e.newComparer()
			for batch := range batches {
				out := make([]Match, 0, len(batch))
				for _, p := range batch {
					m, err := e.compare(comparer, p)
					if err != nil {
						fail(err)
						return
					}
					out = append(out, m)
				}
				select {
				case results <- out:
				case <-stop:
					return
				}
			}
		}()
	}
	go func() {
		workWg.Wait()
		close(results)
	}()

	// Collector: the caller's goroutine emits sequentially. After an
	// error or an early stop the remaining results are drained so the
	// pipeline goroutines can exit.
	for out := range results {
		if stats.Stopped || failed() {
			continue
		}
		for _, m := range out {
			stats.count(m)
			if !emit(m) {
				stats.Stopped = true
				cancel()
				break
			}
		}
	}
	prodWg.Wait()
	return firstErr
}
