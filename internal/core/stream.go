package core

import (
	"fmt"
	"sync"
	"sync/atomic"

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

// streamChunkSize bounds the candidate pairs DetectStream holds: it
// enumerates this many, verifies them through the worker pool, emits
// them and starts over. The value trades the pool's per-chunk start-up
// against the pairs verified past an early stop.
const streamChunkSize = 1024

// minParallelCompares is the job count below which the worker pool
// stays on the caller's goroutine: per-arrival candidate sets (a
// window, a small block) are cheaper to compare inline than to fan
// out.
const minParallelCompares = 32

// StreamStats summarizes a DetectStream run.
type StreamStats struct {
	// Compared counts the candidate pairs emitted.
	Compared int
	// Matches and Possible count the pairs classified M and P.
	Matches, Possible int
	// TotalPairs is the unreduced search-space size n(n-1)/2, computed
	// arithmetically — the full cross product is never materialized.
	TotalPairs int
	// Stopped reports that the emit callback ended the run early.
	Stopped bool
	// Cache holds the end-of-run counters of the similarity memo —
	// entries, capacity, hits, misses, evictions (zero value unless
	// Options.CacheCapacity opted in).
	Cache avm.CacheStats
	// Enumerated counts the candidate pairs the reduction produced up
	// to the last emitted pair: Compared plus Filtered.
	Enumerated int
	// Filtered counts the pairs the pre-filter rejected as provable
	// non-matches before the last emitted pair, or in the whole run
	// when it was not stopped (0 when the filter is off or inert).
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
	// cache is the run's opt-in similarity memo (nil by default);
	// every worker's matcher writes into and reads from it.
	cache *avm.Cache
	// symtab is the run's symbol plane: every standardized value is
	// interned once and annotated with its dense symbol.
	symtab *sym.Table
	// filter is the sound candidate pre-filter (nil when off or when
	// the configuration cannot be bounded).
	filter *ssr.PreFilter
	// comparers is compareAll's lazily grown per-worker comparer pool,
	// guarded by whoever serializes the calls.
	comparers []*xmatch.Comparer
	// stopAtU lets the comparers stop verifying a pair once class U is
	// proven (xmatch.Comparer.StopAtU). Only a Detector sets it: it
	// keeps nothing of a U outcome, while batch detection reports every
	// similarity in full.
	stopAtU bool
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
	if opts.CacheCapacity < 0 {
		return nil, fmt.Errorf("core: negative CacheCapacity %d (0 means no memo)", opts.CacheCapacity)
	}
	if opts.FilterQ < 0 {
		return nil, fmt.Errorf("core: negative FilterQ %d (0 means the default gram size 2)", opts.FilterQ)
	}
	if opts.Nulls != nil && !opts.Nulls.InUnit() {
		return nil, fmt.Errorf("core: ⊥ similarities %+v outside [0,1]", *opts.Nulls)
	}

	// Step A: data preparation.
	if opts.Standardizer != nil {
		xr = opts.Standardizer.XRelation(xr)
	}

	// The run-wide symbol plane: intern every standardized value so an
	// opted-in similarity memo keys value pairs by symbol and the
	// pre-filter reads precomputed stats. Gram statistics are only
	// computed when the pre-filter consumes them. Without a
	// Standardizer the relation is still the caller's — clone before
	// the interning pass replaces value annotations. A detector's
	// relation starts empty; its arrivals are interned in prepareTuple.
	q := 0
	if opts.PreFilter {
		q = opts.FilterQ
		if q == 0 {
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
	if err := altThresholds(altModel).Validate(); err != nil {
		return nil, fmt.Errorf("core: alternative model: %w", err)
	}
	if err := validReduction(opts.Reduction); err != nil {
		return nil, err
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

	// The opt-in memo: one bounded cache per run, shared by every
	// worker's matcher, so its memory is capped by CacheCapacity no
	// matter how many workers run.
	var cache *avm.Cache
	if opts.CacheCapacity > 0 {
		cache = avm.NewCache(opts.CacheCapacity)
	}

	// The candidate pre-filter: constructed only when the configuration
	// is provably boundable (explicit model, boundable derivation; the
	// ⊥ similarities were checked above); otherwise the run proceeds
	// unfiltered and the stats report FilterActive=false.
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

	eng := &engine{
		xr:        xr,
		byID:      byID,
		reduction: reduction,
		workers:   workers,
		cache:     cache,
		symtab:    symtab,
		filter:    filter,
	}
	eng.newComparer = func() *xmatch.Comparer {
		m := avm.NewMatcherWithCache(cache, compare...)
		m.Nulls = opts.Nulls
		return &xmatch.Comparer{
			Matcher:  m,
			AltModel: altModel,
			Derive:   derive,
			Final:    opts.Final,
			StopAtU:  eng.stopAtU,
		}
	}
	return eng, nil
}

// altThresholds returns the thresholds of a built-in per-alternative
// model, so NaN or inverted ones are refused like an invalid Final
// instead of silently reclassifying every pair. Other models classify
// by their own rules and report the zero (valid) Thresholds.
func altThresholds(m decision.Model) decision.Thresholds {
	switch m := m.(type) {
	case decision.SimpleModel:
		return m.T
	case decision.WeightedSumModel:
		return m.T
	case decision.RuleModel:
		return m.T
	case *decision.FellegiSunter:
		return m.T
	}
	return decision.Thresholds{}
}

// validReduction refuses a sorted neighbourhood, bare or under an
// ssr.Filter, whose shape would silently run as another: a Window below
// 2 other than 0, which means the minimum window 2, and a multi-pass
// that selects K ≤ 0 worlds, which would visit no world and so compare
// no pair.
func validReduction(m ssr.Method) error {
	window := 0
	switch m := m.(type) {
	case ssr.Filter:
		return validReduction(m.Inner)
	case ssr.SNMCertain:
		window = m.Window
	case ssr.SNMAlternatives:
		window = m.Window
	case ssr.SNMRanked:
		window = m.Window
	case ssr.SNMMultiPass:
		window = m.Window
		if (m.Select == ssr.TopWorlds || m.Select == ssr.DissimilarWorlds) && m.K <= 0 {
			return fmt.Errorf("core: %s needs K >= 1 worlds, got %d", m.Name(), m.K)
		}
	}
	if window < 0 || window == 1 {
		return fmt.Errorf("core: %s needs Window >= 2 (0 means 2), got %d", m.Name(), window)
	}
	return nil
}

// compareJob is one verification the pool runs: the pair (in m) and
// its two tuples go in, m's similarity and class come out. The other
// fields are the caller's bookkeeping, which the pool leaves alone.
type compareJob struct {
	m      Match
	x1, x2 *pdb.XTuple
	// a and b are the pair's slots in the Detector's pair table.
	a, b uint32
	// filtered is DetectStream's running count of the pairs its
	// pre-filter rejected before this one was enumerated.
	filtered int
}

// compare fills in the job's similarity and class, unless its tuples
// are unset.
func (j *compareJob) compare(c *xmatch.Comparer) {
	if j.x1 != nil {
		r := c.Compare(j.x1, j.x2)
		j.m.Sim, j.m.Class = r.Sim, r.Class
	}
}

// compareAll is the one verification pool of both engines: it fills in
// the Match of every job whose tuples are set, leaving the others
// alone. Fewer than minParallelCompares jobs, or one worker, run on the
// caller's goroutine; otherwise the caller and Options.Workers−1 more
// goroutines take the jobs pair by pair through an atomic cursor, so
// uneven comparison costs still balance. Each worker owns a pooled
// comparer (the fold scratch is not shareable); with the memo on, every
// matcher memoizes into the engine's one bounded cache. Comparison
// functions are deterministic, so the results do not depend on the
// worker count.
// The caller serializes calls (DetectStream's goroutine, the
// Detector's lock).
func (e *engine) compareAll(jobs []compareJob) {
	workers := min(e.workers, len(jobs))
	if len(jobs) < minParallelCompares {
		workers = 1
	}
	for len(e.comparers) < workers {
		e.comparers = append(e.comparers, e.newComparer())
	}
	if workers <= 1 {
		for j := range jobs {
			jobs[j].compare(e.comparers[0])
		}
		return
	}
	var next atomic.Int64
	work := func(c *xmatch.Comparer) {
		for j := int(next.Add(1)) - 1; j < len(jobs); j = int(next.Add(1)) - 1 {
			jobs[j].compare(c)
		}
	}
	var wg sync.WaitGroup
	for _, c := range e.comparers[1:workers] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(c)
		}()
	}
	work(e.comparers[0])
	wg.Wait()
}

// unknownTuples is the error of a candidate pair naming a tuple outside
// the relation, which only a misbehaving user-defined reduction yields.
func unknownTuples(p verify.Pair) error {
	return fmt.Errorf("core: candidate pair %v references unknown tuples", p)
}

// DetectStream runs the pipeline over an x-relation and emits each
// compared pair's Match through the callback, without retaining the
// candidate set or the results: candidate pairs are enumerated one at
// a time (ssr.Method.EnumeratePairs) into one bounded chunk, the chunk
// is verified through the worker pool, emitted and discarded. The
// engine holds no other per-pair state, so with the blocking variants,
// cross product, SNMCertain, SNMRanked and pruning, memory stays
// proportional to the relation; SNMMultiPass and SNMAlternatives
// additionally keep their executed-matching set while enumerating.
//
// emit is always called sequentially from the caller's goroutine, in
// the reduction method's enumeration order; it returns false to stop
// the run early (Stopped is then set in the stats).
// Options.Workers changes only throughput: the emitted sequence and
// the stats, apart from an opted-in memo's counters, are the same at
// any worker count.
//
// On error the matches of the pairs enumerated before the failing one
// are emitted, the stats cover them, and the error is returned.
func DetectStream(xr *pdb.XRelation, opts Options, emit func(Match) bool) (StreamStats, error) {
	eng, err := newEngine(xr, opts)
	if err != nil {
		return StreamStats{}, err
	}
	stats := StreamStats{
		TotalPairs:   ssr.TotalPairs(len(eng.xr.Tuples)),
		FilterActive: eng.filter != nil,
	}
	chunk := make([]compareJob, 0, streamChunkSize)
	filtered := 0
	// flush verifies the chunk and emits it in order; it reports
	// whether the run goes on.
	flush := func() bool {
		eng.compareAll(chunk)
		for _, j := range chunk {
			stats.count(j.m)
			stats.Filtered = j.filtered
			if !emit(j.m) {
				stats.Stopped = true
				return false
			}
		}
		chunk = chunk[:0]
		return true
	}
	eng.reduction.EnumeratePairs(eng.xr, func(p verify.Pair) bool {
		if eng.filter != nil && !eng.filter.Admit(p) {
			filtered++ // provably class U: skip verification
			return true
		}
		x1, ok1 := eng.byID[p.A]
		x2, ok2 := eng.byID[p.B]
		if !ok1 || !ok2 {
			err = unknownTuples(p)
			return false
		}
		chunk = append(chunk, compareJob{m: Match{Pair: p}, x1: x1, x2: x2, filtered: filtered})
		return len(chunk) < cap(chunk) || flush()
	})
	if !stats.Stopped && flush() {
		stats.Filtered = filtered
	}
	stats.Enumerated = stats.Compared + stats.Filtered
	if eng.cache != nil {
		stats.Cache = eng.cache.Stats()
	}
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
