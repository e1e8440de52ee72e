package ssr

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"probdedup/internal/avm"
	"probdedup/internal/decision"
	"probdedup/internal/pdb"
	"probdedup/internal/strsim"
	"probdedup/internal/sym"
	"probdedup/internal/verify"
	"probdedup/internal/xmatch"
)

// PreFilter is the symbol-plane candidate pre-filter: it sits where
// candidate pairs are generated — DetectStream's enumeration loop and
// the yield of the incremental engine's index — ahead of verification
// (the full Fig. 6 comparison), and rejects pairs that provably cannot reach
// the final lower threshold Tλ — pairs whose classification is
// therefore U no matter what the comparison computes.
// It generalizes the Pruning length heuristic into a sound, always-on
// filter built from three bound layers:
//
//  1. per attribute, a similarity upper bound from the precomputed
//     symbol statistics of the values (length and q-gram count filters,
//     strsim.BoundFor), maximized over the alternative values and ⊥
//     combinations — an upper bound of the Eq. 5 expectation, which is
//     a convex combination of exactly those terms;
//  2. the decision model folds the per-attribute bounds into a
//     per-cell similarity bound (decision.UpperBounded);
//  3. the derivation folds the cell bound into a bound on the derived
//     x-tuple similarity (xmatch.Bounded).
//
// A pair is filtered only when that final bound lies strictly below Tλ,
// so the M and P result sets are bit-identical with the filter on or
// off; only the number of verified (Compared) pairs shrinks. Tuples are
// summarized once into packed signature rows (see rows) of 16-byte,
// pointer-free sym.Stats records, and the cascade does no string work
// and no allocation.
//
// The cascade runs over the two tiers of layer 1 (strsim.Tier): the
// whole chain is first folded with the O(1) signature estimates of the
// gram overlaps, and only a pair that survives is folded again with the
// exact gram merges. Every layer is monotone and quick ≥ exact, so the
// quick fold rejects nothing the exact fold would admit — the outcome is
// the exact fold's, most rejects just never pay a merge. The quick tier
// reads the rows alone and performs no table lookup; the exact tier
// reads the two values' gram multisets from the table, under its read
// lock.
//
// Two loops feed the one cascade. Admit asks it about one pair whose
// rows live in the filter's per-ID map (Insert/Remove). An index built
// by IncrementalFiltered keeps its members' rows itself, one rows per
// block, and admits each arrival against its whole block in one scan;
// such tuples are never Inserted here.
//
// A PreFilter is safe for concurrent use: Admit takes only a read lock
// plus two atomic counters, Insert/Remove a write lock. A block scan
// touches only rows its index owns (the index serializes access) and the
// counters, once per scan.
type PreFilter struct {
	table  *sym.Table
	bounds []strsim.SimBound // per attribute; nil = no bound known (UB 1)
	model  decision.UpperBounded
	derive xmatch.Bounded
	lambda float64
	nulls  avm.NullSemantics

	mu   sync.RWMutex
	sigs map[string]rows // one row each

	enumerated atomic.Uint64
	filtered   atomic.Uint64
}

// stackAttrs is the schema width up to which the cascade keeps its
// per-attribute bound vector on the stack.
const stackAttrs = 16

// PreFilterConfig carries everything NewPreFilter needs to prove the
// filter sound for one engine configuration.
type PreFilterConfig struct {
	// Table is the run's symbol table (stats of interned values).
	Table *sym.Table
	// Funcs are the per-attribute comparison functions; attributes whose
	// function has no registered bound contribute the trivial bound 1.
	Funcs []strsim.Func
	// Model is the per-alternative decision model; it must implement
	// decision.UpperBounded.
	Model decision.Model
	// Derive is the similarity derivation; it must implement
	// xmatch.Bounded.
	Derive xmatch.Derivation
	// Lambda is the final classification's Tλ: pairs provably below it
	// are non-matches and get filtered.
	Lambda float64
	// Nulls is the ⊥ semantics used by attribute value matching.
	Nulls avm.NullSemantics
}

// rows is the one signature layout the cascade reads: a sequence of
// tuple rows, each summarizing one x-tuple across all its alternatives.
// With w attributes, row r owns spans[r*w : (r+1)*w], and the symbol
// records of its distinct values lie contiguously in stats, in row and
// attribute order. Neither array holds a pointer, so the collector never
// scans them. The per-ID map holds one-row rows; a filtering
// blocking index holds one rows per block, so a block's candidates sit
// in two flat arrays.
type rows struct {
	spans []span
	stats []sym.Stats
}

// span closes one attribute of one row: its distinct value stats run
// from the previous span's end (0 for the first span) to end, and null
// reports whether any alternative's distribution of the attribute
// carries ⊥ mass.
type span struct {
	end  uint32
	null bool
}

// values returns the distinct value stats and the ⊥ flag of span s.
func (r *rows) values(s int) ([]sym.Stats, bool) {
	start := uint32(0)
	if s > 0 {
		start = r.spans[s-1].end
	}
	return r.stats[start:r.spans[s].end], r.spans[s].null
}

// NewPreFilter validates that the configuration supports sound
// filtering and returns the filter, or an error describing the first
// obstruction (an opaque decision model, an unboundable derivation, or
// ⊥ semantics outside [0,1]). Callers typically treat the error as
// "run unfiltered".
func NewPreFilter(cfg PreFilterConfig) (*PreFilter, error) {
	if cfg.Table == nil {
		return nil, fmt.Errorf("ssr: pre-filter needs a symbol table")
	}
	model, ok := cfg.Model.(decision.UpperBounded)
	if !ok {
		return nil, fmt.Errorf("ssr: decision model %T cannot bound its similarity", cfg.Model)
	}
	derive, ok := cfg.Derive.(xmatch.Bounded)
	if !ok {
		return nil, fmt.Errorf("ssr: derivation %T cannot bound its similarity", cfg.Derive)
	}
	if cfg.Nulls.NullNull < 0 || cfg.Nulls.NullNull > 1 || cfg.Nulls.NullValue < 0 || cfg.Nulls.NullValue > 1 {
		return nil, fmt.Errorf("ssr: pre-filter needs ⊥ similarities in [0,1], got %+v", cfg.Nulls)
	}
	bounds := make([]strsim.SimBound, len(cfg.Funcs))
	for k, f := range cfg.Funcs {
		if b, ok := strsim.BoundFor(f); ok {
			bounds[k] = b
		}
	}
	return &PreFilter{
		table:  cfg.Table,
		bounds: bounds,
		model:  model,
		derive: derive,
		lambda: cfg.Lambda,
		nulls:  cfg.Nulls,
		sigs:   map[string]rows{},
	}, nil
}

// Insert summarizes the (interned) x-tuple so later Admit calls can
// bound pairs involving it. Inserting an ID again replaces its
// signature.
func (f *PreFilter) Insert(x *pdb.XTuple) {
	var r rows
	f.appendRow(&r, x)
	f.mu.Lock()
	f.sigs[x.ID] = r
	f.mu.Unlock()
}

// Remove drops the signature of the tuple.
func (f *PreFilter) Remove(id string) {
	f.mu.Lock()
	delete(f.sigs, id)
	f.mu.Unlock()
}

// Len returns the number of summarized tuples in the per-ID map.
func (f *PreFilter) Len() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.sigs)
}

// appendRow summarizes x as the next row of r, deduplicating value
// stats by symbol per attribute. Values without a symbol contribute the
// zero Stats, which every bound treats as "no information" — sound,
// just useless.
func (f *PreFilter) appendRow(r *rows, x *pdb.XTuple) {
	most := 0
	for _, alt := range x.Alts {
		for k := range min(len(f.bounds), len(alt.Values)) {
			most += alt.Values[k].Len()
		}
	}
	r.spans = slices.Grow(r.spans, len(f.bounds))
	r.stats = slices.Grow(r.stats, most)
	for k := range f.bounds {
		var s span
		start := len(r.stats)
		for _, alt := range x.Alts {
			if k >= len(alt.Values) {
				continue
			}
			d := alt.Values[k]
			if d.NullP() > pdb.Eps {
				s.null = true
			}
			for _, a := range d.Alternatives() {
				st := f.table.Stats(a.Value.Sym())
				if !slices.ContainsFunc(r.stats[start:], func(have sym.Stats) bool { return have.Sym == st.Sym }) {
					r.stats = append(r.stats, st)
				}
			}
		}
		s.end = uint32(len(r.stats))
		r.spans = append(r.spans, s)
	}
}

// deleteRow removes row i from r, shifting the later rows down — the
// O(block) splice a blocking index already pays for its member IDs.
func (f *PreFilter) deleteRow(r *rows, i int) {
	w := len(f.bounds)
	if w == 0 {
		return
	}
	lo, hi := uint32(0), r.spans[(i+1)*w-1].end
	if i > 0 {
		lo = r.spans[i*w-1].end
	}
	r.stats = slices.Delete(r.stats, int(lo), int(hi))
	r.spans = slices.Delete(r.spans, i*w, (i+1)*w)
	for s := i * w; s < len(r.spans); s++ {
		r.spans[s].end -= hi - lo
	}
}

// Admit reports whether the pair must be verified. It returns false
// only when the derived-similarity upper bound lies strictly below Tλ,
// i.e. when verification would certainly classify the pair U. Pairs
// with a missing signature on either side are always admitted.
func (f *PreFilter) Admit(p verify.Pair) bool {
	f.enumerated.Add(1)
	f.mu.RLock()
	r1, ok1 := f.sigs[p.A]
	r2, ok2 := f.sigs[p.B]
	f.mu.RUnlock()
	if !ok1 || !ok2 {
		return true
	}
	var buf [stackAttrs]float64
	if f.rejects(&r1, 0, &r2, 0, f.scratch(&buf)) {
		f.filtered.Add(1)
		return false
	}
	return true
}

// admitRows is the block scan: it offers the arrival in row x of r to
// every earlier row i < x through the same cascade Admit runs and calls
// yield(i) for the survivors only. A reject costs no lock, no lookup,
// no allocation and no pair; the counters move once per scan. It
// returns false if yield stopped the scan early.
func (f *PreFilter) admitRows(r *rows, x int, yield func(i int) bool) bool {
	var buf [stackAttrs]float64
	hi := f.scratch(&buf)
	scanned, rejected, ok := 0, 0, true
	for i := 0; i < x && ok; i++ {
		scanned++
		if f.rejects(r, x, r, i, hi) {
			rejected++
			continue
		}
		ok = yield(i)
	}
	f.enumerated.Add(uint64(scanned))
	f.filtered.Add(uint64(rejected))
	return ok
}

// scratch returns the bound vector: buf when the schema fits, else a
// heap slice (once per Admit or per scan, never per pair of a scan).
func (f *PreFilter) scratch(buf *[stackAttrs]float64) []float64 {
	if len(f.bounds) > stackAttrs {
		return make([]float64, len(f.bounds))
	}
	return buf[:len(f.bounds)]
}

// rejects is the cascade: the quick tier first, the exact tier only for
// a quick survivor. It reports whether row i of a and row j of b
// provably stay below Tλ.
func (f *PreFilter) rejects(a *rows, i int, b *rows, j int, hi []float64) bool {
	return f.below(a, i, b, j, hi, strsim.TierQuick) || f.below(a, i, b, j, hi, strsim.TierExact)
}

// below folds the per-attribute bounds of one tier for row i of a and
// row j of b through the model and the derivation and reports whether
// the pair provably stays below Tλ. hi is scratch for the bound vector.
func (f *PreFilter) below(a *rows, i int, b *rows, j int, hi []float64, t strsim.Tier) bool {
	w := len(f.bounds)
	for k := range f.bounds {
		av, aNull := a.values(i*w + k)
		bv, bNull := b.values(j*w + k)
		hi[k] = f.attrUB(k, av, aNull, bv, bNull, t)
	}
	cellUB := f.cellUB(hi)
	if cellUB < 0 {
		cellUB = 0
	}
	return f.derive.SimUpperBound(cellUB, f.model) < f.lambda
}

// cellUB folds the bound vector through the decision model. An
// interface call leaks its argument to the heap, which would cost
// Admit an allocation per pair: the engine's weighted-sum model is
// called on its concrete type so the caller's scratch stays on the
// stack, any other model gets a copy.
func (f *PreFilter) cellUB(hi []float64) float64 {
	if ws, ok := f.model.(decision.WeightedSumModel); ok {
		return ws.SimilarityUpperBound(hi)
	}
	return f.model.SimilarityUpperBound(slices.Clone(hi))
}

// attrUB bounds the Eq. 5 attribute similarity over every alternative
// pair of the two tuples: the expectation is a convex combination of
// value-pair similarities and ⊥ terms, so its maximum term bounds it.
func (f *PreFilter) attrUB(k int, a []sym.Stats, aNull bool, b []sym.Stats, bNull bool, t strsim.Tier) float64 {
	best := 0.0
	if aNull && bNull && f.nulls.NullNull > best {
		best = f.nulls.NullNull
	}
	if ((aNull && len(b) > 0) || (bNull && len(a) > 0)) && f.nulls.NullValue > best {
		best = f.nulls.NullValue
	}
	if len(a) > 0 && len(b) > 0 {
		bound := f.bounds[k]
		if bound == nil {
			return 1
		}
		q := f.table.Q()
		for i := range a {
			for j := range b {
				if a[i].Sym == b[j].Sym {
					return 1 // equal strings, the one case every bound answers at once
				}
				overlap := strsim.QuickOverlap(&a[i], &b[j], q) // GramOverlap's quick tier, inlined
				if t == strsim.TierExact {
					overlap = strsim.GramOverlap(f.table, &a[i], &b[j], t)
				}
				if v := bound(&a[i], &b[j], q, overlap); v > best {
					if v >= 1 {
						return 1
					}
					best = v
				}
			}
		}
	}
	if best > 1 {
		best = 1
	}
	return best
}

// FilterStats are the cumulative counters of one PreFilter.
type FilterStats struct {
	// Enumerated counts the pairs presented to the cascade, by Admit or
	// by a block scan.
	Enumerated uint64
	// Filtered counts the pairs rejected (provably class U).
	Filtered uint64
}

// Stats returns a snapshot of the counters.
func (f *PreFilter) Stats() FilterStats {
	return FilterStats{
		Enumerated: f.enumerated.Load(),
		Filtered:   f.filtered.Load(),
	}
}
