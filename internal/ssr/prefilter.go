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
// candidate pairs are generated — the batch engine's producers and the
// yield of the incremental engine's index — ahead of verification (the
// full Fig. 6 comparison), and rejects pairs that provably cannot reach
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
// summarized once at Insert into per-attribute signature slices, so
// Admit performs no table lookups, no string work and no allocation.
//
// Admit is one cascade over the two tiers of layer 1 (strsim.Tier):
// the whole chain is first folded with the O(1) signature estimates of
// the gram overlaps, and only a pair that survives is folded again with
// the exact gram merges. Every layer is monotone and quick ≥ exact, so
// the quick fold rejects nothing the exact fold would admit — the
// outcome is the exact fold's, most rejects just never pay a merge.
//
// A PreFilter is safe for concurrent use: Admit takes only a read lock
// plus two atomic counters, Insert/Remove a write lock.
type PreFilter struct {
	table  *sym.Table
	bounds []strsim.SimBound // per attribute; nil = no bound known (UB 1)
	model  decision.UpperBounded
	derive xmatch.Bounded
	lambda float64
	nulls  avm.NullSemantics

	mu   sync.RWMutex
	sigs map[string]*tupleSig

	enumerated atomic.Uint64
	filtered   atomic.Uint64
}

// stackAttrs is the schema width up to which Admit keeps its
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

// tupleSig is the per-tuple summary Admit works on.
type tupleSig struct {
	attrs []attrSig
}

// attrSig summarizes one attribute of one x-tuple across all its
// alternatives: the symbol statistics of every distinct value and
// whether any alternative's distribution carries ⊥ mass.
type attrSig struct {
	stats   []sym.Stats
	hasNull bool
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
		sigs:   map[string]*tupleSig{},
	}, nil
}

// Insert summarizes the (interned) x-tuple so later Admit calls can
// bound pairs involving it. Inserting an ID again replaces its
// signature.
func (f *PreFilter) Insert(x *pdb.XTuple) {
	sig := f.signature(x)
	f.mu.Lock()
	f.sigs[x.ID] = sig
	f.mu.Unlock()
}

// Remove drops the signature of the tuple.
func (f *PreFilter) Remove(id string) {
	f.mu.Lock()
	delete(f.sigs, id)
	f.mu.Unlock()
}

// Len returns the number of summarized tuples.
func (f *PreFilter) Len() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.sigs)
}

// signature builds the per-attribute summary, deduplicating value
// stats by symbol. Values without a symbol contribute the zero Stats,
// which every bound treats as "no information" — sound, just useless.
func (f *PreFilter) signature(x *pdb.XTuple) *tupleSig {
	sig := &tupleSig{attrs: make([]attrSig, len(f.bounds))}
	for _, alt := range x.Alts {
		for k := range f.bounds {
			if k >= len(alt.Values) {
				continue
			}
			as := &sig.attrs[k]
			d := alt.Values[k]
			if d.NullP() > pdb.Eps {
				as.hasNull = true
			}
			for _, a := range d.Alternatives() {
				st := f.table.Stats(a.Value.Sym())
				dup := false
				for i := range as.stats {
					if as.stats[i].Sym == st.Sym {
						dup = true
						break
					}
				}
				if !dup {
					as.stats = append(as.stats, st)
				}
			}
		}
	}
	return sig
}

// Admit reports whether the pair must be verified. It returns false
// only when the derived-similarity upper bound lies strictly below Tλ,
// i.e. when verification would certainly classify the pair U. Pairs
// with a missing signature on either side are always admitted.
func (f *PreFilter) Admit(p verify.Pair) bool {
	f.enumerated.Add(1)
	f.mu.RLock()
	s1, ok1 := f.sigs[p.A]
	s2, ok2 := f.sigs[p.B]
	f.mu.RUnlock()
	if !ok1 || !ok2 {
		return true
	}
	var buf [stackAttrs]float64
	hi := buf[:]
	if len(f.bounds) > len(buf) {
		hi = make([]float64, len(f.bounds))
	}
	hi = hi[:len(f.bounds)]
	if f.below(s1, s2, hi, strsim.TierQuick) || f.below(s1, s2, hi, strsim.TierExact) {
		f.filtered.Add(1)
		return false
	}
	return true
}

// below folds the per-attribute bounds of one tier through the model
// and the derivation and reports whether the pair provably stays below
// Tλ. hi is scratch for the bound vector.
func (f *PreFilter) below(s1, s2 *tupleSig, hi []float64, t strsim.Tier) bool {
	for k := range f.bounds {
		hi[k] = f.attrUB(k, &s1.attrs[k], &s2.attrs[k], t)
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
func (f *PreFilter) attrUB(k int, a, b *attrSig, t strsim.Tier) float64 {
	best := 0.0
	if a.hasNull && b.hasNull && f.nulls.NullNull > best {
		best = f.nulls.NullNull
	}
	if ((a.hasNull && len(b.stats) > 0) || (b.hasNull && len(a.stats) > 0)) && f.nulls.NullValue > best {
		best = f.nulls.NullValue
	}
	if len(a.stats) > 0 && len(b.stats) > 0 {
		bound := f.bounds[k]
		if bound == nil {
			return 1
		}
		for i := range a.stats {
			for j := range b.stats {
				if v := bound(&a.stats[i], &b.stats[j], t); v > best {
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
	// Enumerated counts the pairs presented to Admit.
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
