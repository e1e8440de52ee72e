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
//     strsim.Bound), maximized over the alternative values and ⊥
//     combinations — an upper bound of the Eq. 5 expectation, which is
//     a convex combination of exactly those terms;
//  2. the decision model folds the per-attribute bounds into a
//     per-cell similarity bound (decision.UpperBounded; the weighted
//     sum is resolved to its concrete type once, in NewPreFilter);
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
// The cascade is one kernel (rejects) over two tiers of layer 1. The
// quick tier bounds every attribute with the O(1) signature estimate of
// the gram overlaps (strsim.QuickOverlap) and folds the vector; it
// reads the rows alone. Only a survivor reaches the exact tier, which
// refines the quick vector one attribute at a time, in attribute
// order: attribute k drops to its exact bound (gram merges read through
// a sym.GramView), the mixed vector is folded again, and the pair is
// rejected as soon as a fold falls below Tλ. This decides exactly as
// folding the all-exact vector would: per attribute quick ≥ exact, so
// every mixed vector dominates the exact one; every layer is monotone
// (the quick tier's own soundness already relies on it), and rounded
// addition and multiplication by a positive weight are monotone, so a
// mixed fold taken in attribute order is ≥ the exact fold — a mixed
// reject is an exact reject — and once every attribute is refined the
// vector is the exact one. Most rejects never pay a merge, and most
// exact rejects pay for the first attributes' merges only.
//
// Two loops feed the one kernel, each reading the arrival's row once
// into a probe: its spans, its value records and, from its first exact
// evaluation on, the view of the table's gram multisets. Admit asks
// about one pair whose rows live in the filter's per-ID map
// (Insert/Remove). An index built by IncrementalFiltered keeps its
// members' rows itself, one rows per block, and admits each arrival
// against its whole block in one scan (admitRows) that walks the
// members' spans forward; such tuples are never Inserted here.
//
// A PreFilter is safe for concurrent use: Admit takes only a read lock
// plus two atomic counters, Insert/Remove a write lock. A block scan
// touches only rows its index owns (the index serializes access) and the
// counters, once per scan.
type PreFilter struct {
	table  *sym.Table
	q      int            // the table's gram size
	bounds []strsim.Bound // per attribute; the zero Bound (unregistered) bounds to 1
	model  decision.UpperBounded
	// ws is the model when it is the engine's weighted sum, resolved
	// once: called on its concrete type the fold takes the caller's
	// stack scratch without a copy. nil for any other model.
	ws     *decision.WeightedSumModel
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
	if !cfg.Nulls.InUnit() {
		return nil, fmt.Errorf("ssr: pre-filter needs ⊥ similarities in [0,1], got %+v", cfg.Nulls)
	}
	bounds := make([]strsim.Bound, len(cfg.Funcs))
	for k, f := range cfg.Funcs {
		bounds[k], _ = strsim.BoundFor(f) // unregistered: the zero Bound
	}
	f := &PreFilter{
		table:  cfg.Table,
		q:      cfg.Table.Q(),
		bounds: bounds,
		model:  model,
		derive: derive,
		lambda: cfg.Lambda,
		nulls:  cfg.Nulls,
		sigs:   map[string]rows{},
	}
	if ws, ok := model.(decision.WeightedSumModel); ok {
		f.ws = &ws
	}
	return f, nil
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
	pr := f.probe(&r1, 0)
	if f.rejects(&pr, r2.spans, r2.stats, 0, f.scratch(&buf)) {
		f.filtered.Add(1)
		return false
	}
	return true
}

// admitRows is the block scan: it offers the arrival in row x of r to
// every earlier row i < x through the same kernel Admit runs and calls
// yield(i) for the survivors only. The arrival's row is read once, the
// members' spans are walked forward, and a reject costs no lock, no
// lookup, no allocation and no pair; the counters move once per scan.
// It returns false if yield stopped the scan early.
func (f *PreFilter) admitRows(r *rows, x int, yield func(i int) bool) bool {
	var buf [stackAttrs]float64
	hi := f.scratch(&buf)
	pr := f.probe(r, x)
	w := len(f.bounds)
	scanned, rejected, ok := 0, 0, true
	start := uint32(0) // where member i's values begin in r.stats
	for i := 0; i < x && ok; i++ {
		member := r.spans[i*w : (i+1)*w]
		scanned++
		if f.rejects(&pr, member, r.stats, start, hi) {
			rejected++
		} else {
			ok = yield(i)
		}
		if w > 0 {
			start = member[w-1].end
		}
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

// probe is the arrival's side of the kernel, read once per scan (or per
// Admit): the row's w spans, whose ends index r.stats, and its value
// records, which start at r.stats[base]. grams is the view of the
// table's gram multisets, taken at the row's first exact evaluation.
type probe struct {
	spans  []span
	stats  []sym.Stats
	base   uint32
	grams  sym.GramView
	viewed bool
}

// probe reads row x of r.
func (f *PreFilter) probe(r *rows, x int) probe {
	w := len(f.bounds)
	p := probe{spans: r.spans[x*w : (x+1)*w]}
	if x > 0 && w > 0 {
		p.base = r.spans[x*w-1].end
	}
	end := p.base
	if w > 0 {
		end = p.spans[w-1].end
	}
	p.stats = r.stats[p.base:end]
	return p
}

// rejects is the kernel: it reports whether the member whose w spans
// are member, and whose values start at stats[start], provably stays
// below Tλ against the probe. hi is scratch for the bound vector. The
// quick tier bounds every attribute with the signature estimates of the
// overlaps and folds once; a survivor goes on to the exact tier.
func (f *PreFilter) rejects(p *probe, member []span, stats []sym.Stats, start uint32, hi []float64) bool {
	a, b := uint32(0), start
	for k, bound := range f.bounds {
		aEnd, bEnd := p.spans[k].end-p.base, member[k].end
		av, bv := p.stats[a:aEnd], stats[b:bEnd]
		hi[k] = avm.MaxMass * bound.MaxUB(av, bv, f.q, f.nullUB(av, p.spans[k].null, bv, member[k].null), nil)
		a, b = aEnd, bEnd
	}
	return f.below(hi) || f.refine(p, member, stats, start, hi)
}

// refine is the exact tier of a quick survivor whose quick vector is
// hi: attribute by attribute, in attribute order, hi[k] drops to the
// exact bound and the mixed vector is folded again; the first fold
// below Tλ rejects. An attribute whose bound does not drop leaves the
// fold where it was, so it is not folded again.
func (f *PreFilter) refine(p *probe, member []span, stats []sym.Stats, start uint32, hi []float64) bool {
	if !p.viewed {
		p.grams, p.viewed = f.table.GramView(), true
	}
	a, b := uint32(0), start
	for k, bound := range f.bounds {
		aEnd, bEnd := p.spans[k].end-p.base, member[k].end
		av, bv := p.stats[a:aEnd], stats[b:bEnd]
		if v := avm.MaxMass * bound.MaxUB(av, bv, f.q, f.nullUB(av, p.spans[k].null, bv, member[k].null), &p.grams); v < hi[k] {
			hi[k] = v
			if f.below(hi) {
				return true
			}
		}
		a, b = aEnd, bEnd
	}
	return false
}

// below folds the bound vector through the model and the derivation and
// reports whether the pair provably stays below Tλ. An interface call
// leaks its argument to the heap, which would cost an allocation per
// fold: the resolved weighted sum takes hi itself, any other model gets
// a copy.
func (f *PreFilter) below(hi []float64) bool {
	var cellUB float64
	if f.ws != nil {
		cellUB = f.ws.SimilarityUpperBound(hi)
	} else {
		cellUB = f.model.SimilarityUpperBound(slices.Clone(hi))
	}
	if cellUB < 0 {
		cellUB = 0
	}
	return f.derive.SimUpperBound(cellUB, f.model) < f.lambda
}

// nullUB is the largest ⊥ term of one attribute's Eq. 5 expansion: ⊥
// against ⊥ when both sides carry ⊥ mass, ⊥ against a value when one
// side carries ⊥ mass and the other a value, else 0. The expansion
// weighs these terms and the value-pair similarities with a total
// weight of at most avm.MaxMass, so MaxMass times the largest of them
// all (strsim.Bound.MaxUB) bounds it.
func (f *PreFilter) nullUB(a []sym.Stats, aNull bool, b []sym.Stats, bNull bool) float64 {
	best := 0.0
	if aNull && bNull {
		best = f.nulls.NullNull
	}
	if ((aNull && len(b) > 0) || (bNull && len(a) > 0)) && f.nulls.NullValue > best {
		best = f.nulls.NullValue
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
