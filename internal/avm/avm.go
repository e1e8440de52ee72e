package avm

import (
	"probdedup/internal/pdb"
	"probdedup/internal/strsim"
)

// NullSemantics fixes the similarity of the non-existence marker ⊥ against
// itself and against existing values. The paper's choice is {1, 0}: two
// non-existent values refer to the same real-world fact, while a
// non-existent value is definitely not similar to any existing one. The
// struct exists as an ablation hook (EXPERIMENTS.md A02).
type NullSemantics struct {
	// NullNull is sim(⊥,⊥); the paper uses 1.
	NullNull float64
	// NullValue is sim(a,⊥)=sim(⊥,a); the paper uses 0.
	NullValue float64
}

// PaperNulls is the paper's ⊥ semantics.
var PaperNulls = NullSemantics{NullNull: 1, NullValue: 0}

// InUnit reports whether both ⊥ similarities lie in [0,1] (NaN does
// not), the range Vector promises for every attribute similarity and
// every bound over one assumes.
func (ns NullSemantics) InUnit() bool {
	return ns.NullNull >= 0 && ns.NullNull <= 1 && ns.NullValue >= 0 && ns.NullValue <= 1
}

// ValueSim compares two certain values under the given ⊥ semantics, using f
// for pairs of existing values.
func (ns NullSemantics) ValueSim(f strsim.Func, a, b pdb.Value) float64 {
	switch {
	case a.IsNull() && b.IsNull():
		return ns.NullNull
	case a.IsNull() || b.IsNull():
		return ns.NullValue
	default:
		return f(a.S(), b.S())
	}
}

// MaxMass bounds the total weight of Eq. 5's expansion: the product of
// the two distributions' masses, ⊥ included, each at most 1 + pdb.Eps
// (pdb.NewDist's tolerance). An attribute similarity is therefore at
// most MaxMass times the largest of its value-pair and ⊥ terms, and
// never more than MaxMass when those lie in [0,1].
const MaxMass = (1 + pdb.Eps) * (1 + pdb.Eps)

// Sim computes Eq. 5: the expected similarity of two independent uncertain
// attribute values, using f on pairs of existing domain values and the
// paper's ⊥ semantics.
func Sim(f strsim.Func, a1, a2 pdb.Dist) float64 {
	return PaperNulls.Sim(f, a1, a2)
}

// Sim computes Eq. 5 under the receiver's ⊥ semantics. The double sum
// runs over the explicit alternatives; the ⊥ terms are added in closed
// form from the null masses, so no Support slice is materialized.
func (ns NullSemantics) Sim(f strsim.Func, a1, a2 pdb.Dist) float64 {
	return ns.sim(a1, a2, func(x, y pdb.Value) float64 { return f(x.S(), y.S()) })
}

// sim is the shared Eq. 5 evaluator, parameterized over the existing-value
// comparison so the Matcher can inject its memoized lookup. f receives
// the full Values (never ⊥), giving the memo access to their interned
// symbols.
func (ns NullSemantics) sim(a1, a2 pdb.Dist, f func(x, y pdb.Value) float64) float64 {
	alts1, alts2 := a1.Alternatives(), a2.Alternatives()
	total := 0.0
	sum1, sum2 := 0.0, 0.0
	for _, y := range alts2 {
		sum2 += y.P
	}
	for _, x := range alts1 {
		sum1 += x.P
		for _, y := range alts2 {
			total += x.P * y.P * f(x.Value, y.Value)
		}
	}
	n1, n2 := a1.NullP(), a2.NullP()
	if n1 > pdb.Eps && n2 > pdb.Eps {
		total += n1 * n2 * ns.NullNull
	}
	if ns.NullValue != 0 {
		if n1 > pdb.Eps {
			total += n1 * sum2 * ns.NullValue
		}
		if n2 > pdb.Eps {
			total += n2 * sum1 * ns.NullValue
		}
	}
	return total
}

// EqualitySim computes Eq. 4: the probability that both uncertain values are
// equal, i.e. Eq. 5 with the exact comparison function. It is the right
// choice for error-free data.
func EqualitySim(a1, a2 pdb.Dist) float64 {
	return Sim(strsim.Exact, a1, a2)
}

// Vector is the comparison vector c⃗ = [c1..cn] of one tuple pair: the
// similarity of the values of each attribute, each in [0,1].
type Vector []float64

// Matcher compares tuples attribute by attribute using one comparison
// function per attribute: dependency-free tuples with CompareTuples (the
// certain-data matcher, run per possible world) and one alternative pair
// of an x-tuple pair at a time with CompareAltsInto, which package xmatch
// folds over; no K×L matrix is ever built. Pairwise value similarities
// are memoized per attribute in a bounded, sharded Cache, which matters
// because blocking/SNM evaluate the same value pairs many times.
//
// A Matcher is safe for concurrent use, and several matchers may share
// one Cache (NewMatcherWithCache) — the detection engine does exactly
// that when Options.CacheCapacity opts in, so parallel workers hit each
// other's memoized pairs while total cache memory stays bounded by the
// configured capacity regardless of the worker count; by default its
// matchers get a nil cache and memoize nothing.
type Matcher struct {
	// Funcs holds the comparison function of each attribute, by schema
	// position.
	Funcs []strsim.Func
	// Nulls is the ⊥ semantics; zero value means PaperNulls.
	Nulls *NullSemantics

	cache *Cache
}

// NewMatcher builds a Matcher with one comparison function per attribute
// and a private cache of DefaultCacheCapacity entries.
func NewMatcher(funcs ...strsim.Func) *Matcher {
	return &Matcher{Funcs: funcs, cache: NewCache(DefaultCacheCapacity)}
}

// NewMatcherWithCache builds a Matcher memoizing into the given (possibly
// shared) cache. A nil cache disables memoization: every value pair is
// recomputed, which is the right reference when testing cache behavior.
//
// Cache entries are keyed by attribute position and value pair, not by
// comparison function, so all matchers sharing one cache MUST use the
// same Funcs (as the detection engine's workers do). Sharing a cache
// between matchers with different comparison functions silently mixes
// their memoized similarities.
func NewMatcherWithCache(cache *Cache, funcs ...strsim.Func) *Matcher {
	return &Matcher{Funcs: funcs, cache: cache}
}

func (m *Matcher) nulls() NullSemantics {
	if m.Nulls != nil {
		return *m.Nulls
	}
	return PaperNulls
}

// valueSim memoizes the comparison function of attribute k on existing
// values under their interned symbol pair. Values that carry no symbol
// (a relation that was never interned) are computed directly.
func (m *Matcher) valueSim(k int, a, b pdb.Value) float64 {
	sa, sb := a.Sym(), b.Sym()
	if m.cache == nil || sa == 0 || sb == 0 {
		return m.Funcs[k](a.S(), b.S())
	}
	if sa > sb {
		sa, sb = sb, sa
	}
	key := symKey{attr: uint32(k), a: sa, b: sb}
	if v, ok := m.cache.get(key); ok {
		return v
	}
	v := m.Funcs[k](a.S(), b.S())
	m.cache.put(key, v)
	return v
}

// AttrSim computes Eq. 5 for attribute k with memoization.
func (m *Matcher) AttrSim(k int, a1, a2 pdb.Dist) float64 {
	ns := m.nulls()
	return ns.sim(a1, a2, func(x, y pdb.Value) float64 { return m.valueSim(k, x, y) })
}

// CompareTuples computes the comparison vector c⃗ of two dependency-free
// tuples. Tuple membership probabilities are deliberately ignored
// (Sec. IV: only attribute-level uncertainty influences matching).
func (m *Matcher) CompareTuples(t1, t2 *pdb.Tuple) Vector {
	return m.CompareTuplesInto(nil, t1, t2)
}

// CompareTuplesInto is CompareTuples writing into dst (grown as needed),
// for allocation-free callers.
func (m *Matcher) CompareTuplesInto(dst Vector, t1, t2 *pdb.Tuple) Vector {
	dst = growVector(dst, len(m.Funcs))
	for k := range m.Funcs {
		dst[k] = m.AttrSim(k, t1.Attrs[k], t2.Attrs[k])
	}
	return dst
}

// CompareAltsInto computes into dst (grown as needed) the comparison
// vector c⃗ᵢⱼ of two alternative tuples, whose attribute values may
// themselves be uncertain (e.g. 'mu*'). It is the kernel of the x-tuple
// comparison in package xmatch: the caller reuses one scratch vector
// across all K×L alternative pairs.
func (m *Matcher) CompareAltsInto(dst Vector, a1, a2 pdb.Alt) Vector {
	dst = growVector(dst, len(m.Funcs))
	for k := range m.Funcs {
		dst[k] = m.AttrSim(k, a1.Values[k], a2.Values[k])
	}
	return dst
}

// growVector returns dst resized to n, reallocating only when capacity is
// insufficient.
func growVector(dst Vector, n int) Vector {
	if cap(dst) < n {
		return make(Vector, n)
	}
	return dst[:n]
}

// CacheSize reports the number of memoized value pairs per attribute
// (diagnostics for benchmarks). With a shared cache the counts cover
// every matcher attached to it.
func (m *Matcher) CacheSize() []int {
	if m.cache == nil {
		return make([]int, len(m.Funcs))
	}
	return m.cache.SizeByAttr(len(m.Funcs))
}

// CacheStats reports aggregate hit/miss/eviction counters of the
// matcher's cache (zero value when memoization is disabled).
func (m *Matcher) CacheStats() CacheStats {
	if m.cache == nil {
		return CacheStats{}
	}
	return m.cache.Stats()
}
