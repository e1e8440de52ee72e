package strsim

import (
	"math/bits"
	"reflect"

	"probdedup/internal/sym"
)

// This file gives the candidate pre-filter (internal/ssr) sound
// similarity upper bounds: for each comparison function it can bound,
// BoundFor returns a SimBound deriving from two values' precomputed
// symbol records (rune length, gram signature — see internal/sym) and
// their gram overlap a value provably ≥ the function's result on the
// underlying strings. The bounds are the classic
// length and q-gram count filters of approximate string joins
// (PPJoin-family): an edit operation changes at most q padded grams
// (q+1 for a transposition), so gram-multiset overlap lower-bounds
// edit similarity from above. Hashed grams (q > sym.MaxExactQ) can
// only merge distinct grams, over-counting overlap — the bounds stay
// sound, they just reject less.
//
// Every bound that reads the gram overlap is non-decreasing in it, so
// it can be evaluated at two tiers (see Tier and GramOverlap): with the
// O(1) signature estimate of the overlap, or with the exact multiset
// merge. The estimate never undercounts, hence quick bound ≥ exact
// bound ≥ true similarity, and a pair the quick tier rejects the exact
// tier rejects too.

// Tier selects how a bound estimates the gram-multiset overlap of two
// values.
type Tier uint8

const (
	// TierQuick estimates the overlap from the two 16-byte records
	// alone: every signature bucket of a that b lacks holds at least one
	// gram of a without a partner in b, so
	// overlap ≤ min(|Ga| − popcount(Sa &^ Sb), |Gb| − popcount(Sb &^ Sa)).
	TierQuick Tier = iota
	// TierExact merges the two sorted gram multisets the table keeps
	// (sym.Overlap).
	TierExact
)

// GramOverlap returns the tier's estimate of the gram-multiset overlap
// of two values of tab: QuickOverlap at TierQuick, the exact count at
// TierExact, which merges both multisets from the table unless the
// quick estimate already proves the overlap empty.
func GramOverlap(tab *sym.Table, a, b *sym.Stats, t Tier) int {
	o := QuickOverlap(a, b, tab.Q())
	if t == TierExact && o > 0 {
		return sym.Overlap(tab.Grams(a.Sym), tab.Grams(b.Sym))
	}
	return o
}

// QuickOverlap is the TierQuick estimate of the gram-multiset overlap of
// two values of a table with gram size q, from their records alone.
// Disjoint signatures (and so a table without grams, or a zero Stats)
// prove an empty overlap; otherwise it is positive. It is small enough
// to inline into the pre-filter's cascade.
func QuickOverlap(a, b *sym.Stats, q int) int {
	if a.Sig&b.Sig == 0 {
		return 0
	}
	// Intersecting signatures: both values have n+q−1 grams.
	q--
	return min(int(a.Len)+q-bits.OnesCount64(a.Sig&^b.Sig), int(b.Len)+q-bits.OnesCount64(b.Sig&^a.Sig))
}

// SimBound bounds a comparison function from two symbol records, the
// gram size q of their table (0: the table keeps no grams, and overlap
// carries no information) and an upper estimate of their gram-multiset
// overlap (GramOverlap). It must return a value ≥ f(a, b) for the
// strings the two Stats were computed from whenever overlap is at least
// their true overlap, and be non-decreasing in overlap, so the
// TierQuick estimate bounds at least as high as the TierExact count.
// Bounds are consulted only for interned values; a SimBound must return
// 1 (no information) when either Stats is zero, and returns 1 at once
// for two Stats of one symbol (equal strings). The Stats are read-only.
type SimBound func(a, b *sym.Stats, q, overlap int) float64

// boundRegistry maps a Func's code pointer to its bound. Populated
// only in init, read-only afterwards, hence safe for concurrent use.
var boundRegistry = map[uintptr]SimBound{}

func funcPtr(f Func) uintptr { return reflect.ValueOf(f).Pointer() }

// RegisterBound associates a sound upper bound with a comparison
// function, keyed by the function's code pointer. Closures returned by
// one constructor share a single code pointer regardless of the
// captured parameters, so a registered bound MUST be sound for every
// instance the constructor can return (the built-in registrations
// are). Not safe to call concurrently with BoundFor; register at init
// time.
func RegisterBound(f Func, b SimBound) { boundRegistry[funcPtr(f)] = b }

// BoundFor returns the registered upper bound of f. Callers must treat
// a missing bound as "no information" (upper bound 1).
func BoundFor(f Func) (SimBound, bool) {
	b, ok := boundRegistry[funcPtr(f)]
	return b, ok
}

// guard wraps a bound so zero (un-interned) Stats and two Stats of one
// symbol yield 1 without evaluating it: equal strings compare as 1
// under every registered function, and inside a block the key
// attribute is exactly that case for every pair.
func guard(b SimBound) SimBound {
	return func(x, y *sym.Stats, q, overlap int) float64 {
		if x.Sym == y.Sym || x.Sym == sym.NoSym || y.Sym == sym.NoSym {
			return 1
		}
		return b(x, y, q, overlap)
	}
}

func init() {
	RegisterBound(Exact, guard(boundExact))
	RegisterBound(NormalizedHamming, guard(boundMinOverMax))
	RegisterBound(Levenshtein, guard(boundLevenshtein))
	// Every BandedLevenshtein closure returns either the exact
	// Levenshtein similarity or 0, so the Levenshtein bound is sound
	// for all instances (they share one code pointer).
	RegisterBound(BandedLevenshtein(0), guard(boundLevenshtein))
	RegisterBound(DamerauLevenshtein, guard(boundOSA))
	RegisterBound(Jaro, guard(boundJaro))
	RegisterBound(JaroWinkler, guard(boundJaroWinkler))
	RegisterBound(CommonPrefix, guard(boundCommonPrefix))
	RegisterBound(LongestCommonSubstring, guard(boundLCS))
	// The q-gram closures capture their gram size, which the shared
	// code pointer cannot expose, so only the q-independent envelope is
	// sound: 1 in general, 0 when exactly one side is empty. Both the
	// packed (q ≤ sym.MaxExactQ) and the string-kernel closure families
	// are registered.
	RegisterBound(QGramDice(2), guard(boundEmptyOrOne))
	RegisterBound(QGramDice(sym.MaxExactQ+1), guard(boundEmptyOrOne))
	RegisterBound(QGramJaccard(2), guard(boundEmptyOrOne))
	RegisterBound(QGramJaccard(sym.MaxExactQ+1), guard(boundEmptyOrOne))
}

// The raw bounds below are reached only through guard: their two Stats
// belong to distinct symbols, hence to distinct strings, so at most one
// of them is empty and maxLen ≥ 1.

// boundExact: distinct symbols are distinct strings, so Exact is 0.
func boundExact(_, _ *sym.Stats, _, _ int) float64 { return 0 }

// boundMinOverMax bounds any function whose value is at most
// matchingPositions/maxLen with matchingPositions ≤ minLen
// (NormalizedHamming, and the fallback inside other bounds).
func boundMinOverMax(a, b *sym.Stats, _, _ int) float64 {
	mn, mx := minMaxLen(a, b)
	return float64(mn) / float64(mx)
}

// editLB lower-bounds the edit distance of the two strings: the length
// filter |la−lb|, strengthened by the count filter ⌈(Gmax−overlap)/perOp⌉
// when the table keeps grams (q > 0). perOp is the maximum number of
// padded grams one edit operation can change: q for unit edits, q+1
// when adjacent transposition is also allowed.
func editLB(a, b *sym.Stats, q, overlap int, transpositions bool) int {
	mn, mx := minMaxLen(a, b)
	lb := mx - mn
	if q <= 0 {
		return lb
	}
	gmax := max(a.GramCount(q), b.GramCount(q))
	perOp := q
	if transpositions {
		perOp++
	}
	if diff := gmax - overlap; diff > 0 {
		if g := (diff + perOp - 1) / perOp; g > lb {
			return g
		}
	}
	return lb
}

// boundEditSim turns an edit-distance lower bound into a similarity
// upper bound 1 − edLB/maxLen. It is never negative: a string of n ≥ 1
// runes has n+q−1 padded grams and ⌈(n+q−1)/q⌉ ≤ n, so neither the
// length filter nor the count filter exceeds maxLen.
func boundEditSim(a, b *sym.Stats, q, overlap int, transpositions bool) float64 {
	_, mx := minMaxLen(a, b)
	return 1 - float64(editLB(a, b, q, overlap, transpositions))/float64(mx)
}

func boundLevenshtein(a, b *sym.Stats, q, overlap int) float64 {
	return boundEditSim(a, b, q, overlap, false)
}

func boundOSA(a, b *sym.Stats, q, overlap int) float64 { return boundEditSim(a, b, q, overlap, true) }

// fpSlack absorbs floating-point drift between a bound and the kernel
// it dominates: the Jaro family sums three individually rounded terms,
// so the mathematically equal bound can land a few ulps below the
// kernel's value. Only bounds built from multi-term sums need it;
// the single-division bounds are monotone in their integer numerators
// and never drift.
const fpSlack = 1e-12

// boundJaro: Jaro matches at most minLen runes, so
// m/la + m/lb ≤ 1 + min/max and (m−t)/m ≤ 1.
func boundJaro(a, b *sym.Stats, _, _ int) float64 {
	mn, mx := minMaxLen(a, b)
	if mn == 0 {
		return 0
	}
	ub := (2+float64(mn)/float64(mx))/3 + fpSlack
	if ub > 1 {
		return 1
	}
	return ub
}

// boundJaroWinkler: jw = j + p·0.1·(1−j) is increasing in both j and
// the common-prefix length p, with p ≤ min(4, minLen) — and p = 0 when
// the gram overlap is provably empty, because the first padded gram of
// each string determines its first rune.
func boundJaroWinkler(a, b *sym.Stats, q, overlap int) float64 {
	mn, mx := minMaxLen(a, b)
	if mn == 0 {
		return 0
	}
	j := (2 + float64(mn)/float64(mx)) / 3
	pmax := 4
	if mn < pmax {
		pmax = mn
	}
	if q > 0 && overlap == 0 {
		pmax = 0
	}
	ub := j + float64(pmax)*0.1*(1-j) + fpSlack
	if ub > 1 {
		return 1
	}
	return ub
}

// boundCommonPrefix: the common prefix is at most minLen runes, and
// empty when the gram overlap is provably empty (shared first rune ⇒
// shared first padded gram).
func boundCommonPrefix(a, b *sym.Stats, q, overlap int) float64 {
	mn, mx := minMaxLen(a, b)
	if mn == 0 {
		return 0
	}
	if q > 0 && overlap == 0 {
		return 0
	}
	return float64(mn) / float64(mx)
}

// boundLCS: a common substring of length L ≥ q contributes L−q+1
// shared interior grams, so L ≤ overlap+q−1; without usable grams the
// substring is at most minLen.
func boundLCS(a, b *sym.Stats, q, overlap int) float64 {
	mn, mx := minMaxLen(a, b)
	if mn == 0 {
		return 0
	}
	lcs := mn
	if q > 0 {
		lcs = min(lcs, overlap+q-1)
	}
	return float64(lcs) / float64(mx)
}

// boundEmptyOrOne is the q-independent envelope of the q-gram
// coefficients: 1 in general, 0 when one side is empty.
func boundEmptyOrOne(a, b *sym.Stats, _, _ int) float64 {
	if mn, _ := minMaxLen(a, b); mn == 0 {
		return 0
	}
	return 1
}

func minMaxLen(a, b *sym.Stats) (int, int) {
	if a.Len < b.Len {
		return int(a.Len), int(b.Len)
	}
	return int(b.Len), int(a.Len)
}
