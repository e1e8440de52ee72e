package strsim

import (
	"math/bits"
	"reflect"

	"probdedup/internal/sym"
)

// This file gives the candidate pre-filter (internal/ssr) sound
// similarity upper bounds: for each comparison function it can bound,
// BoundFor returns a Bound whose UB derives from two values'
// precomputed symbol records (rune length, gram signature — see
// internal/sym) and their gram overlap a value provably ≥ the
// function's result on the underlying strings. The bounds are the
// classic length and q-gram count filters of approximate string joins
// (PPJoin-family): an edit operation changes at most q padded grams
// (q+1 for a transposition), so gram-multiset overlap lower-bounds
// edit similarity from above. Hashed grams (q > sym.MaxExactQ) can
// only merge distinct grams, over-counting overlap — the bounds stay
// sound, they just reject less.
//
// Every bound that reads the gram overlap is non-decreasing in it, so
// it can be evaluated at two tiers: with the O(1) signature estimate of
// the overlap (QuickOverlap), or with the exact multiset merge
// (sym.Overlap). The estimate never undercounts, hence quick bound ≥
// exact bound ≥ true similarity, and a pair the quick tier rejects the
// exact tier rejects too.

// QuickOverlap is the quick tier's estimate of the gram-multiset
// overlap of two values of a table with gram size q, from their records
// alone: every signature bucket of a that b lacks holds at least one
// gram of a without a partner in b, so
// overlap ≤ min(|Ga| − popcount(Sa &^ Sb), |Gb| − popcount(Sb &^ Sa)).
// Disjoint signatures (and so a table without grams, or a zero Stats)
// prove an empty overlap; otherwise it is positive.
func QuickOverlap(a, b *sym.Stats, q int) int {
	if a.Sig&b.Sig == 0 {
		return 0
	}
	// Intersecting signatures: both values have n+q−1 grams.
	q--
	return min(int(a.Len)+q-bits.OnesCount64(a.Sig&^b.Sig), int(b.Len)+q-bits.OnesCount64(b.Sig&^a.Sig))
}

// Bound names the upper bound of one comparison function. The bounds
// form a closed set, so the pre-filter's cascade applies them directly
// (MaxUB), with no indirect call per value pair. The zero Bound is the
// bound of an unregistered function: no information, UB 1.
type Bound uint8

const (
	_ Bound = iota // the zero Bound
	// editBound bounds Levenshtein: the length filter strengthened by
	// the count filter at q grams per edit.
	editBound
	// osaBound bounds DamerauLevenshtein: the same filters at q+1 grams
	// per edit, since an adjacent transposition changes q+1.
	osaBound
	// exactBound bounds Exact: distinct symbols are distinct strings.
	exactBound
	// minOverMaxBound bounds any function whose value is at most
	// matchingPositions/maxLen with matchingPositions ≤ minLen
	// (NormalizedHamming).
	minOverMaxBound
	// jaroBound bounds Jaro: it matches at most minLen runes, so
	// m/la + m/lb ≤ 1 + min/max and (m−t)/m ≤ 1.
	jaroBound
	// jaroWinklerBound bounds JaroWinkler: jw = j + p·0.1·(1−j) is
	// increasing in both j and the common-prefix length p, with
	// p ≤ min(4, minLen) — and p = 0 when the gram overlap is provably
	// empty, because the first padded gram of each string determines its
	// first rune.
	jaroWinklerBound
	// commonPrefixBound bounds CommonPrefix: the common prefix is at most
	// minLen runes, and empty when the gram overlap is provably empty
	// (shared first rune ⇒ shared first padded gram).
	commonPrefixBound
	// lcsBound bounds LongestCommonSubstring: a common substring of
	// length L ≥ q contributes L−q+1 shared interior grams, so
	// L ≤ overlap+q−1; without usable grams the substring is at most
	// minLen.
	lcsBound
	// emptyOrOneBound is the q-independent envelope of the q-gram
	// coefficients: 1 in general, 0 when one side is empty.
	emptyOrOneBound
)

// UB bounds the bound's comparison function from two symbol records,
// the gram size q of their table (0: the table keeps no grams, and
// overlap carries no information) and an upper estimate of their
// gram-multiset overlap. It returns a value ≥ f(a, b) for the strings
// the two Stats were computed from whenever overlap is at least their
// true overlap, and is non-decreasing in overlap, so the quick tier's
// estimate bounds at least as high as the exact count. It returns 1 (no
// information) when either Stats is zero, and 1 at once for two Stats
// of one symbol: equal strings compare as 1 under every registered
// function, and inside a block the key attribute is exactly that case
// for every pair. The Stats are read-only.
func (b Bound) UB(x, y *sym.Stats, q, overlap int) float64 {
	if x.Sym == y.Sym || x.Sym == sym.NoSym || y.Sym == sym.NoSym {
		return 1
	}
	if b == editBound || b == osaBound {
		return editUB(x, y, q, overlap, b == osaBound)
	}
	return b.ub(x, y, q, overlap)
}

// MaxUB returns the largest of floor and UB over every pair of a value
// of xs and a value of ys, capped at 1: the pre-filter's bound of one
// attribute. Without grams each pair's overlap is the quick tier's
// QuickOverlap; with grams it is the exact count, merged from the view
// unless the estimate proves it empty. Two Stats of one symbol bound to
// 1 and pay no merge. The loop applies the bound to each pair without a
// call, and computes the edit-distance bounds in line.
func (b Bound) MaxUB(xs, ys []sym.Stats, q int, floor float64, grams *sym.GramView) float64 {
	best := floor
	for i := range xs {
		x := &xs[i]
		var xg []uint64
		for j := range ys {
			y := &ys[j]
			if x.Sym == y.Sym || x.Sym == sym.NoSym || y.Sym == sym.NoSym {
				return 1
			}
			overlap := QuickOverlap(x, y, q)
			if grams != nil && overlap > 0 {
				if xg == nil {
					xg = grams.Grams(x.Sym)
				}
				overlap = sym.Overlap(xg, grams.Grams(y.Sym))
			}
			var v float64
			if b == editBound || b == osaBound {
				v = editUB(x, y, q, overlap, b == osaBound)
			} else {
				v = b.ub(x, y, q, overlap)
			}
			if v > best {
				if v >= 1 {
					return 1
				}
				best = v
			}
		}
	}
	return min(best, 1)
}

// editUB is UB of the edit-distance bounds for two distinct symbols,
// hence distinct strings: at most one of them is empty and mx ≥ 1. The
// edit distance is at least the length filter mx−mn and, when the table
// keeps grams, at least the count filter ⌈(Gmax−overlap)/perOp⌉, where
// Gmax = mx+q−1 is the larger gram multiset and perOp the most padded
// grams one edit changes: q, or q+1 with transpositions. The result is
// never negative: a string of n ≥ 1 runes has n+q−1 padded grams and
// ⌈(n+q−1)/q⌉ ≤ n, so neither filter exceeds mx.
func editUB(x, y *sym.Stats, q, overlap int, transpositions bool) float64 {
	mx := int(max(x.Len, y.Len))
	lb := mx - int(min(x.Len, y.Len))
	if diff := mx + q - 1 - overlap; q > 0 && diff > 0 {
		perOp := q
		if transpositions {
			perOp++
		}
		lb = max(lb, (diff+perOp-1)/perOp)
	}
	return 1 - float64(lb)/float64(mx)
}

// ub is UB for every bound but the edit distance's, past the guard:
// the two Stats belong to distinct symbols, hence to distinct strings,
// so at most one of them is empty and mx ≥ 1. The zero Bound falls
// through to 1.
func (b Bound) ub(x, y *sym.Stats, q, overlap int) float64 {
	mn, mx := int(min(x.Len, y.Len)), int(max(x.Len, y.Len))
	switch b {
	case exactBound:
		return 0
	case minOverMaxBound:
		return float64(mn) / float64(mx)
	case jaroBound:
		if mn == 0 {
			return 0
		}
		return min((2+float64(mn)/float64(mx))/3+fpSlack, 1)
	case jaroWinklerBound:
		if mn == 0 {
			return 0
		}
		j := (2 + float64(mn)/float64(mx)) / 3
		pmax := min(4, mn)
		if q > 0 && overlap == 0 {
			pmax = 0
		}
		return min(j+float64(pmax)*0.1*(1-j)+fpSlack, 1)
	case commonPrefixBound:
		if mn == 0 || (q > 0 && overlap == 0) {
			return 0
		}
		return float64(mn) / float64(mx)
	case lcsBound:
		if mn == 0 {
			return 0
		}
		lcs := mn
		if q > 0 {
			lcs = min(lcs, overlap+q-1)
		}
		return float64(lcs) / float64(mx)
	case emptyOrOneBound:
		if mn == 0 {
			return 0
		}
	}
	return 1
}

// fpSlack absorbs floating-point drift between a bound and the kernel
// it dominates: the Jaro family sums three individually rounded terms,
// so the mathematically equal bound can land a few ulps below the
// kernel's value. Only bounds built from multi-term sums need it;
// the single-division bounds are monotone in their integer numerators
// and never drift.
const fpSlack = 1e-12

// boundRegistry maps a Func's code pointer to its Bound kind. The kinds
// are the closed set above: a new bound is a new kind with its case in
// editUB or ub, registered in init. Populated only in init, read-only
// afterwards, hence safe for concurrent use.
var boundRegistry = map[uintptr]Bound{}

func funcPtr(f Func) uintptr { return reflect.ValueOf(f).Pointer() }

// RegisterBound associates a sound upper bound with a comparison
// function, keyed by the function's code pointer. Closures returned by
// one constructor share a single code pointer regardless of the
// captured parameters, so a registered bound MUST be sound for every
// instance the constructor can return (the built-in registrations
// are). Not safe to call concurrently with BoundFor; register at init
// time.
func RegisterBound(f Func, b Bound) { boundRegistry[funcPtr(f)] = b }

// BoundFor returns the registered upper bound of f. A missing bound is
// reported as the zero Bound, whose UB is 1 (no information).
func BoundFor(f Func) (Bound, bool) {
	b, ok := boundRegistry[funcPtr(f)]
	return b, ok
}

func init() {
	RegisterBound(Exact, exactBound)
	RegisterBound(NormalizedHamming, minOverMaxBound)
	RegisterBound(Levenshtein, editBound)
	// Every BandedLevenshtein closure returns either the exact
	// Levenshtein similarity or 0, so the Levenshtein bound is sound
	// for all instances (they share one code pointer).
	RegisterBound(BandedLevenshtein(0), editBound)
	RegisterBound(DamerauLevenshtein, osaBound)
	RegisterBound(Jaro, jaroBound)
	RegisterBound(JaroWinkler, jaroWinklerBound)
	RegisterBound(CommonPrefix, commonPrefixBound)
	RegisterBound(LongestCommonSubstring, lcsBound)
	// The q-gram closures capture their gram size, which the shared
	// code pointer cannot expose, so only the q-independent envelope is
	// sound: 1 in general, 0 when exactly one side is empty. Both the
	// packed (q ≤ sym.MaxExactQ) and the string-kernel closure families
	// are registered.
	RegisterBound(QGramDice(2), emptyOrOneBound)
	RegisterBound(QGramDice(sym.MaxExactQ+1), emptyOrOneBound)
	RegisterBound(QGramJaccard(2), emptyOrOneBound)
	RegisterBound(QGramJaccard(sym.MaxExactQ+1), emptyOrOneBound)
}
