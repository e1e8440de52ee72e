// Package strsim provides normalized comparison functions for certain
// (non-probabilistic) string values, the building blocks of attribute value
// matching (Sec. III-C of the paper). Every function returns a similarity in
// [0,1] with sim(x,x)=1 and sim symmetric.
//
// The paper's running examples use the normalized Hamming similarity
// (e.g. sim(Tim,Kim)=2/3, sim(machinist,mechanic)=5/9, sim(Jim,Tom)=1/3),
// implemented here as NormalizedHamming.
//
// The edit-distance, Jaro and Hamming kernels are allocation-free in
// steady state. Levenshtein on ASCII pairs whose shorter side has 1–64
// bytes runs Myers' bit-vector algorithm straight on the strings, with
// its match table on the stack. Every other DP kernel copies ASCII
// inputs into pooled byte buffers without a []rune conversion, decodes
// non-ASCII inputs into pooled rune buffers, and takes its DP rows from
// the same pool (see scratch.go). All functions are safe for concurrent
// use.
package strsim

import (
	"math"
	"strings"
	"unicode/utf8"

	"probdedup/internal/sym"
)

// Func is a normalized comparison function on certain values.
// Implementations must be symmetric, return values in [0,1], and return 1
// for equal inputs.
type Func func(a, b string) float64

// charElem is the element type the kernels are generic over: byte for the
// ASCII fast path, rune for decoded non-ASCII inputs. Each kernel is
// instantiated once per element type, so the hot ASCII path never pays
// for UTF-8 decoding.
type charElem interface{ ~byte | ~rune }

// Exact returns 1 if the strings are identical and 0 otherwise.
func Exact(a, b string) float64 {
	if a == b {
		return 1
	}
	return 0
}

// NormalizedHamming returns the fraction of positions (over the longer
// string's rune length) holding identical runes. Positions beyond the
// shorter string count as mismatches. This is the comparison function used
// in the paper's worked examples.
func NormalizedHamming(a, b string) float64 {
	if isASCII(a) && isASCII(b) {
		// Read-only O(n) scan: index the strings directly, no pool trip.
		la, lb := len(a), len(b)
		if la == 0 && lb == 0 {
			return 1
		}
		matches := 0
		for i := 0; i < la && i < lb; i++ {
			if a[i] == b[i] {
				matches++
			}
		}
		return float64(matches) / float64(max2(la, lb))
	}
	s := getScratch()
	s.ra, s.rb = runesInto(s.ra, a), runesInto(s.rb, b)
	sim := hammingSim(s.ra, s.rb)
	s.put()
	return sim
}

func hammingSim(a, b []rune) float64 {
	la, lb := len(a), len(b)
	if la == 0 && lb == 0 {
		return 1
	}
	matches := 0
	for i := 0; i < la && i < lb; i++ {
		if a[i] == b[i] {
			matches++
		}
	}
	return float64(matches) / float64(max2(la, lb))
}

// Levenshtein returns 1 − editDistance/maxLen, where editDistance counts
// unit-cost insertions, deletions and substitutions.
func Levenshtein(a, b string) float64 {
	if a == b {
		return 1
	}
	short, long := a, b
	if len(short) > len(long) {
		short, long = long, short
	}
	if len(short) >= 1 && len(short) <= 64 && isASCII(short) && isASCII(long) {
		return 1 - float64(myersDistance(short, long))/float64(len(long))
	}
	s := getScratch()
	var d, n int
	if isASCII(a) && isASCII(b) {
		s.ba, s.bb = bytesInto(s.ba, a), bytesInto(s.bb, b)
		d, n = levenshteinDistance(s.ba, s.bb, s), max2(len(a), len(b))
	} else {
		s.ra, s.rb = runesInto(s.ra, a), runesInto(s.rb, b)
		d, n = levenshteinDistance(s.ra, s.rb, s), max2(len(s.ra), len(s.rb))
	}
	s.put()
	return 1 - float64(d)/float64(n)
}

func levenshteinDistance[E charElem](a, b []E, s *scratch) int {
	la, lb := len(a), len(b)
	if la == 0 {
		return lb
	}
	if lb == 0 {
		return la
	}
	prev := intRow(s.row0, lb+1)
	cur := intRow(s.row1, lb+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		ai := a[i-1]
		for j := 1; j <= lb; j++ {
			cost := 1
			if ai == b[j-1] {
				cost = 0
			}
			cur[j] = min3(cur[j-1]+1, prev[j]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	s.row0, s.row1 = prev, cur
	return prev[lb]
}

// myersDistance is the unit-cost edit distance of ASCII strings whose
// shorter side p has 1–64 bytes, by Myers' bit-vector algorithm in
// Hyyrö's formulation (one DP column per 64-bit word): O(len(t)) word
// operations, no DP rows and no allocation. Bit i of pv/mv says the
// vertical delta D[i+1][j] − D[i][j] is +1/−1; score tracks D[m][j].
func myersDistance(p, t string) int {
	var peq [128]uint64
	for i := 0; i < len(p); i++ {
		peq[p[i]&127] |= 1 << i
	}
	last := uint64(1) << (len(p) - 1)
	pv, mv := ^uint64(0), uint64(0)
	score := len(p)
	for j := 0; j < len(t); j++ {
		eq := peq[t[j]&127]
		xv := eq | mv
		xh := ((eq & pv) + pv) ^ pv | eq
		ph := mv | ^(xh | pv)
		mh := pv & xh
		if ph&last != 0 {
			score++
		} else if mh&last != 0 {
			score--
		}
		// Row 0 of the DP is D[0][j] = j, so every column's top
		// horizontal delta is +1: shift it in.
		ph = ph<<1 | 1
		mh <<= 1
		pv = mh | ^(xv | ph)
		mv = ph & xv
	}
	return score
}

// LevenshteinWithin reports the unit-cost edit distance of a and b when it
// is at most maxDist. It computes only the 2·maxDist+1 diagonal band of
// the DP matrix and exits as soon as every cell of a row exceeds the
// bound, so rejecting dissimilar strings costs O(maxDist·maxLen) instead
// of O(len(a)·len(b)). The second result reports whether the distance is
// within the bound; when it is false the first result is maxDist+1 (a
// lower bound on the true distance).
func LevenshteinWithin(a, b string, maxDist int) (int, bool) {
	if a == b {
		return 0, maxDist >= 0
	}
	if maxDist < 0 {
		return maxDist + 1, false
	}
	s := getScratch()
	var d int
	var ok bool
	if isASCII(a) && isASCII(b) {
		s.ba, s.bb = bytesInto(s.ba, a), bytesInto(s.bb, b)
		d, ok = bandedDistance(s.ba, s.bb, maxDist, s)
	} else {
		s.ra, s.rb = runesInto(s.ra, a), runesInto(s.rb, b)
		d, ok = bandedDistance(s.ra, s.rb, maxDist, s)
	}
	s.put()
	if !ok {
		d = maxDist + 1
	}
	return d, ok
}

// bandedDistance runs the Levenshtein DP restricted to the diagonal band
// |i−j| ≤ k. Cells outside the band are ≥ k+1 by construction, so the
// band plus a one-cell sentinel on each side computes the exact distance
// whenever it is ≤ k.
func bandedDistance[E charElem](a, b []E, k int, s *scratch) (int, bool) {
	la, lb := len(a), len(b)
	if la-lb > k || lb-la > k {
		return k + 1, false
	}
	if la == 0 || lb == 0 {
		return la + lb, true // within k by the length check
	}
	prev := intRow(s.row0, lb+1)
	cur := intRow(s.row1, lb+1)
	hi0 := k
	if hi0 > lb {
		hi0 = lb
	}
	for j := 0; j <= hi0; j++ {
		prev[j] = j
	}
	if hi0+1 <= lb {
		prev[hi0+1] = k + 1 // sentinel one past the band
	}
	for i := 1; i <= la; i++ {
		lo := i - k
		if lo < 1 {
			lo = 1
		}
		hi := i + k
		if hi > lb {
			hi = lb
		}
		if lo == 1 {
			cur[0] = i
		} else {
			cur[lo-1] = k + 1 // left sentinel: outside the band
		}
		rowMin := k + 1
		ai := a[i-1]
		for j := lo; j <= hi; j++ {
			cost := 1
			if ai == b[j-1] {
				cost = 0
			}
			v := min3(cur[j-1]+1, prev[j]+1, prev[j-1]+cost)
			cur[j] = v
			if v < rowMin {
				rowMin = v
			}
		}
		if rowMin > k {
			s.row0, s.row1 = prev, cur
			return k + 1, false
		}
		if hi+1 <= lb {
			cur[hi+1] = k + 1 // right sentinel for the next row's prev[j]
		}
		prev, cur = cur, prev
	}
	s.row0, s.row1 = prev, cur
	d := prev[lb]
	return d, d <= k
}

// BandedLevenshtein returns a thresholded variant of Levenshtein for
// decision models that only act on similarities ≥ minSim: pairs whose
// true Levenshtein similarity is at least minSim get exactly that
// similarity, while more dissimilar pairs short-circuit to 0 through the
// banded early-exit distance (LevenshteinWithin), skipping most of the DP
// matrix. The collapse to 0 below minSim makes the function cheaper but
// non-linear; use it only when everything below minSim is classified
// identically anyway (e.g. minSim ≤ the model's Tλ).
//
// Kept out of the inliner: the bound registry (bounds.go) keys
// comparison functions by code pointer, and inlining a constructor
// clones its closure literal into every caller — each clone gets its
// own code symbol and the registered bound would never be found again.
//
//go:noinline
func BandedLevenshtein(minSim float64) Func {
	if minSim < 0 {
		minSim = 0
	}
	if minSim > 1 {
		minSim = 1
	}
	return func(a, b string) float64 {
		if a == b {
			return 1
		}
		n := RuneLen(a)
		if m := RuneLen(b); m > n {
			n = m
		}
		// sim ≥ minSim ⟺ d ≤ (1−minSim)·n.
		k := int((1 - minSim) * float64(n) * (1 + 1e-12))
		d, ok := LevenshteinWithin(a, b, k)
		if !ok {
			return 0
		}
		return 1 - float64(d)/float64(n)
	}
}

// DamerauLevenshtein returns 1 − distance/maxLen where the distance
// additionally allows transposition of two adjacent runes (the
// optimal-string-alignment variant).
func DamerauLevenshtein(a, b string) float64 {
	if a == b {
		return 1
	}
	s := getScratch()
	var d, n int
	if isASCII(a) && isASCII(b) {
		s.ba, s.bb = bytesInto(s.ba, a), bytesInto(s.bb, b)
		d, n = osaDistance(s.ba, s.bb, s), max2(len(a), len(b))
	} else {
		s.ra, s.rb = runesInto(s.ra, a), runesInto(s.rb, b)
		d, n = osaDistance(s.ra, s.rb, s), max2(len(s.ra), len(s.rb))
	}
	s.put()
	return 1 - float64(d)/float64(n)
}

// osaDistance keeps only the three DP rows the OSA recurrence can reach
// (i−2, i−1, i) instead of the full matrix.
func osaDistance[E charElem](a, b []E, s *scratch) int {
	la, lb := len(a), len(b)
	if la == 0 {
		return lb
	}
	if lb == 0 {
		return la
	}
	prev2 := intRow(s.row0, lb+1)
	prev := intRow(s.row1, lb+1)
	cur := intRow(s.row2, lb+1)
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		ai := a[i-1]
		for j := 1; j <= lb; j++ {
			cost := 1
			if ai == b[j-1] {
				cost = 0
			}
			v := min3(cur[j-1]+1, prev[j]+1, prev[j-1]+cost)
			if i > 1 && j > 1 && ai == b[j-2] && a[i-2] == b[j-1] {
				if t := prev2[j-2] + 1; t < v {
					v = t
				}
			}
			cur[j] = v
		}
		prev2, prev, cur = prev, cur, prev2
	}
	s.row0, s.row1, s.row2 = prev2, prev, cur
	return prev[lb]
}

// Jaro returns the Jaro similarity.
func Jaro(a, b string) float64 {
	s := getScratch()
	var sim float64
	if isASCII(a) && isASCII(b) {
		s.ba, s.bb = bytesInto(s.ba, a), bytesInto(s.bb, b)
		sim = jaroSim(s.ba, s.bb, s)
	} else {
		s.ra, s.rb = runesInto(s.ra, a), runesInto(s.rb, b)
		sim = jaroSim(s.ra, s.rb, s)
	}
	s.put()
	return sim
}

func jaroSim[E charElem](a, b []E, s *scratch) float64 {
	la, lb := len(a), len(b)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := max2(la, lb)/2 - 1
	if window < 0 {
		window = 0
	}
	matchedA := boolRow(s.ma, la)
	matchedB := boolRow(s.mb, lb)
	s.ma, s.mb = matchedA, matchedB
	matches := 0
	for i := 0; i < la; i++ {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window
		if hi >= lb {
			hi = lb - 1
		}
		for j := lo; j <= hi; j++ {
			if !matchedB[j] && a[i] == b[j] {
				matchedA[i] = true
				matchedB[j] = true
				matches++
				break
			}
		}
	}
	if matches == 0 {
		return 0
	}
	transpositions := 0
	j := 0
	for i := 0; i < la; i++ {
		if !matchedA[i] {
			continue
		}
		for !matchedB[j] {
			j++
		}
		if a[i] != b[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	t := float64(transpositions) / 2
	return (m/float64(la) + m/float64(lb) + (m-t)/m) / 3
}

// JaroWinkler returns the Jaro–Winkler similarity with the standard prefix
// scale 0.1 over at most 4 common leading runes.
func JaroWinkler(a, b string) float64 {
	j := Jaro(a, b)
	prefix := 0
	for prefix < 4 {
		ra, na := utf8.DecodeRuneInString(a)
		rb, nb := utf8.DecodeRuneInString(b)
		if na == 0 || nb == 0 || ra != rb {
			break
		}
		prefix++
		a, b = a[na:], b[nb:]
	}
	s := j + float64(prefix)*0.1*(1-j)
	if s > 1 {
		return 1
	}
	return s
}

// QGramDice returns a Func computing the Dice coefficient over q-gram
// multisets: 2·|common| / (|Qa|+|Qb|). Strings shorter than q are padded on
// both sides with q−1 occurrences of '#' so single-rune strings still
// produce grams.
// QGramDice is kept out of the inliner for the same bound-registry
// reason as BandedLevenshtein.
//
//go:noinline
func QGramDice(q int) Func {
	if q >= 1 && q <= sym.MaxExactQ {
		// The packed encoding is injective for these gram sizes, so the
		// sorted-merge kernel is bit-identical to the string kernel and
		// avoids per-gram string allocations.
		return func(a, b string) float64 {
			return sym.Dice(sym.PackedQGrams(a, q), sym.PackedQGrams(b, q))
		}
	}
	return func(a, b string) float64 {
		ga, gb := qgrams(a, q), qgrams(b, q)
		if len(ga) == 0 && len(gb) == 0 {
			return 1
		}
		if len(ga) == 0 || len(gb) == 0 {
			return 0
		}
		common := multisetIntersection(ga, gb)
		return 2 * float64(common) / float64(len(ga)+len(gb))
	}
}

// QGramJaccard returns a Func computing the Jaccard coefficient over q-gram
// multisets: |common| / (|Qa|+|Qb|−|common|).
// QGramJaccard is kept out of the inliner for the same bound-registry
// reason as BandedLevenshtein.
//
//go:noinline
func QGramJaccard(q int) Func {
	if q >= 1 && q <= sym.MaxExactQ {
		return func(a, b string) float64 {
			return sym.Jaccard(sym.PackedQGrams(a, q), sym.PackedQGrams(b, q))
		}
	}
	return func(a, b string) float64 {
		ga, gb := qgrams(a, q), qgrams(b, q)
		if len(ga) == 0 && len(gb) == 0 {
			return 1
		}
		if len(ga) == 0 || len(gb) == 0 {
			return 0
		}
		common := multisetIntersection(ga, gb)
		return float64(common) / float64(len(ga)+len(gb)-common)
	}
}

func qgrams(s string, q int) []string {
	if q < 1 {
		q = 1
	}
	if s == "" {
		return nil
	}
	pad := strings.Repeat("#", q-1)
	r := []rune(pad + s + pad)
	if len(r) < q {
		return nil
	}
	out := make([]string, 0, len(r)-q+1)
	for i := 0; i+q <= len(r); i++ {
		out = append(out, string(r[i:i+q]))
	}
	return out
}

func multisetIntersection(a, b []string) int {
	counts := make(map[string]int, len(a))
	for _, g := range a {
		counts[g]++
	}
	common := 0
	for _, g := range b {
		if counts[g] > 0 {
			counts[g]--
			common++
		}
	}
	return common
}

// LongestCommonSubstring returns |lcs(a,b)| / maxLen, the length of the
// longest contiguous shared substring normalized by the longer string.
func LongestCommonSubstring(a, b string) float64 {
	s := getScratch()
	var sim float64
	if isASCII(a) && isASCII(b) {
		s.ba, s.bb = bytesInto(s.ba, a), bytesInto(s.bb, b)
		sim = lcsSim(s.ba, s.bb, s)
	} else {
		s.ra, s.rb = runesInto(s.ra, a), runesInto(s.rb, b)
		sim = lcsSim(s.ra, s.rb, s)
	}
	s.put()
	return sim
}

func lcsSim[E charElem](a, b []E, s *scratch) float64 {
	la, lb := len(a), len(b)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	prev := intRow(s.row0, lb+1)
	cur := intRow(s.row1, lb+1)
	for j := range prev {
		prev[j] = 0
	}
	best := 0
	for i := 1; i <= la; i++ {
		cur[0] = 0
		ai := a[i-1]
		for j := 1; j <= lb; j++ {
			if ai == b[j-1] {
				cur[j] = prev[j-1] + 1
				if cur[j] > best {
					best = cur[j]
				}
			} else {
				cur[j] = 0
			}
		}
		prev, cur = cur, prev
	}
	s.row0, s.row1 = prev, cur
	return float64(best) / float64(max2(la, lb))
}

// CommonPrefix returns |commonPrefix| / maxLen.
func CommonPrefix(a, b string) float64 {
	if isASCII(a) && isASCII(b) {
		// Read-only O(n) scan: index the strings directly, no pool trip.
		la, lb := len(a), len(b)
		if la == 0 && lb == 0 {
			return 1
		}
		p := 0
		for p < la && p < lb && a[p] == b[p] {
			p++
		}
		return float64(p) / float64(max2(la, lb))
	}
	s := getScratch()
	s.ra, s.rb = runesInto(s.ra, a), runesInto(s.rb, b)
	sim := prefixSim(s.ra, s.rb)
	s.put()
	return sim
}

func prefixSim(a, b []rune) float64 {
	la, lb := len(a), len(b)
	if la == 0 && lb == 0 {
		return 1
	}
	p := 0
	for p < la && p < lb && a[p] == b[p] {
		p++
	}
	return float64(p) / float64(max2(la, lb))
}

// Clamp wraps f so results are forced into [0,1] and NaN becomes 0. Useful
// when composing third-party comparison functions.
func Clamp(f Func) Func {
	return func(a, b string) float64 {
		v := f(a, b)
		if math.IsNaN(v) || v < 0 {
			return 0
		}
		if v > 1 {
			return 1
		}
		return v
	}
}

// RuneLen reports the rune length of s; exposed for key specs that cut
// prefixes of uncertain values.
func RuneLen(s string) int { return utf8.RuneCountInString(s) }

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

func max2(a, b int) int {
	if a > b {
		return a
	}
	return b
}
