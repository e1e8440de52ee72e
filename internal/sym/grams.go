package sym

import (
	"slices"
	"unicode/utf8"
)

// PadRune pads values shorter than the gram size on both sides,
// matching the convention of the string-based q-gram kernels in
// internal/strsim so the packed kernels agree with them bit for bit.
const PadRune = '#'

// MaxExactQ is the largest gram size whose packed encoding is
// injective: up to three 21-bit rune fields fit a uint64. Larger gram
// sizes fall back to hashing, which can only merge distinct grams —
// over-counting intersections, never under-counting, so every bound
// derived from packed grams stays sound.
const MaxExactQ = 3

// PackedQGrams returns the padded q-gram multiset of s in packed
// uint64 form, sorted ascending. The multiset matches the string-based
// qgrams of internal/strsim exactly: strings are padded on both sides
// with q−1 PadRune occurrences, the empty string has no grams, and a
// string of n ≥ 1 runes yields n+q−1 grams (n for q = 1).
func PackedQGrams(s string, q int) []uint64 {
	if q < 1 {
		q = 1
	}
	if s == "" {
		return nil
	}
	// win holds the last q runes read, the oldest at win[at]: q−1 pad
	// runes to start with, then the string's runes, then q−1 pad runes
	// again — the padded string, never materialized.
	var buf [8]rune
	win := buf[:]
	if q > len(buf) {
		win = make([]rune, q)
	}
	win = win[:q]
	for i := range win {
		win[i] = PadRune
	}
	at := 0
	out := make([]uint64, 0, utf8.RuneCountInString(s)+q-1)
	for _, r := range s {
		win[at] = r
		at = (at + 1) % q
		out = append(out, packGram(win[at:], win[:at]))
	}
	for i := 0; i < q-1; i++ {
		win[at] = PadRune
		at = (at + 1) % q
		out = append(out, packGram(win[at:], win[:at]))
	}
	slices.Sort(out)
	return out
}

// packGram encodes the gram whose runes are head followed by tail (the
// two halves of a ring). Up to MaxExactQ runes each occupy a 21-bit
// field (offset by 1 so NUL differs from absence), which is injective
// for a fixed gram size; longer grams are FNV-1a hashed.
func packGram(head, tail []rune) uint64 {
	if len(head)+len(tail) <= MaxExactQ {
		v := uint64(0)
		for _, r := range head {
			v = v<<21 | (uint64(r) + 1)
		}
		for _, r := range tail {
			v = v<<21 | (uint64(r) + 1)
		}
		return v
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, r := range head {
		h ^= uint64(r)
		h *= prime64
	}
	for _, r := range tail {
		h ^= uint64(r)
		h *= prime64
	}
	return h
}

// GramSig folds a packed gram multiset into a 64-bit membership
// signature: bit i is set when some gram mixes to i. Disjoint
// signatures imply an empty gram intersection.
func GramSig(grams []uint64) uint64 {
	sig := uint64(0)
	for _, g := range grams {
		sig |= 1 << ((g * 0x9E3779B97F4A7C15) >> 58)
	}
	return sig
}

// Overlap returns the multiset intersection size of two sorted packed
// gram multisets (a linear merge — the packed analogue of the
// map-based multiset intersection in internal/strsim).
func Overlap(a, b []uint64) int {
	common, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			common++
			i++
			j++
		}
	}
	return common
}

// Dice returns the q-gram Dice coefficient 2·|common| / (|Qa|+|Qb|)
// over packed gram multisets, agreeing bit for bit with the
// string-based kernel for exact (q ≤ MaxExactQ) packings: two empty
// multisets compare as 1, one empty as 0.
func Dice(a, b []uint64) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	common := Overlap(a, b)
	return 2 * float64(common) / float64(len(a)+len(b))
}

// Jaccard returns the q-gram Jaccard coefficient
// |common| / (|Qa|+|Qb|−|common|) over packed gram multisets, with the
// same empty-multiset convention as Dice.
func Jaccard(a, b []uint64) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	common := Overlap(a, b)
	return float64(common) / float64(len(a)+len(b)-common)
}

// runeLen is utf8.RuneCountInString, local so the hot interning path
// reads naturally.
func runeLen(s string) int { return utf8.RuneCountInString(s) }
