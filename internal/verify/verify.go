// Package verify implements the verification step of Sec. III-E: recall,
// precision, false negative percentage, false positive percentage and
// F1-measure of a duplicate detection run, plus the standard quality
// measures of search-space reduction methods (reduction ratio, pairs
// completeness, pair quality).
package verify

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// Pair is an unordered tuple-ID pair; use NewPair so that (a,b) and (b,a)
// are the same key.
type Pair struct {
	A, B string
}

// NewPair returns the canonical ordering of a pair.
func NewPair(a, b string) Pair {
	if b < a {
		a, b = b, a
	}
	return Pair{A: a, B: b}
}

// PairSet is a set of unordered pairs.
type PairSet map[Pair]bool

// NewPairSet builds a set from pairs.
func NewPairSet(pairs ...Pair) PairSet {
	s := make(PairSet, len(pairs))
	for _, p := range pairs {
		s[NewPair(p.A, p.B)] = true
	}
	return s
}

// Add inserts a pair in canonical form.
func (s PairSet) Add(a, b string) { s[NewPair(a, b)] = true }

// Has reports membership in either order.
func (s PairSet) Has(a, b string) bool { return s[NewPair(a, b)] }

// ComparePairs orders pairs by A, then B — the one pair order of every
// deterministic output (use with slices.SortFunc).
func ComparePairs(a, b Pair) int {
	return cmp.Or(strings.Compare(a.A, b.A), strings.Compare(a.B, b.B))
}

// Sorted returns the pairs in ComparePairs order (for deterministic
// output).
func (s PairSet) Sorted() []Pair {
	out := make([]Pair, 0, len(s))
	for p := range s {
		out = append(out, p)
	}
	slices.SortFunc(out, ComparePairs)
	return out
}

// Report holds the effectiveness measures of one detection run.
type Report struct {
	// TP, FP, FN, TN are the confusion counts over compared pairs, where
	// "positive" means declared match (set M). Possible matches (set P) are
	// counted separately and excluded from the confusion matrix.
	TP, FP, FN, TN int
	// Possible is |P|: pairs deferred to clerical review.
	Possible int
	// PossibleDuplicates counts the members of P that are true duplicates.
	PossibleDuplicates int
}

// Evaluate compares declared matches M and possible matches P against the
// ground truth over the given universe of compared pairs. Pairs in the
// universe that appear in neither M nor P count as declared non-matches.
func Evaluate(matches, possible, truth PairSet, universe []Pair) Report {
	var r Report
	for _, p := range universe {
		isDup := truth[NewPair(p.A, p.B)]
		switch {
		case matches[NewPair(p.A, p.B)]:
			if isDup {
				r.TP++
			} else {
				r.FP++
			}
		case possible[NewPair(p.A, p.B)]:
			r.Possible++
			if isDup {
				r.PossibleDuplicates++
			}
		default:
			if isDup {
				r.FN++
			} else {
				r.TN++
			}
		}
	}
	return r
}

// Precision is TP/(TP+FP); 1.0 when nothing was declared.
func (r Report) Precision() float64 {
	if r.TP+r.FP == 0 {
		return 1
	}
	return float64(r.TP) / float64(r.TP+r.FP)
}

// Recall is TP/(TP+FN); 1.0 when no true duplicates exist.
func (r Report) Recall() float64 {
	if r.TP+r.FN == 0 {
		return 1
	}
	return float64(r.TP) / float64(r.TP+r.FN)
}

// F1 is the harmonic mean of precision and recall.
func (r Report) F1() float64 {
	p, q := r.Precision(), r.Recall()
	if p+q == 0 {
		return 0
	}
	return 2 * p * q / (p + q)
}

// FalsePositivePct is FP / declared matches.
func (r Report) FalsePositivePct() float64 {
	if r.TP+r.FP == 0 {
		return 0
	}
	return float64(r.FP) / float64(r.TP+r.FP)
}

// FalseNegativePct is FN / true duplicates.
func (r Report) FalseNegativePct() float64 {
	if r.TP+r.FN == 0 {
		return 0
	}
	return float64(r.FN) / float64(r.TP+r.FN)
}

// String renders the report as one summary line.
func (r Report) String() string {
	return fmt.Sprintf("TP=%d FP=%d FN=%d TN=%d |P|=%d precision=%.4f recall=%.4f F1=%.4f",
		r.TP, r.FP, r.FN, r.TN, r.Possible, r.Precision(), r.Recall(), r.F1())
}

// Reduction holds the quality measures of a search-space reduction method.
type Reduction struct {
	// CandidatePairs is the number of pairs the method emits.
	CandidatePairs int
	// TotalPairs is the size of the full cross product n(n-1)/2 (plus
	// cross-source pairs when applicable).
	TotalPairs int
	// TrueInCandidates counts true duplicate pairs among the candidates.
	TrueInCandidates int
	// TrueTotal counts all true duplicate pairs.
	TrueTotal int
}

// ReductionRatio is 1 − candidates/total: the fraction of comparisons
// avoided.
func (r Reduction) ReductionRatio() float64 {
	if r.TotalPairs == 0 {
		return 0
	}
	return 1 - float64(r.CandidatePairs)/float64(r.TotalPairs)
}

// PairsCompleteness is the fraction of true duplicate pairs retained by the
// reduction (the recall upper bound any downstream decision model can
// reach).
func (r Reduction) PairsCompleteness() float64 {
	if r.TrueTotal == 0 {
		return 1
	}
	return float64(r.TrueInCandidates) / float64(r.TrueTotal)
}

// PairQuality is the fraction of candidates that are true duplicates.
func (r Reduction) PairQuality() float64 {
	if r.CandidatePairs == 0 {
		return 1
	}
	return float64(r.TrueInCandidates) / float64(r.CandidatePairs)
}

// String renders the reduction measures as one summary line.
func (r Reduction) String() string {
	return fmt.Sprintf("candidates=%d/%d RR=%.4f PC=%.4f PQ=%.4f",
		r.CandidatePairs, r.TotalPairs, r.ReductionRatio(), r.PairsCompleteness(), r.PairQuality())
}

// Table is a minimal fixed-width text table builder used by the experiment
// harness to print paper-style result tables.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for pad := len(c); pad < widths[i]; pad++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
