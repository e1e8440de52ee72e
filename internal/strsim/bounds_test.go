package strsim

import (
	"fmt"
	"math/rand"
	"testing"

	"probdedup/internal/sym"
)

// boundedFuncs enumerates every comparison function with a registered
// bound, paired with a concrete instance to evaluate. Closure families
// (BandedLevenshtein, the q-gram constructors) contribute several
// instances per registration, because one registered bound must be
// sound for every instance sharing the code pointer.
func boundedFuncs() map[string]Func {
	return map[string]Func{
		"Exact":                  Exact,
		"NormalizedHamming":      NormalizedHamming,
		"Levenshtein":            Levenshtein,
		"BandedLevenshtein(1)":   BandedLevenshtein(1),
		"BandedLevenshtein(3)":   BandedLevenshtein(3),
		"DamerauLevenshtein":     DamerauLevenshtein,
		"Jaro":                   Jaro,
		"JaroWinkler":            JaroWinkler,
		"CommonPrefix":           CommonPrefix,
		"LongestCommonSubstring": LongestCommonSubstring,
		"QGramDice(1)":           QGramDice(1),
		"QGramDice(2)":           QGramDice(2),
		"QGramDice(3)":           QGramDice(3),
		"QGramDice(4)":           QGramDice(4),
		"QGramJaccard(2)":        QGramJaccard(2),
		"QGramJaccard(5)":        QGramJaccard(5),
	}
}

// tier selects the overlap estimate a bound is evaluated at: the quick
// tier's QuickOverlap, or the exact merge of the two gram multisets.
type tier uint8

const (
	tierQuick tier = iota
	tierExact
)

// overlapAt returns the tier's estimate of the gram overlap of two
// records of tab, as MaxUB computes it.
func overlapAt(tab *sym.Table, a, b *sym.Stats, t tier) int {
	o := QuickOverlap(a, b, tab.Q())
	if t == tierExact && o > 0 {
		return sym.Overlap(tab.Grams(a.Sym), tab.Grams(b.Sym))
	}
	return o
}

// boundAt evaluates bound on two records of tab with the tier's
// overlap estimate, as the pre-filter's cascade does.
func boundAt(bound Bound, tab *sym.Table, a, b *sym.Stats, t tier) float64 {
	return bound.UB(a, b, tab.Q(), overlapAt(tab, a, b, t))
}

// checkBoundTiers is the property underpinning the whole candidate
// pre-filter, for one string pair: at every gram size a table can be
// built with — including none (q = 0: lengths only, so every bound
// falls back to its length filter) — and for every registered function,
// the bounds computed from symbol statistics alone satisfy
// quick ≥ exact ≥ f(a, b) — the quick tier may only ever reject what the
// exact tier rejects, and neither a pair the function scores higher —
// they are symmetric, and two Stats of one symbol bound to 1. Under them
// lies the overlap estimator's own contract: quick ≥ exact, and exact
// is the merge of the table's two gram multisets.
func checkBoundTiers(t testing.TB, a, b string) {
	t.Helper()
	for _, q := range []int{0, 1, 2, 3, 4} {
		tab := sym.NewTable(q)
		sa := tab.Stats(tab.Intern(a))
		sb := tab.Stats(tab.Intern(b))
		oq, oe := overlapAt(tab, &sa, &sb, tierQuick), overlapAt(tab, &sa, &sb, tierExact)
		if want := sym.Overlap(tab.Grams(sa.Sym), tab.Grams(sb.Sym)); oe != want || oq < oe {
			t.Fatalf("q=%d (%q, %q): overlap quick %d, exact %d, merge %d", q, a, b, oq, oe, want)
		}
		for name, f := range boundedFuncs() {
			bound, ok := BoundFor(f)
			if !ok {
				t.Fatalf("%s: no bound registered", name)
			}
			actual := f(a, b)
			quick, exact := boundAt(bound, tab, &sa, &sb, tierQuick), boundAt(bound, tab, &sa, &sb, tierExact)
			if exact < actual {
				t.Fatalf("q=%d %s(%q, %q) = %v exceeds exact bound %v", q, name, a, b, actual, exact)
			}
			if quick < exact {
				t.Fatalf("q=%d %s(%q, %q): quick bound %v below exact bound %v", q, name, a, b, quick, exact)
			}
			if quick != boundAt(bound, tab, &sb, &sa, tierQuick) || exact != boundAt(bound, tab, &sb, &sa, tierExact) {
				t.Fatalf("q=%d %s(%q, %q): bound is asymmetric", q, name, a, b)
			}
			if sa.Sym == sb.Sym && (quick != 1 || exact != 1) {
				t.Fatalf("q=%d %s(%q, %q): equal symbols bound to %v/%v, want 1", q, name, a, b, quick, exact)
			}
		}
	}
}

// TestRegisteredBoundsAreSound runs checkBoundTiers over fixed corner
// cases and random Unicode words, each paired with an unrelated word
// and with its own empty, equal, one-edit, transposed and disjoint
// variants.
func TestRegisteredBoundsAreSound(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	alphabet := []rune("abcdeé漢 #x")
	word := func(alphabet []rune) string {
		n := rng.Intn(10)
		rs := make([]rune, n)
		for i := range rs {
			rs[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(rs)
	}
	pairs := [][2]string{
		{"", ""}, {"", "a"}, {"abc", "abc"}, {"abc", "abd"},
		{"martha", "marhta"}, {"dixon", "dicksonx"},
		{"aaaa", "aaaaaaaaaa"}, {"é", "e"},
	}
	for i := 0; i < 150; i++ {
		w := word(alphabet)
		rs := []rune(w)
		edited, swapped := w+"z", w
		if len(rs) > 1 {
			k := rng.Intn(len(rs) - 1)
			sub := append([]rune(nil), rs...)
			sub[k] = 'q'
			edited = [3]string{w + "z", string(rs[:k]) + string(rs[k+1:]), string(sub)}[rng.Intn(3)]
			sw := append([]rune(nil), rs...)
			sw[k], sw[k+1] = sw[k+1], sw[k]
			swapped = string(sw)
		}
		for _, other := range []string{word(alphabet), "", w, edited, swapped, word([]rune("ｗｙzößł"))} {
			pairs = append(pairs, [2]string{w, other})
		}
	}
	for _, p := range pairs {
		checkBoundTiers(t, p[0], p[1])
	}
}

// FuzzBoundTiers lets the fuzzer search for a string pair that breaks
// the tier-dominance property.
func FuzzBoundTiers(f *testing.F) {
	for _, p := range [][2]string{{"", ""}, {"", "a"}, {"martha", "marhta"}, {"é漢", "e漢漢"}, {"aaaa", "zzzzzzzz"}} {
		f.Add(p[0], p[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) { checkBoundTiers(t, a, b) })
}

// TestBoundsGuardUninterned: a bound consulted with zero (un-interned)
// Stats must claim no information (1), never a rejection.
func TestBoundsGuardUninterned(t *testing.T) {
	tab := sym.NewTable(2)
	st := tab.Stats(tab.Intern("hello"))
	for name, f := range boundedFuncs() {
		bound, ok := BoundFor(f)
		if !ok {
			t.Fatalf("%s: no bound registered", name)
		}
		for _, tier := range []tier{tierQuick, tierExact} {
			if got := boundAt(bound, tab, &sym.Stats{}, &st, tier); got != 1 {
				t.Fatalf("%s: bound(zero, x) = %v, want 1", name, got)
			}
			if got := boundAt(bound, tab, &st, &sym.Stats{}, tier); got != 1 {
				t.Fatalf("%s: bound(x, zero) = %v, want 1", name, got)
			}
		}
	}
}

// TestMaxUBIsTheLargestUB: MaxUB returns the largest of the floor and
// UB over every pair of two value sets, capped at 1, at the quick
// overlap without a view and at the exact overlap with one — for every registered
// bound and the zero Bound, at every gram size, over sets with empty,
// equal, near and unrelated values and un-interned (zero) records.
func TestMaxUBIsTheLargestUB(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	words := []string{"", "martha", "marhta", "dixon", "dicksonx", "aaaa", "zzzzzzzz", "é漢", "abcabcabc", "abcabdabc"}
	bounds := map[string]Bound{"unregistered": 0}
	for name, f := range boundedFuncs() {
		bounds[name], _ = BoundFor(f)
	}
	for _, q := range []int{0, 1, 2, 3, 4} {
		tab := sym.NewTable(q)
		view := tab.GramView()
		set := func() []sym.Stats {
			xs := make([]sym.Stats, rng.Intn(4))
			for i := range xs {
				if rng.Intn(8) > 0 {
					xs[i] = tab.Stats(tab.Intern(words[rng.Intn(len(words))]))
				}
			}
			return xs
		}
		for range 200 {
			xs, ys := set(), set()
			floor := []float64{0, 0.25, 1}[rng.Intn(3)]
			for name, b := range bounds {
				quick, exact := floor, floor
				for i := range xs {
					for j := range ys {
						quick = max(quick, boundAt(b, tab, &xs[i], &ys[j], tierQuick))
						exact = max(exact, boundAt(b, tab, &xs[i], &ys[j], tierExact))
					}
				}
				quick, exact = min(quick, 1), min(exact, 1)
				if got := b.MaxUB(xs, ys, q, floor, nil); got != quick {
					t.Fatalf("q=%d %s: MaxUB(%v, %v, %v) = %v, want %v", q, name, xs, ys, floor, got, quick)
				}
				if got := b.MaxUB(xs, ys, q, floor, &view); got != exact {
					t.Fatalf("q=%d %s: exact MaxUB(%v, %v, %v) = %v, want %v", q, name, xs, ys, floor, got, exact)
				}
			}
		}
	}
}

// TestBoundForUnregistered: an arbitrary custom Func has no bound, and
// the zero Bound it gets bounds every pair to 1.
func TestBoundForUnregistered(t *testing.T) {
	custom := func(a, b string) float64 { return 0.5 }
	bound, ok := BoundFor(custom)
	if ok {
		t.Fatal("custom func unexpectedly has a bound")
	}
	tab := sym.NewTable(2)
	sa := tab.Stats(tab.Intern("aaaaaaaa"))
	sb := tab.Stats(tab.Intern("zzzz"))
	for _, tier := range []tier{tierQuick, tierExact} {
		if got := boundAt(bound, tab, &sa, &sb, tier); got != 1 {
			t.Fatalf("tier %d: unregistered bound = %v, want 1", tier, got)
		}
	}
}

// TestBoundsRejectObviousNonMatches pins that the machinery actually
// filters (not just soundly returns 1): disjoint-gram strings must get
// a strict sub-1 bound for the edit family and 0 for CommonPrefix.
func TestBoundsRejectObviousNonMatches(t *testing.T) {
	tab := sym.NewTable(2)
	sa := tab.Stats(tab.Intern("aaaaaaaa"))
	sb := tab.Stats(tab.Intern("zzzzzzzz"))
	cases := map[string]struct {
		f   Func
		max float64
	}{
		"Levenshtein":  {Levenshtein, 0.5},
		"Damerau":      {DamerauLevenshtein, 0.7},
		"CommonPrefix": {CommonPrefix, 0},
		"Exact":        {Exact, 0},
		"LCS":          {LongestCommonSubstring, 0.2},
	}
	for name, c := range cases {
		bound, ok := BoundFor(c.f)
		if !ok {
			t.Fatalf("%s: no bound", name)
		}
		for _, tier := range []tier{tierQuick, tierExact} {
			if got := boundAt(bound, tab, &sa, &sb, tier); got > c.max {
				t.Fatalf("%s: tier %d bound %v, want ≤ %v", name, tier, got, c.max)
			}
		}
	}
}

// TestPackedQGramKernelsMatchStringKernels pins the q ≤ sym.MaxExactQ
// fast path of QGramDice/QGramJaccard to the string-based kernels bit
// for bit (the constructors switch implementations on q).
func TestPackedQGramKernelsMatchStringKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	word := func() string {
		b := make([]byte, rng.Intn(9))
		for i := range b {
			b[i] = byte('a' + rng.Intn(4))
		}
		return string(b)
	}
	for q := 1; q <= sym.MaxExactQ; q++ {
		dice := QGramDice(q)
		jac := QGramJaccard(q)
		for i := 0; i < 300; i++ {
			a, b := word(), word()
			ga, gb := qgrams(a, q), qgrams(b, q)
			wantDice := func() float64 {
				if len(ga) == 0 && len(gb) == 0 {
					return 1
				}
				if len(ga) == 0 || len(gb) == 0 {
					return 0
				}
				common := 0
				counts := map[string]int{}
				for _, g := range ga {
					counts[g]++
				}
				for _, g := range gb {
					if counts[g] > 0 {
						counts[g]--
						common++
					}
				}
				return 2 * float64(common) / float64(len(ga)+len(gb))
			}()
			if got := dice(a, b); got != wantDice {
				t.Fatalf("QGramDice(%d)(%q, %q) = %v, want %v", q, a, b, got, wantDice)
			}
			if got, want := jac(a, b), jac(b, a); got != want {
				t.Fatalf("QGramJaccard(%d) asymmetric on (%q, %q): %v vs %v", q, a, b, got, want)
			}
		}
	}
}

func init() {
	// Guard against accidental init-order surprises in the registry:
	// every built-in must be bounded by the time tests run.
	for _, f := range []Func{Exact, Levenshtein, Jaro} {
		if _, ok := BoundFor(f); !ok {
			panic(fmt.Sprintf("bound registry incomplete: %T", f))
		}
	}
}
