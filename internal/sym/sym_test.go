package sym

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestInternAssignsDenseStableSymbols(t *testing.T) {
	tab := NewTable(2)
	a := tab.Intern("alpha")
	b := tab.Intern("beta")
	if a != 1 || b != 2 {
		t.Fatalf("symbols = %d, %d; want dense 1, 2", a, b)
	}
	if got := tab.Intern("alpha"); got != a {
		t.Fatalf("re-intern changed the symbol: %d != %d", got, a)
	}
	if tab.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tab.Len())
	}
	if sy, ok := tab.Lookup("beta"); !ok || sy != b {
		t.Fatalf("Lookup(beta) = %d, %t", sy, ok)
	}
	if _, ok := tab.Lookup("gamma"); ok {
		t.Fatal("Lookup of an unknown value succeeded")
	}
	if got := tab.Str(a); got != "alpha" {
		t.Fatalf("Str(%d) = %q", a, got)
	}
	if got := tab.Str(NoSym); got != "" {
		t.Fatalf("Str(NoSym) = %q, want empty", got)
	}
	if got := tab.Str(99); got != "" {
		t.Fatalf("Str(unknown) = %q, want empty", got)
	}
}

func TestStatsPrecomputed(t *testing.T) {
	tab := NewTable(2)
	sy := tab.Intern("héllo")
	st := tab.Stats(sy)
	if st.Sym != sy {
		t.Fatalf("Stats.Sym = %d, want %d", st.Sym, sy)
	}
	if st.Len != 5 {
		t.Fatalf("rune length = %d, want 5", st.Len)
	}
	if tab.Q() != 2 {
		t.Fatalf("Q = %d, want 2", tab.Q())
	}
	// 5 runes with q=2 padding on both sides: n+q−1 = 6 grams.
	grams := tab.Grams(sy)
	if len(grams) != 6 || st.GramCount(tab.Q()) != 6 {
		t.Fatalf("gram count = %d (derived %d), want 6", len(grams), st.GramCount(tab.Q()))
	}
	if !slices.Equal(grams, PackedQGrams("héllo", 2)) {
		t.Fatalf("table grams %v differ from PackedQGrams", grams)
	}
	if st.Sig == 0 {
		t.Fatal("signature empty for a non-empty value")
	}
	if got := GramSig(grams); got != st.Sig {
		t.Fatalf("stored signature %x != recomputed %x", st.Sig, got)
	}
	// Zero Stats for the sentinel and out-of-range symbols.
	if st := tab.Stats(NoSym); st != (Stats{}) || tab.Grams(NoSym) != nil {
		t.Fatalf("Stats(NoSym) = %+v, want zero", st)
	}
	if st := tab.Stats(42); st != (Stats{}) || tab.Grams(42) != nil {
		t.Fatalf("Stats(unknown) = %+v, want zero", st)
	}
}

func TestTableWithoutGrams(t *testing.T) {
	tab := NewTable(0)
	st := tab.Stats(tab.Intern("value"))
	if tab.Q() != 0 || tab.Grams(st.Sym) != nil || st.Sig != 0 || st.GramCount(tab.Q()) != 0 {
		t.Fatalf("q=0 table precomputed grams: %+v", st)
	}
	if st.Len != 5 {
		t.Fatalf("Len = %d, want 5", st.Len)
	}
}

// TestGramCountFollowsLength pins the derivation that replaced the
// stored gram slice in Stats: for every gram size, exact and hashed,
// the table's gram multiset has exactly GramCount grams.
func TestGramCountFollowsLength(t *testing.T) {
	for _, q := range []int{1, 2, 3, 4, 5} {
		tab := NewTable(q)
		for _, s := range []string{"", "a", "é漢", "duplicate detection", "\xff\xfeab"} {
			sy := tab.Intern(s)
			st := tab.Stats(sy)
			if got := len(tab.Grams(sy)); st.GramCount(q) != got {
				t.Fatalf("q=%d %q: GramCount %d, table holds %d grams", q, s, st.GramCount(q), got)
			}
		}
	}
}

// TestOverlongValueGetsZeroStats: a rune length that does not fit the
// record's 32 bits yields the zero Stats ("no information"), never a
// truncated length.
func TestOverlongValueGetsZeroStats(t *testing.T) {
	n := math.MaxInt
	if uint64(n) <= math.MaxUint32 {
		t.Skip("int is 32 bits: every rune length fits")
	}
	if st := record(7, n, []uint64{1}); st != (Stats{}) {
		t.Fatalf("record of %d runes = %+v, want the zero Stats", n, st)
	}
	if st := record(7, math.MaxUint32, nil); st.Sym != 7 || st.Len != math.MaxUint32 {
		t.Fatalf("record of MaxUint32 runes = %+v", st)
	}
}

// naiveGrams is the reference padded q-gram multiset, mirroring the
// string-based kernel in internal/strsim: pad both sides with q−1 pad
// runes, empty string → no grams.
func naiveGrams(s string, q int) map[string]int {
	if s == "" {
		return nil
	}
	rs := []rune{}
	for i := 0; i < q-1; i++ {
		rs = append(rs, PadRune)
	}
	rs = append(rs, []rune(s)...)
	for i := 0; i < q-1; i++ {
		rs = append(rs, PadRune)
	}
	if len(rs) < q {
		return nil
	}
	out := map[string]int{}
	for i := 0; i+q <= len(rs); i++ {
		out[string(rs[i:i+q])]++
	}
	return out
}

func naiveOverlap(a, b map[string]int) int {
	common := 0
	for g, ca := range a {
		if cb := b[g]; cb < ca {
			common += cb
		} else {
			common += ca
		}
	}
	return common
}

// TestPackedQGramsMatchNaive proves the packed encoding is an exact
// multiset representation for q ≤ MaxExactQ: counts, pairwise overlap,
// and both coefficients agree with the string-based reference on
// random inputs, including multi-byte runes and repeated grams.
func TestPackedQGramsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alphabet := []rune("abcé漢#")
	word := func() string {
		n := rng.Intn(12)
		rs := make([]rune, n)
		for i := range rs {
			rs[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(rs)
	}
	for q := 1; q <= MaxExactQ; q++ {
		for i := 0; i < 300; i++ {
			a, b := word(), word()
			ga, gb := PackedQGrams(a, q), PackedQGrams(b, q)
			na, nb := naiveGrams(a, q), naiveGrams(b, q)
			wantA := 0
			for _, c := range na {
				wantA += c
			}
			if len(ga) != wantA {
				t.Fatalf("q=%d %q: %d packed grams, want %d", q, a, len(ga), wantA)
			}
			if got, want := Overlap(ga, gb), naiveOverlap(na, nb); got != want {
				t.Fatalf("q=%d (%q,%q): overlap %d, want %d", q, a, b, got, want)
			}
			naiveDice := func() float64 {
				la, lb := len(ga), len(gb)
				if la == 0 && lb == 0 {
					return 1
				}
				if la == 0 || lb == 0 {
					return 0
				}
				return 2 * float64(naiveOverlap(na, nb)) / float64(la+lb)
			}()
			if got := Dice(ga, gb); got != naiveDice {
				t.Fatalf("q=%d (%q,%q): Dice %v, want %v", q, a, b, got, naiveDice)
			}
		}
	}
}

// TestPackedQGramsMatchStagedPadding pins the ring walk bit for bit to
// the definition it implements: stage the padded string as runes, pack
// every window of q, sort. Exact (q ≤ MaxExactQ) and hashed sizes,
// multi-byte runes and invalid UTF-8 included — interned Stats, and so
// every bound and gram kernel, must not move.
func TestPackedQGramsMatchStagedPadding(t *testing.T) {
	staged := func(s string, q int) []uint64 {
		if s == "" {
			return nil
		}
		pad := strings.Repeat(string(PadRune), q-1)
		rs := []rune(pad + s + pad)
		var out []uint64
		for i := 0; i+q <= len(rs); i++ {
			out = append(out, packGram(rs[i:i+q], nil))
		}
		slices.Sort(out)
		return out
	}
	rng := rand.New(rand.NewSource(13))
	alphabet := []rune("abcé漢#\x00")
	words := []string{"", "a", "#", "\xff\xfeab", "duplicate detection"}
	for i := 0; i < 300; i++ {
		rs := make([]rune, rng.Intn(14))
		for j := range rs {
			rs[j] = alphabet[rng.Intn(len(alphabet))]
		}
		words = append(words, string(rs))
	}
	for _, q := range []int{1, 2, 3, 4, 5, 9} {
		for _, w := range words {
			if got, want := PackedQGrams(w, q), staged(w, q); !slices.Equal(got, want) {
				t.Fatalf("q=%d %q: packed %v, staged %v", q, w, got, want)
			}
		}
	}
}

// TestGramSigSubsetProperty is the signature's soundness contract:
// disjoint signatures must imply an empty gram intersection — i.e.
// whenever the multisets do intersect, the signatures must too.
func TestGramSigSubsetProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	word := func() string {
		b := make([]byte, 1+rng.Intn(10))
		for i := range b {
			b[i] = byte('a' + rng.Intn(6))
		}
		return string(b)
	}
	for i := 0; i < 500; i++ {
		a, b := word(), word()
		ga, gb := PackedQGrams(a, 2), PackedQGrams(b, 2)
		if Overlap(ga, gb) > 0 && GramSig(ga)&GramSig(gb) == 0 {
			t.Fatalf("(%q,%q) share grams but signatures are disjoint", a, b)
		}
	}
}

func TestEmptyAndCoefficientConventions(t *testing.T) {
	if got := PackedQGrams("", 2); got != nil {
		t.Fatalf("grams of empty string = %v, want nil", got)
	}
	if got := Dice(nil, nil); got != 1 {
		t.Fatalf("Dice(∅,∅) = %v, want 1", got)
	}
	if got := Dice(nil, PackedQGrams("a", 2)); got != 0 {
		t.Fatalf("Dice(∅,a) = %v, want 0", got)
	}
	if got := Jaccard(nil, nil); got != 1 {
		t.Fatalf("Jaccard(∅,∅) = %v, want 1", got)
	}
	if got := Jaccard(PackedQGrams("ab", 2), nil); got != 0 {
		t.Fatalf("Jaccard(ab,∅) = %v, want 0", got)
	}
	same := PackedQGrams("abc", 2)
	if got := Jaccard(same, same); got != 1 {
		t.Fatalf("Jaccard(x,x) = %v, want 1", got)
	}
}

// TestHashedGramsStaySound checks the q > MaxExactQ fallback: hashing
// may only merge grams, so the packed overlap can never undercount —
// for identical strings it must still be total.
func TestHashedGramsStaySound(t *testing.T) {
	const q = 5
	a := PackedQGrams("duplicate detection", q)
	if len(a) == 0 {
		t.Fatal("no grams")
	}
	if got := Overlap(a, a); got != len(a) {
		t.Fatalf("self overlap %d, want %d", got, len(a))
	}
	rng := rand.New(rand.NewSource(3))
	word := func() string {
		b := make([]byte, 4+rng.Intn(12))
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return string(b)
	}
	for i := 0; i < 200; i++ {
		x, y := word(), word()
		gx, gy := PackedQGrams(x, q), PackedQGrams(y, q)
		nx, ny := naiveGrams(x, q), naiveGrams(y, q)
		if got, min := Overlap(gx, gy), naiveOverlap(nx, ny); got < min {
			t.Fatalf("(%q,%q): hashed overlap %d undercounts the true %d", x, y, got, min)
		}
	}
}

// TestInternConcurrent hammers one table from many goroutines: equal
// strings must map to equal symbols with no torn stats (run under
// -race in CI).
func TestInternConcurrent(t *testing.T) {
	tab := NewTable(2)
	const words = 64
	var wg sync.WaitGroup
	syms := make([][]uint32, 8)
	for g := range syms {
		wg.Add(1)
		syms[g] = make([]uint32, words)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < words; i++ {
				syms[g][i] = tab.Intern(fmt.Sprintf("w%02d", i%words))
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < len(syms); g++ {
		for i := range syms[g] {
			if syms[g][i] != syms[0][i] {
				t.Fatalf("goroutine %d interned w%02d as %d, goroutine 0 as %d",
					g, i, syms[g][i], syms[0][i])
			}
		}
	}
	if tab.Len() != words {
		t.Fatalf("Len = %d, want %d", tab.Len(), words)
	}
	for i := 0; i < words; i++ {
		s := fmt.Sprintf("w%02d", i)
		sy, ok := tab.Lookup(s)
		if !ok {
			t.Fatalf("%q not interned", s)
		}
		if st := tab.Stats(sy); st.Sym != sy || st.Len != 3 || len(tab.Grams(sy)) != 4 || GramSig(tab.Grams(sy)) != st.Sig {
			t.Fatalf("%q: inconsistent stats %+v", s, st)
		}
	}
}

// TestGramViewReadsAsTable: a view answers every lookup as the table
// does — NoSym, symbols interned before the view, and symbols interned
// after it, which the view's snapshot does not hold — while other
// goroutines keep interning (run under -race in CI).
func TestGramViewReadsAsTable(t *testing.T) {
	tab := NewTable(2)
	for _, s := range []string{"", "alpha", "beta", "gamma"} {
		tab.Intern(s)
	}
	view := tab.GramView()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range 200 {
			tab.Intern(fmt.Sprintf("later-%d", i))
		}
	}()
	for range 50 {
		for sy := NoSym; sy <= 4; sy++ {
			if got, want := view.Grams(sy), tab.Grams(sy); !slices.Equal(got, want) {
				t.Fatalf("symbol %d: view %v, table %v", sy, got, want)
			}
		}
	}
	wg.Wait()
	later := tab.Intern("delta")
	if got, want := view.Grams(later), tab.Grams(later); len(want) == 0 || !slices.Equal(got, want) {
		t.Fatalf("symbol %d interned after the view: view %v, table %v", later, got, want)
	}
	if got := view.Grams(later + 1); got != nil {
		t.Fatalf("unknown symbol: view %v, want nil", got)
	}
}
