package strsim

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// referenceLevenshtein is the straightforward full-matrix implementation
// the allocation-free kernels are checked against.
func referenceLevenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	la, lb := len(ra), len(rb)
	rows := make([][]int, la+1)
	for i := range rows {
		rows[i] = make([]int, lb+1)
		rows[i][0] = i
	}
	for j := 0; j <= lb; j++ {
		rows[0][j] = j
	}
	for i := 1; i <= la; i++ {
		for j := 1; j <= lb; j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			rows[i][j] = min3(rows[i][j-1]+1, rows[i-1][j]+1, rows[i-1][j-1]+cost)
		}
	}
	return rows[la][lb]
}

// randWord draws a short word over the given alphabet (non-ASCII
// alphabets exercise the rune path).
func randWord(r *rand.Rand, alphabet []rune, maxLen int) string {
	return wordOfLen(r, alphabet, r.Intn(maxLen+1))
}

// wordOfLen draws a word of exactly n runes over the given alphabet.
func wordOfLen(r *rand.Rand, alphabet []rune, n int) string {
	out := make([]rune, n)
	for i := range out {
		out[i] = alphabet[r.Intn(len(alphabet))]
	}
	return string(out)
}

// editWord applies k random single-rune insertions, deletions and
// substitutions to s, so near-duplicates (small distances) are drawn
// as well as unrelated words.
func editWord(r *rand.Rand, alphabet []rune, s string, k int) string {
	out := []rune(s)
	for ; k > 0; k-- {
		c := alphabet[r.Intn(len(alphabet))]
		switch i, op := r.Intn(len(out)+1), r.Intn(3); {
		case op == 0 || i == len(out):
			out = slices.Insert(out, i, c)
		case op == 1:
			out = slices.Delete(out, i, i+1)
		default:
			out[i] = c
		}
	}
	return string(out)
}

var (
	asciiAlphabet   = []rune("abcde")
	unicodeAlphabet = []rune("äöüßéñ日本")
)

// levenshteinSim is the reference similarity: the normalisation
// Levenshtein applies, over referenceLevenshtein's distance.
func levenshteinSim(a, b string) float64 {
	n := max2(RuneLen(a), RuneLen(b))
	if n == 0 {
		return 1
	}
	return 1 - float64(referenceLevenshtein(a, b))/float64(n)
}

// TestLevenshteinAgainstReference draws words of 0–130 runes, so both
// the shorter and the longer side cross the 64-byte limit of the
// bit-parallel kernel, and requires bit-identical similarities.
func TestLevenshteinAgainstReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	lengths := []int{0, 1, 2, 12, 63, 64, 65, 130}
	check := func(a, b string) {
		t.Helper()
		if got, want := Levenshtein(a, b), levenshteinSim(a, b); got != want {
			t.Fatalf("Levenshtein(%q,%q) = %v, want %v", a, b, got, want)
		}
	}
	for _, alphabet := range [][]rune{asciiAlphabet, unicodeAlphabet} {
		for _, la := range lengths {
			for _, lb := range lengths {
				for rep := 0; rep < 3; rep++ {
					a := wordOfLen(r, alphabet, la)
					check(a, wordOfLen(r, alphabet, lb))
					check(a, editWord(r, alphabet, a, rep+1))
				}
			}
		}
		for i := 0; i < 500; i++ {
			a := randWord(r, alphabet, 130)
			check(a, randWord(r, alphabet, 130))
			check(a, editWord(r, alphabet, a, 1+r.Intn(8)))
		}
	}
}

// FuzzLevenshtein checks Levenshtein against the reference DP on
// arbitrary byte strings: ASCII, multi-byte and invalid UTF-8 alike.
func FuzzLevenshtein(f *testing.F) {
	long := strings.Repeat("abcdefgh", 8)
	for _, p := range [][2]string{{"", ""}, {"", "a"}, {"kitten", "sitting"}, {"é漢", "e漢漢"}, {long, long + "x"}, {long[1:], "x" + long}, {"\xff", "\xfe"}} {
		f.Add(p[0], p[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		if got, want := Levenshtein(a, b), levenshteinSim(a, b); got != want {
			t.Fatalf("Levenshtein(%q,%q) = %v, want %v", a, b, got, want)
		}
	})
}

func TestLevenshteinWithin(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, alphabet := range [][]rune{asciiAlphabet, unicodeAlphabet} {
		for i := 0; i < 500; i++ {
			a, b := randWord(r, alphabet, 12), randWord(r, alphabet, 12)
			want := referenceLevenshtein(a, b)
			for k := 0; k <= 12; k++ {
				d, ok := LevenshteinWithin(a, b, k)
				if want <= k {
					if !ok || d != want {
						t.Fatalf("LevenshteinWithin(%q,%q,%d) = (%d,%v), want (%d,true)", a, b, k, d, ok, want)
					}
				} else if ok || d != k+1 {
					t.Fatalf("LevenshteinWithin(%q,%q,%d) = (%d,%v), want (%d,false)", a, b, k, d, ok, k+1)
				}
			}
		}
	}
	if d, ok := LevenshteinWithin("x", "y", -1); ok || d != 0 {
		t.Fatalf("negative bound: (%d,%v)", d, ok)
	}
	if d, ok := LevenshteinWithin("", "", 0); !ok || d != 0 {
		t.Fatalf("empty strings: (%d,%v)", d, ok)
	}
}

func TestBandedLevenshtein(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for _, minSim := range []float64{0, 0.3, 0.6, 0.8, 1} {
		f := BandedLevenshtein(minSim)
		for i := 0; i < 500; i++ {
			a, b := randWord(r, asciiAlphabet, 10), randWord(r, asciiAlphabet, 10)
			full := Levenshtein(a, b)
			got := f(a, b)
			if full >= minSim {
				if math.Abs(got-full) > 1e-12 {
					t.Fatalf("minSim=%v: f(%q,%q) = %v, want %v", minSim, a, b, got, full)
				}
			} else if got != 0 {
				t.Fatalf("minSim=%v: f(%q,%q) = %v, want 0 (full %v)", minSim, a, b, got, full)
			}
		}
		if got := f("same", "same"); got != 1 {
			t.Fatalf("minSim=%v: identity = %v", minSim, got)
		}
	}
}

// TestKernelsASCIIvsRunePath checks that the byte fast path and the rune
// path agree wherever both apply, by comparing pure-ASCII inputs against
// the same words with every 'a' replaced by 'ä' on both sides (an
// order-preserving rune substitution keeps all kernels invariant).
func TestKernelsASCIIvsRunePath(t *testing.T) {
	funcs := map[string]Func{
		"hamming": NormalizedHamming,
		"lev":     Levenshtein,
		"osa":     DamerauLevenshtein,
		"jaro":    Jaro,
		"jw":      JaroWinkler,
		"lcs":     LongestCommonSubstring,
		"prefix":  CommonPrefix,
	}
	widen := func(s string) string {
		out := []rune(s)
		for i, r := range out {
			if r == 'a' {
				out[i] = 'ä'
			}
		}
		return string(out)
	}
	r := rand.New(rand.NewSource(17))
	for name, f := range funcs {
		for i := 0; i < 300; i++ {
			a, b := randWord(r, asciiAlphabet, 10), randWord(r, asciiAlphabet, 10)
			if got, want := f(widen(a), widen(b)), f(a, b); math.Abs(got-want) > 1e-12 {
				t.Fatalf("%s: rune path %q/%q = %v, ASCII path %q/%q = %v", name, widen(a), widen(b), got, a, b, want)
			}
		}
	}
}

// TestKernelsConcurrent hammers the pooled scratch from many goroutines;
// run with -race to catch sharing bugs.
func TestKernelsConcurrent(t *testing.T) {
	funcs := []Func{NormalizedHamming, Levenshtein, DamerauLevenshtein, Jaro, JaroWinkler, LongestCommonSubstring, CommonPrefix, BandedLevenshtein(0.5)}
	done := make(chan bool)
	for g := 0; g < 8; g++ {
		go func(seed int64) {
			r := rand.New(rand.NewSource(seed))
			ok := true
			for i := 0; i < 200; i++ {
				a, b := randWord(r, asciiAlphabet, 8), randWord(r, unicodeAlphabet, 8)
				for _, f := range funcs {
					v := f(a, b)
					if v < -1e-12 || v > 1+1e-12 || math.IsNaN(v) {
						ok = false
					}
				}
			}
			done <- ok
		}(int64(g))
	}
	for g := 0; g < 8; g++ {
		if !<-done {
			t.Fatal("kernel returned a value outside [0,1] under concurrency")
		}
	}
}

func TestKernelsAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race, so allocation counts are unreliable")
	}
	cases := []struct {
		name string
		f    Func
	}{
		{"hamming", NormalizedHamming},
		{"lev", Levenshtein},
		{"osa", DamerauLevenshtein},
		{"jaro", Jaro},
		{"lcs", LongestCommonSubstring},
		{"prefix", CommonPrefix},
		{"banded", BandedLevenshtein(0.6)},
	}
	for _, c := range cases {
		// Warm the pool, then require zero allocations on the ASCII path.
		c.f("machinist", "mechanic")
		avg := testing.AllocsPerRun(100, func() { c.f("machinist", "mechanic") })
		if avg != 0 {
			t.Errorf("%s: %v allocs/op on the ASCII path, want 0", c.name, avg)
		}
	}
}

func TestSoundexGoldenCases(t *testing.T) {
	// The classic American Soundex edge cases (NARA coding examples):
	// H/W transparency (Ashcraft, Pfister), vowel separation (Tymczak,
	// Honeyman), repeated letters and padding.
	cases := map[string]string{
		"Robert":     "R163",
		"Rupert":     "R163",
		"Ashcraft":   "A261", // S and C around H collapse into one code
		"Ashcroft":   "A261",
		"Tymczak":    "T522", // Z and K coded separately across the vowel A
		"Pfister":    "P236", // F after initial P collapses (both code 1)
		"Honeyman":   "H555",
		"Jackson":    "J250",
		"Washington": "W252",
		"Gutierrez":  "G362",
		"VanDeusen":  "V532",
		"Lee":        "L000",
		"":           "0000",
		"123":        "0000",
	}
	for in, want := range cases {
		if got := SoundexCode(in); got != want {
			t.Errorf("SoundexCode(%q) = %q, want %q", in, got, want)
		}
	}
}
