package xmatch

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"probdedup/internal/avm"
	"probdedup/internal/decision"
	"probdedup/internal/pdb"
	"probdedup/internal/strsim"
)

// opaqueBound is a decision.UpperBounded model of another type than
// the weighted sum it wraps, so the bounded fold reaches it through the
// interface.
type opaqueBound struct{ decision.WeightedSumModel }

// floorModels are the per-alternative models of the bounded-fold
// tests: the oracle's weighted sum, one with a negative weight, whose
// cell similarities may be negative and whose bound drops that weight,
// and the latter behind the interface.
func floorModels() []decision.UpperBounded {
	negative := decision.WeightedSumModel{Weights: []float64{1.15, -0.3}, T: decision.Thresholds{Lambda: 0.4, Mu: 0.7}}
	return []decision.UpperBounded{oracleModel(), negative, opaqueBound{negative}}
}

// floorTally counts what checkBoundedFold saw.
type floorTally struct {
	exits, edgeExits, full int
}

// checkBoundedFold compares c (StopAtU set) on (x1, x2) with the full
// fold, after drawing Final's Tλ at the pair's own full similarity
// ± 1e-9, so that a bound must prove U right at the edge, or, one time
// in four, anywhere within ±0.5 of it. Tμ is Tλ or up to 0.3 above it.
// The class must be the full fold's; a comparison that ran to the end
// must return the full similarity bit for bit, and one that stopped a
// value that is at least the full similarity and below Tλ.
func checkBoundedFold(t testing.TB, r *rand.Rand, c *Comparer, x1, x2 *pdb.XTuple, tally *floorTally) {
	t.Helper()
	full := c.Derive.Sim(NewPairSource(c.Matcher, x1, x2), c.AltModel)
	edge := r.Intn(4) > 0
	lambda := full + (2*r.Float64()-1)*1e-9
	if !edge {
		lambda = full + r.Float64() - 0.5
	}
	mu := lambda
	if r.Intn(2) == 0 {
		mu += 0.3 * r.Float64()
	}
	c.Final = decision.Thresholds{Lambda: lambda, Mu: mu}
	before := c.Exits()
	got := c.Compare(x1, x2)
	if want := c.Final.Classify(full); got.Class != want {
		t.Fatalf("%s on %v × %v, Tλ %v: class %v, full fold %v (sim %v)", c.Derive.Name(), x1, x2, lambda, got.Class, want, full)
	}
	switch {
	case c.Exits() == before:
		if math.Float64bits(got.Sim) != math.Float64bits(full) {
			t.Fatalf("%s on %v × %v: ran to the end with sim %v, full fold %v", c.Derive.Name(), x1, x2, got.Sim, full)
		}
		tally.full++
	case c.Exits() != before+1:
		t.Fatalf("one comparison counted %d exits", c.Exits()-before)
	case !(got.Sim >= full && got.Sim < lambda):
		t.Fatalf("%s on %v × %v: stopped with %v, want in [%v, Tλ %v)", c.Derive.Name(), x1, x2, got.Sim, full, lambda)
	default:
		tally.exits++
		if edge {
			tally.edgeExits++
		}
	}
}

// boundedComparers returns one StopAtU comparer per floor model and
// conditioning mode.
func boundedComparers(m *avm.Matcher) []*Comparer {
	var cs []*Comparer
	for _, model := range floorModels() {
		for _, cond := range []bool{true, false} {
			cs = append(cs, &Comparer{Matcher: m, AltModel: model, Derive: SimilarityBased{Conditioned: cond}, StopAtU: true})
		}
	}
	return cs
}

// TestBoundedFoldDecidesAsFullFold: a comparer that may stop at a
// proven U classifies every pair as the full fold does. The pairs come
// from randXTuple with certain and uncertain values: ⊥ mass, maybe
// tuples down to p(t) = 1e-12, and 1–4 alternatives. A run must see
// stops right at the edge and comparisons run to the end.
func TestBoundedFoldDecidesAsFullFold(t *testing.T) {
	r := rand.New(rand.NewSource(48))
	m := avm.NewMatcher(strsim.Levenshtein, strsim.NormalizedHamming)
	var tally floorTally
	for _, c := range boundedComparers(m) {
		for i := 0; i < 2000; i++ {
			uncertain := i%2 == 1
			checkBoundedFold(t, r, c, randXTuple(r, "a", uncertain), randXTuple(r, "b", uncertain), &tally)
		}
	}
	t.Logf("%d stopped (%d with Tλ within 1e-9 of the similarity), %d ran to the end", tally.exits, tally.edgeExits, tally.full)
	if tally.edgeExits == 0 || tally.full == 0 {
		t.Fatalf("the draw must exercise both outcomes: %+v", tally)
	}
}

// FuzzBoundedFold runs checkBoundedFold on the pairs the random
// generator draws from the fuzzed seed, certain and uncertain.
func FuzzBoundedFold(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 48, 1 << 40} {
		f.Add(seed)
	}
	m := avm.NewMatcher(strsim.Levenshtein, strsim.NormalizedHamming)
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		var tally floorTally
		for _, c := range boundedComparers(m) {
			checkBoundedFold(t, r, c, randXTuple(r, "a", false), randXTuple(r, "b", false), &tally)
			checkBoundedFold(t, r, c, randXTuple(r, "a", true), randXTuple(r, "b", true), &tally)
		}
	})
}

// TestBoundedCompareDoesNotAllocate: once its scratch has grown, a
// comparer that may stop at a proven U allocates nothing, whether a
// comparison stops or runs to the end, at schema widths 3 and 18.
func TestBoundedCompareDoesNotAllocate(t *testing.T) {
	for _, width := range []int{3, 18} {
		t.Run(fmt.Sprint("width=", width), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(width)))
			funcs := make([]strsim.Func, width)
			for a := range funcs {
				funcs[a] = strsim.Levenshtein
			}
			word := func() string {
				b := make([]byte, 3+r.Intn(6))
				for i := range b {
					b[i] = byte('a' + r.Intn(3))
				}
				return string(b)
			}
			xtuple := func(id string) *pdb.XTuple {
				alts := make([]pdb.Alt, 1+r.Intn(3))
				for i := range alts {
					vals := make([]string, width)
					for a := range vals {
						vals[a] = word()
					}
					alts[i] = pdb.NewAlt(0.9/float64(len(alts)), vals...)
				}
				return pdb.NewXTuple(id, alts...)
			}
			pairs := make([][2]*pdb.XTuple, 64)
			for i := range pairs {
				pairs[i] = [2]*pdb.XTuple{xtuple("a"), xtuple("b")}
			}
			c := &Comparer{
				Matcher:  avm.NewMatcherWithCache(nil, funcs...),
				AltModel: decision.WeightedSumModel{Weights: decision.EqualWeights(width), T: decision.Thresholds{Lambda: 0.4, Mu: 0.7}},
				Derive:   SimilarityBased{Conditioned: true},
				Final:    decision.Thresholds{Lambda: 0.45, Mu: 0.7},
				StopAtU:  true,
			}
			compareAll := func() {
				for _, p := range pairs {
					c.Compare(p[0], p[1])
				}
			}
			compareAll()
			if exits := c.Exits(); exits == 0 || exits == len(pairs) {
				t.Fatalf("%d of %d comparisons stopped; want some of each", exits, len(pairs))
			}
			if avg := testing.AllocsPerRun(20, compareAll); avg != 0 {
				t.Fatalf("%v allocations per %d comparisons, want 0", avg, len(pairs))
			}
		})
	}
}

// TestStopAtUNeedsABound: StopAtU stops nothing unless the fold can
// bound what it has not computed: the derivation must be
// similarity-based, the model decision.UpperBounded, and the ⊥
// similarities in [0,1]. Each obstruction alone leaves every
// comparison to run to the end with the full similarity.
func TestStopAtUNeedsABound(t *testing.T) {
	ws := oracleModel()
	final := decision.Thresholds{Lambda: 0.99, Mu: 0.995}
	cases := map[string]struct {
		model  decision.Model
		derive Derivation
		nulls  *avm.NullSemantics
		stops  bool
	}{
		"weighted sum":        {ws, SimilarityBased{Conditioned: true}, nil, true},
		"opaque model":        {decision.SimpleModel{Phi: decision.WeightedSum(ws.Weights...), T: ws.T}, SimilarityBased{Conditioned: true}, nil, false},
		"expected-eta":        {ws, ExpectedEta{Conditioned: true}, nil, false},
		"⊥ similarity over 1": {ws, SimilarityBased{Conditioned: true}, &avm.NullSemantics{NullNull: 1.5}, false},
	}
	for name, tc := range cases {
		r := rand.New(rand.NewSource(1))
		m := avm.NewMatcher(strsim.Levenshtein, strsim.NormalizedHamming)
		m.Nulls = tc.nulls
		c := &Comparer{Matcher: m, AltModel: tc.model, Derive: tc.derive, Final: final, StopAtU: true}
		for i := 0; i < 200; i++ {
			x1, x2 := randXTuple(r, "a", true), randXTuple(r, "b", true)
			want := tc.derive.Sim(NewPairSource(m, x1, x2), tc.model)
			if got := c.Compare(x1, x2); c.Exits() == 0 && math.Float64bits(got.Sim) != math.Float64bits(want) {
				t.Fatalf("%s: sim %v, full fold %v", name, got.Sim, want)
			}
		}
		if stops := c.Exits() > 0; stops != tc.stops {
			t.Errorf("%s: %d of 200 comparisons stopped, want stops=%v", name, c.Exits(), tc.stops)
		}
	}
}
