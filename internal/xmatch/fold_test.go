package xmatch

import (
	"math"
	"math/rand"
	"testing"

	"probdedup/internal/avm"
	"probdedup/internal/decision"
	"probdedup/internal/paperdata"
	"probdedup/internal/pdb"
	"probdedup/internal/strsim"
	"probdedup/internal/worlds"
)

// allDerivations are all derivations of the package, in both
// conditioning modes.
func allDerivations() []Derivation {
	return []Derivation{
		SimilarityBased{Conditioned: true},
		SimilarityBased{Conditioned: false},
		DecisionBased{Conditioned: true},
		DecisionBased{Conditioned: false},
		ExpectedEta{Conditioned: true},
		ExpectedEta{Conditioned: false},
		MostProbableWorld{Conditioned: true},
		MostProbableWorld{Conditioned: false},
		MaxSim{Conditioned: true},
		MaxSim{Conditioned: false},
		MaxSim{Conditioned: true, Weighted: true},
		MaxSim{Conditioned: false, Weighted: true},
	}
}

// conditioned reports the conditioning mode of a derivation of this
// package, which is the mode its possible-worlds reference runs in.
func conditioned(d Derivation) bool {
	switch d := d.(type) {
	case SimilarityBased:
		return d.Conditioned
	case DecisionBased:
		return d.Conditioned
	case ExpectedEta:
		return d.Conditioned
	case MostProbableWorld:
		return d.Conditioned
	case MaxSim:
		return d.Conditioned
	}
	panic("unknown derivation " + d.Name())
}

// world is a possible world of an x-tuple pair in which both x-tuples
// exist: its probability and the comparison vector the certain-data
// matcher computes for the two tuples it materializes.
type world struct {
	p float64
	c avm.Vector
}

// pairWorlds enumerates the possible worlds of {x1, x2} — conditioned on
// membership when cond is true — and runs the certain-data matcher in
// each world in which both x-tuples exist, the event every derivation
// ranges over.
func pairWorlds(t testing.TB, m *avm.Matcher, x1, x2 *pdb.XTuple, cond bool) []world {
	t.Helper()
	xr := worlds.PairRelation([]string{"name", "job"}, x1, x2)
	ws, err := worlds.Enumerate(xr, cond, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []world
	for _, w := range ws {
		if !w.Contains(0) || !w.Contains(1) {
			continue
		}
		r := worlds.Materialize(xr, w)
		out = append(out, world{p: w.P, c: m.CompareTuples(r.Tuples[0], r.Tuples[1])})
	}
	return out
}

// oracle aggregates ϑ from its definition over the worlds in which both
// x-tuples exist and returns every value the definition admits: one, but
// for the most probable world, which admits the similarity of any world
// tied for most probable (the derivation breaks ties by alternative
// index within pdb.Eps, far below the 1e-8 relative tie accepted here).
func oracle(d Derivation, ws []world, model decision.Model) []float64 {
	switch d := d.(type) {
	case SimilarityBased:
		s := 0.0
		for _, w := range ws {
			s += w.p * model.Similarity(w.c)
		}
		return []float64{s}
	case ExpectedEta:
		s := 0.0
		for _, w := range ws {
			s += w.p * decision.Decide(model, w.c).Score()
		}
		return []float64{s}
	case DecisionBased:
		var pm, pu float64
		for _, w := range ws {
			switch decision.Decide(model, w.c) {
			case decision.M:
				pm += w.p
			case decision.U:
				pu += w.p
			}
		}
		return []float64{matchingWeight(pm, pu)}
	case MaxSim:
		best := math.Inf(-1)
		for _, w := range ws {
			s := model.Similarity(w.c)
			if d.Weighted {
				s *= w.p
			}
			best = math.Max(best, s)
		}
		return []float64{best}
	case MostProbableWorld:
		top := 0.0
		for _, w := range ws {
			top = math.Max(top, w.p)
		}
		var tied []float64
		for _, w := range ws {
			if w.p >= top*(1-1e-8) {
				tied = append(tied, model.Similarity(w.c))
			}
		}
		return tied
	}
	panic("unknown derivation " + d.Name())
}

// agrees reports whether got equals want up to a relative 1e-12, with
// ±Inf equal only to itself.
func agrees(got, want float64) bool {
	if math.IsInf(got, 0) || math.IsInf(want, 0) {
		return got == want
	}
	return math.Abs(got-want) <= 1e-12*math.Max(math.Abs(got), math.Abs(want))
}

// agreesAny reports whether got agrees with one of the admitted values.
func agreesAny(got float64, admitted []float64) bool {
	for _, want := range admitted {
		if agrees(got, want) {
			return true
		}
	}
	return false
}

// randXTuple builds a random x-tuple over two attributes: 1–4
// alternatives, sometimes with tied probabilities, a membership p(t)
// that is 1, random, 1e-6 or 1e-12, and ⊥ values. With uncertain set
// an attribute value may also be a small distribution with ⊥ mass
// inside its alternative.
func randXTuple(r *rand.Rand, id string, uncertain bool) *pdb.XTuple {
	word := func() string {
		b := make([]byte, 1+r.Intn(4))
		for i := range b {
			b[i] = byte('a' + r.Intn(3))
		}
		return string(b)
	}
	dist := func() pdb.Dist {
		switch k := r.Intn(4); {
		case k == 0:
			return pdb.CertainNull()
		case k == 1 || !uncertain:
			return pdb.Certain(word())
		case k == 2:
			return pdb.MustDist(pdb.Alternative{Value: pdb.V(word()), P: 0.6}) // 0.4 ⊥ mass
		default:
			return pdb.MustDist(
				pdb.Alternative{Value: pdb.V(word()), P: 0.5},
				pdb.Alternative{Value: pdb.V(word()), P: 0.3})
		}
	}
	pt := []float64{1, 1, 0.1 + 0.9*r.Float64(), 1e-6, 1e-12}[r.Intn(5)]
	n := 1 + r.Intn(4)
	ws := make([]float64, n)
	sum := 0.0
	tied := r.Intn(3) == 0
	for i := range ws {
		ws[i] = 1
		if !tied {
			ws[i] = 0.1 + r.Float64()
		}
		sum += ws[i]
	}
	alts := make([]pdb.Alt, n)
	for i := range alts {
		alts[i] = pdb.NewAltDists(pt*ws[i]/sum, dist(), dist())
	}
	return pdb.NewXTuple(id, alts...)
}

// oracleModel is the per-alternative model of the oracle tests: a
// weighted sum, the one model under which similarity-based derivation
// commutes with Eq. 5 (see checkOracle).
func oracleModel() decision.WeightedSumModel {
	return decision.WeightedSumModel{Weights: []float64{0.7, 0.3}, T: decision.Thresholds{Lambda: 0.4, Mu: 0.7}}
}

// checkOracle compares every derivation on (x1, x2), folded through src,
// with its possible-worlds aggregate in the derivation's own
// conditioning mode, and returns the names of the derivations that
// disagree.
//
// On certain-valued alternatives every world is one alternative pair
// and its comparison vector is c⃗ᵢⱼ itself, so every derivation must
// agree and checkOracle fails t otherwise. With uncertain attribute
// values inside an alternative the paper compares the alternative pair
// by Eq. 5, the expectation of the value similarities, before φ, the
// classification or the maximum sees it. Only a φ that is linear in c⃗
// commutes with that expectation, so of the derivations only
// similarity-based under a weighted sum is still a world identity;
// checkOracle fails t when it disagrees and reports the others.
func checkOracle(t testing.TB, src *PairSource, m *avm.Matcher, x1, x2 *pdb.XTuple, uncertain bool) map[string]bool {
	t.Helper()
	model := oracleModel()
	byMode := map[bool][]world{
		true:  pairWorlds(t, m, x1, x2, true),
		false: pairWorlds(t, m, x1, x2, false),
	}
	disagree := map[string]bool{}
	for _, d := range allDerivations() {
		src.Reset(m, x1, x2)
		got := d.Sim(src, model)
		want := oracle(d, byMode[conditioned(d)], model)
		if agreesAny(got, want) {
			continue
		}
		if _, linear := d.(SimilarityBased); !uncertain || linear {
			t.Fatalf("%s on %v × %v: fold %v, possible worlds %v", d.Name(), x1, x2, got, want)
		}
		disagree[d.Name()] = true
	}
	return disagree
}

// TestFoldEqualsMaterializeOnPaperExamples checks every derivation on
// the paper's worked example pair (t32, t42) against its aggregate over
// the worlds.Materialize'd possible worlds of Fig. 7, and the canonical
// derivations against the paper's numbers (Eq. 6: 7/15, Eq. 7–9: 0.75).
func TestFoldEqualsMaterializeOnPaperExamples(t *testing.T) {
	t32 := paperdata.R3().TupleByID("t32")
	t42 := paperdata.R4().TupleByID("t42")
	m := avm.NewMatcher(strsim.NormalizedHamming, strsim.NormalizedHamming)
	model := decision.SimpleModel{
		Phi: decision.WeightedSum(0.8, 0.2),
		T:   decision.Thresholds{Lambda: 0.4, Mu: 0.7},
	}
	for _, d := range allDerivations() {
		want := oracle(d, pairWorlds(t, m, t32, t42, conditioned(d)), model)
		if got := d.Sim(NewPairSource(m, t32, t42), model); !agreesAny(got, want) {
			t.Errorf("%s: fold %v, possible worlds %v", d.Name(), got, want)
		}
	}
	if got := (SimilarityBased{Conditioned: true}).Sim(NewPairSource(m, t32, t42), model); math.Abs(got-7.0/15) > 1e-9 {
		t.Errorf("Eq. 6 = %v, want 7/15", got)
	}
	if got := (DecisionBased{Conditioned: true}).Sim(NewPairSource(m, t32, t42), model); math.Abs(got-0.75) > 1e-9 {
		t.Errorf("Eq. 7–9 = %v, want 0.75", got)
	}
	pm, pu := DecisionBased{Conditioned: true}.Probabilities(NewPairSource(m, t32, t42), model)
	if math.Abs(pm-3.0/9) > 1e-9 || math.Abs(pu-4.0/9) > 1e-9 {
		t.Errorf("P(m)=%v P(u)=%v, want 3/9 and 4/9", pm, pu)
	}
}

// TestQuickFoldEqualsMaterialize is the possible-worlds oracle: on 2,000
// random pairs with certain-valued alternatives every derivation agrees
// with its world aggregate in both conditioning modes, and on 2,000
// pairs with uncertain attribute values similarity-based still does
// while every other derivation is seen to differ (see checkOracle). One
// PairSource is reused across all pairs, so scratch reuse must not leak
// state between them.
func TestQuickFoldEqualsMaterialize(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	m := avm.NewMatcher(strsim.Levenshtein, strsim.NormalizedHamming)
	src := &PairSource{}
	for i := 0; i < 2000; i++ {
		checkOracle(t, src, m, randXTuple(r, "a", false), randXTuple(r, "b", false), false)
	}
	differ := map[string]bool{}
	for i := 0; i < 2000; i++ {
		for name := range checkOracle(t, src, m, randXTuple(r, "a", true), randXTuple(r, "b", true), true) {
			differ[name] = true
		}
	}
	for _, d := range allDerivations() {
		if _, linear := d.(SimilarityBased); !linear && !differ[d.Name()] {
			t.Errorf("%s never differed from its world aggregate on uncertain values; is it a world identity after all?", d.Name())
		}
	}
}

// FuzzDerivationOracle runs the possible-worlds oracle on the pairs the
// random generator draws from the fuzzed seed: one with certain-valued
// alternatives, one with uncertain attribute values.
func FuzzDerivationOracle(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42, 1 << 40} {
		f.Add(seed)
	}
	m := avm.NewMatcher(strsim.Levenshtein, strsim.NormalizedHamming)
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		src := &PairSource{}
		checkOracle(t, src, m, randXTuple(r, "a", false), randXTuple(r, "b", false), false)
		checkOracle(t, src, m, randXTuple(r, "a", true), randXTuple(r, "b", true), true)
	})
}

// nearThreshold reports whether sim lies within 1e-9 of a threshold,
// where rounding alone may flip its class.
func nearThreshold(sim float64, th decision.Thresholds) bool {
	return math.Abs(sim-th.Lambda) <= 1e-9 || math.Abs(sim-th.Mu) <= 1e-9
}

// TestComparerUsesFoldPath checks the Comparer end to end against the
// possible-worlds aggregate — similarity and final class — and that
// repeated Compare calls on one Comparer stay correct (scratch reuse).
func TestComparerUsesFoldPath(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	final := decision.Thresholds{Lambda: 0.4, Mu: 0.7}
	model := oracleModel()
	ref := avm.NewMatcherWithCache(nil, strsim.NormalizedHamming, strsim.NormalizedHamming)
	for _, d := range allDerivations() {
		c := &Comparer{
			Matcher:  avm.NewMatcher(strsim.NormalizedHamming, strsim.NormalizedHamming),
			AltModel: model,
			Derive:   d,
			Final:    final,
		}
		for i := 0; i < 50; i++ {
			x1 := randXTuple(r, "a", false)
			x2 := randXTuple(r, "b", false)
			got := c.Compare(x1, x2)
			want := oracle(d, pairWorlds(t, ref, x1, x2, conditioned(d)), model)
			if !agreesAny(got.Sim, want) {
				t.Fatalf("%s pair %d: Compare %v, possible worlds %v", d.Name(), i, got.Sim, want)
			}
			if got.ID1 != "a" || got.ID2 != "b" {
				t.Fatalf("%s pair %d: IDs %s,%s", d.Name(), i, got.ID1, got.ID2)
			}
			if len(want) == 1 && !nearThreshold(want[0], final) && got.Class != final.Classify(want[0]) {
				t.Fatalf("%s pair %d: class %v, want %v", d.Name(), i, got.Class, final.Classify(want[0]))
			}
		}
	}
}

// TestMostProbableWorldFoldComputesOneCell pins the efficiency contract
// of MostProbableWorld: only the argmax cell's attribute pairs may reach
// the comparison functions.
func TestMostProbableWorldFoldComputesOneCell(t *testing.T) {
	calls := 0
	counting := func(a, b string) float64 {
		calls++
		return strsim.Exact(a, b)
	}
	// Memoization off so every computed cell is visible.
	m := avm.NewMatcherWithCache(nil, counting, counting)
	x1 := pdb.NewXTuple("x1",
		pdb.NewAlt(0.7, "Tim", "machinist"),
		pdb.NewAlt(0.3, "Tom", "mechanic"))
	x2 := pdb.NewXTuple("x2",
		pdb.NewAlt(0.6, "Kim", "baker"),
		pdb.NewAlt(0.4, "Jim", "smith"))
	d := MostProbableWorld{Conditioned: true}
	sim := d.Sim(NewPairSource(m, x1, x2), decision.SimpleModel{Phi: decision.Average, T: decision.Thresholds{}})
	if calls != 2 {
		t.Fatalf("computed %d attribute similarities, want 2 (one cell)", calls)
	}
	if sim != 0 { // (Tim,Kim) and (machinist,baker) disagree under Exact
		t.Fatalf("sim = %v", sim)
	}
}
