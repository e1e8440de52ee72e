package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"probdedup/internal/avm"
	"probdedup/internal/dataset"
	"probdedup/internal/decision"
	"probdedup/internal/fusion"
	"probdedup/internal/keys"
	"probdedup/internal/pdb"
	"probdedup/internal/ssr"
	"probdedup/internal/strsim"
	"probdedup/internal/verify"
	"probdedup/internal/worlds"
	"probdedup/internal/xmatch"
)

// metamorphicCase is one derivation with final thresholds on its scale.
type metamorphicCase struct {
	derive xmatch.Derivation
	final  decision.Thresholds
}

var (
	similarityScale = decision.Thresholds{Lambda: 0.6, Mu: 0.8}
	weightScale     = decision.Thresholds{Lambda: 0.5, Mu: 2}
	etaScale        = decision.Thresholds{Lambda: 0.8, Mu: 1.5}
)

// metamorphicOpts configures detection under BlockingCertain with
// Levenshtein on the synthetic schema and a thresholded weighted sum
// per alternative pair.
func metamorphicOpts(t *testing.T, schema []string, c metamorphicCase, prefilter bool) Options {
	t.Helper()
	def, err := keys.ParseDef("name:3+job:2", schema)
	if err != nil {
		t.Fatal(err)
	}
	return Options{
		Compare:    []strsim.Func{strsim.Levenshtein, strsim.Levenshtein, strsim.Levenshtein},
		Reduction:  ssr.BlockingCertain{Key: def},
		AltModel:   decision.WeightedSumModel{Weights: decision.EqualWeights(3), T: decision.Thresholds{Lambda: 0.6, Mu: 0.8}},
		Derivation: c.derive,
		Final:      c.final,
		PreFilter:  prefilter,
	}
}

// transform returns a copy of xr with f applied to every x-tuple.
func transform(xr *pdb.XRelation, f func(*pdb.XTuple) *pdb.XTuple) *pdb.XRelation {
	out := pdb.NewXRelation(xr.Name, xr.Schema...)
	for _, x := range xr.Tuples {
		out.Append(f(x.Clone()))
	}
	return out
}

// scaleMembership multiplies every alternative probability by s, which
// changes p(t) and nothing a conditioned derivation may see.
func scaleMembership(s float64) func(*pdb.XTuple) *pdb.XTuple {
	return func(x *pdb.XTuple) *pdb.XTuple {
		for i := range x.Alts {
			x.Alts[i].P *= s
		}
		return x
	}
}

// splitAlternative replaces one alternative by two equal halves with its
// values, which leaves every possible world and its probability as it
// was. The alternative is the last one whose split keeps the tuple's
// conflict-resolved blocking key: fusion.MostProbable ranks
// alternatives, not worlds, so halving its winner may hand the key to
// another alternative and change which pairs are candidates at all.
func splitAlternative(x *pdb.XTuple) *pdb.XTuple {
	key := fusion.MostProbable{}.ResolveX(x)
	for i := len(x.Alts) - 1; i >= 0; i-- {
		half := x.Alts[i]
		half.P /= 2
		alts := slices.Concat(x.Alts[:i], []pdb.Alt{half, half}, x.Alts[i+1:])
		split := pdb.NewXTuple(x.ID, alts...)
		if slices.EqualFunc(fusion.MostProbable{}.ResolveX(split), key, pdb.Value.Equal) {
			return split
		}
	}
	return x
}

// reverseAlternatives reverses the order of x's alternatives, which
// leaves every possible world and its probability as it was, unless
// that moves the tuple's conflict-resolved blocking key (see
// splitAlternative): fusion.MostProbable breaks probability ties by
// position.
func reverseAlternatives(x *pdb.XTuple) *pdb.XTuple {
	rev := pdb.NewXTuple(x.ID, slices.Clone(x.Alts)...)
	slices.Reverse(rev.Alts)
	if slices.EqualFunc(fusion.MostProbable{}.ResolveX(rev), fusion.MostProbable{}.ResolveX(x), pdb.Value.Equal) {
		return rev
	}
	return x
}

// sameClasses fails unless got holds exactly want's pairs with equal
// classes and similarities within 1e-12 (relative beyond 1; ±Inf only
// equal to itself).
func sameClasses(t *testing.T, what string, got, want *Result) {
	t.Helper()
	if len(got.ByPair) != len(want.ByPair) {
		t.Fatalf("%s: %d pairs, want %d", what, len(got.ByPair), len(want.ByPair))
	}
	for p, wm := range want.ByPair {
		gm, ok := got.ByPair[p]
		if !ok {
			t.Fatalf("%s: pair %v missing", what, p)
		}
		close := gm.Sim == wm.Sim ||
			!math.IsInf(wm.Sim, 0) && math.Abs(gm.Sim-wm.Sim) <= 1e-12*math.Max(1, math.Abs(wm.Sim))
		if gm.Class != wm.Class || !close {
			t.Fatalf("%s: pair %v is (%v, %v), want (%v, %v)", what, p, gm.Sim, gm.Class, wm.Sim, wm.Class)
		}
	}
}

// detectorFlush adds xr to a fresh Detector and returns its Flush.
func detectorFlush(t *testing.T, xr *pdb.XRelation, opts Options) *Result {
	t.Helper()
	det, err := NewDetector(xr.Schema, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.AddBatch(xr.Tuples); err != nil {
		t.Fatal(err)
	}
	return det.Flush()
}

// checkMetamorphic runs Detect and a pre-filtering Detector on xr and on
// its image, for every case, and requires every pair's class to stay
// and its similarity to move by at most 1e-12.
func checkMetamorphic(t *testing.T, xr, image *pdb.XRelation, cases []metamorphicCase) {
	t.Helper()
	for _, c := range cases {
		opts := metamorphicOpts(t, xr.Schema, c, false)
		want, err := Detect(xr, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Detect(image, opts)
		if err != nil {
			t.Fatal(err)
		}
		sameClasses(t, c.derive.Name()+" Detect", got, want)
		opts = metamorphicOpts(t, xr.Schema, c, true)
		sameClasses(t, c.derive.Name()+" Detector", detectorFlush(t, image, opts), detectorFlush(t, xr, opts))
	}
}

// metamorphicRelation is the synthetic corpus both relations run on:
// multi-alternative, maybe- and uncertain-valued tuples.
func metamorphicRelation() *pdb.XRelation {
	return dataset.Generate(dataset.DefaultConfig(60, 11)).Union()
}

// TestMetamorphicAlternativeSplit: splitting an alternative into two
// equal halves leaves the possible worlds unchanged, so no derivation
// that aggregates over worlds or over alternative-pair weights may
// notice. (The most probable world and the weighted maximum read single
// alternatives' probabilities and are exempt.)
func TestMetamorphicAlternativeSplit(t *testing.T) {
	xr := metamorphicRelation()
	split := 0
	for _, x := range transform(xr, splitAlternative).Tuples {
		if len(x.Alts) > len(xr.TupleByID(x.ID).Alts) {
			split++
		}
	}
	if split < len(xr.Tuples)/2 {
		t.Fatalf("only %d of %d tuples split", split, len(xr.Tuples))
	}
	checkMetamorphic(t, xr, transform(xr, splitAlternative), []metamorphicCase{
		{xmatch.SimilarityBased{Conditioned: true}, similarityScale},
		{xmatch.DecisionBased{Conditioned: true}, weightScale},
		{xmatch.ExpectedEta{Conditioned: true}, etaScale},
		{xmatch.MaxSim{Conditioned: true}, similarityScale},
	})
}

// TestMetamorphicMembershipScale: scaling every tuple's alternatives by
// 0.5, or by 1e-12 (far below pdb.Eps), changes only p(t), which no
// conditioned derivation may see (Sec. IV-B).
func TestMetamorphicMembershipScale(t *testing.T) {
	xr := metamorphicRelation()
	cases := []metamorphicCase{
		{xmatch.SimilarityBased{Conditioned: true}, similarityScale},
		{xmatch.DecisionBased{Conditioned: true}, weightScale},
		{xmatch.ExpectedEta{Conditioned: true}, etaScale},
		{xmatch.MostProbableWorld{Conditioned: true}, similarityScale},
		{xmatch.MaxSim{Conditioned: true}, similarityScale},
		{xmatch.MaxSim{Conditioned: true, Weighted: true}, similarityScale},
	}
	for _, s := range []float64{0.5, 1e-12} {
		checkMetamorphic(t, xr, transform(xr, scaleMembership(s)), cases)
	}
}

// TestMetamorphicPermutation: the order of a tuple's alternatives and
// the order of the relation's tuples are no part of the data (Sec.
// IV-B aggregates over worlds and pairs), so permuting either may change
// only the order of work, never a class or a similarity.
func TestMetamorphicPermutation(t *testing.T) {
	xr := metamorphicRelation()
	cases := []metamorphicCase{
		{xmatch.SimilarityBased{Conditioned: true}, similarityScale},
		{xmatch.DecisionBased{Conditioned: true}, weightScale},
		{xmatch.ExpectedEta{Conditioned: true}, etaScale},
		{xmatch.MostProbableWorld{Conditioned: true}, similarityScale},
		{xmatch.MaxSim{Conditioned: true}, similarityScale},
		{xmatch.MaxSim{Conditioned: true, Weighted: true}, similarityScale},
	}
	moved := 0
	for _, x := range xr.Tuples {
		if len(x.Alts) > 1 && reverseAlternatives(x) != x {
			moved++
		}
	}
	if moved < len(xr.Tuples)/4 {
		t.Fatalf("only %d of %d tuples had their alternatives reversed", moved, len(xr.Tuples))
	}
	checkMetamorphic(t, xr, transform(xr, reverseAlternatives), cases)

	backwards := pdb.NewXRelation(xr.Name, xr.Schema...)
	for _, x := range slices.Backward(xr.Tuples) {
		backwards.Append(x.Clone())
	}
	checkMetamorphic(t, xr, backwards, cases)
}

// randomCertainRelation draws n certain tuples (p(t) = 1) over three
// attributes: every value certain, from a small pool of near-duplicate
// strings so all three classes occur, or ⊥.
func randomCertainRelation(rng *rand.Rand, n int) *pdb.Relation {
	pool := []string{"anna", "ana", "anne", "hanna", "bob", "bobby", "rob", "mechanic", "mechanics"}
	r := pdb.NewRelation("certain", "name", "job", "city")
	for i := range n {
		attrs := make([]pdb.Dist, len(r.Schema))
		for k := range attrs {
			if rng.Intn(6) == 0 {
				attrs[k] = pdb.CertainNull()
			} else {
				attrs[k] = pdb.Certain(pool[rng.Intn(len(pool))])
			}
		}
		r.Append(pdb.NewTuple(fmt.Sprintf("t%02d", i), 1, attrs...))
	}
	return r
}

// TestMetamorphicCertainLift: certain data lifted by
// worlds.FromRelation has one world, so every derivation must reduce,
// bit for bit, to the certain decision model φ over
// avm.Matcher.CompareTuples of the two tuples: the similarity-based,
// max-sim and most-probable-world derivations to φ itself, expected-η
// to the class score of φ, decision-based to +Inf when φ classifies M
// and 0 otherwise — each classified by Final.
func TestMetamorphicCertainLift(t *testing.T) {
	final := decision.Thresholds{Lambda: 0.6, Mu: 0.8}
	compare := []strsim.Func{strsim.Levenshtein, strsim.NormalizedHamming, strsim.Levenshtein}
	model := decision.WeightedSumModel{Weights: []float64{0.5, 0.3, 0.2}, T: final}
	matcher := avm.NewMatcher(compare...)
	derivations := []struct {
		derive xmatch.Derivation
		want   func(phi float64) float64
	}{
		{xmatch.SimilarityBased{Conditioned: true}, func(phi float64) float64 { return phi }},
		{xmatch.SimilarityBased{}, func(phi float64) float64 { return phi }},
		{xmatch.MaxSim{Conditioned: true}, func(phi float64) float64 { return phi }},
		{xmatch.MaxSim{Conditioned: true, Weighted: true}, func(phi float64) float64 { return phi }},
		{xmatch.MostProbableWorld{Conditioned: true}, func(phi float64) float64 { return phi }},
		{xmatch.ExpectedEta{Conditioned: true}, func(phi float64) float64 { return final.Classify(phi).Score() }},
		{xmatch.DecisionBased{Conditioned: true}, func(phi float64) float64 {
			if final.Classify(phi) == decision.M {
				return math.Inf(1)
			}
			return 0
		}},
	}
	rng := rand.New(rand.NewSource(1))
	classes := map[decision.Class]int{}
	for range 50 {
		r := randomCertainRelation(rng, 10)
		xr := worlds.FromRelation(r)
		for _, d := range derivations {
			res, err := Detect(xr, Options{Compare: compare, AltModel: model, Derivation: d.derive, Final: final})
			if err != nil {
				t.Fatal(err)
			}
			if want := ssr.TotalPairs(len(r.Tuples)); len(res.ByPair) != want {
				t.Fatalf("%s: %d pairs compared, want %d", d.derive.Name(), len(res.ByPair), want)
			}
			for i, t1 := range r.Tuples {
				for _, t2 := range r.Tuples[i+1:] {
					phi := model.Similarity(matcher.CompareTuples(t1, t2))
					want := d.want(phi)
					got := res.ByPair[verify.NewPair(t1.ID, t2.ID)]
					if got.Sim != want || got.Class != final.Classify(want) {
						t.Fatalf("%s: pair (%s, %s) is (%v, %v), want (%v, %v) from φ = %v",
							d.derive.Name(), t1.ID, t2.ID, got.Sim, got.Class, want, final.Classify(want), phi)
					}
					classes[final.Classify(phi)]++
				}
			}
		}
	}
	for _, c := range []decision.Class{decision.M, decision.P, decision.U} {
		if classes[c] == 0 {
			t.Fatalf("no pair of class %v: the corpus does not exercise every class", c)
		}
	}
}
