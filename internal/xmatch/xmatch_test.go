package xmatch

import (
	"math"
	"testing"

	"probdedup/internal/avm"
	"probdedup/internal/decision"
	"probdedup/internal/paperdata"
	"probdedup/internal/pdb"
	"probdedup/internal/strsim"
)

func almost(a, b float64) bool { return math.Abs(a-b) <= 1e-9 }

// paperSetup returns the matcher and per-alternative model used by the
// paper's Sec. IV-B examples: normalized Hamming on both attributes and
// φ(c⃗) = 0.8·c1 + 0.2·c2.
func paperSetup() (*avm.Matcher, decision.Model) {
	m := avm.NewMatcher(strsim.NormalizedHamming, strsim.NormalizedHamming)
	model := decision.SimpleModel{
		Phi: decision.WeightedSum(0.8, 0.2),
		T:   decision.Thresholds{Lambda: 0.4, Mu: 0.7},
	}
	return m, model
}

func t32t42() (*pdb.XTuple, *pdb.XTuple) {
	return paperdata.R3().TupleByID("t32"), paperdata.R4().TupleByID("t42")
}

// derive runs d on one x-tuple pair through a fresh PairSource.
func derive(d Derivation, m *avm.Matcher, model decision.Model, x1, x2 *pdb.XTuple) float64 {
	return d.Sim(NewPairSource(m, x1, x2), model)
}

func TestAlternativePairSimilarities(t *testing.T) {
	// The paper's step-1 values: sim(t¹32,t42)=11/15, sim(t²32,t42)=7/15,
	// sim(t³32,t42)=4/15.
	m, model := paperSetup()
	x1, x2 := t32t42()
	src := NewPairSource(m, x1, x2)
	want := []float64{11.0 / 15, 7.0 / 15, 4.0 / 15}
	for i, w := range want {
		got := model.Similarity(src.At(i, 0))
		if !almost(got, w) {
			t.Errorf("sim(t%d32,t42) = %v, want %v", i+1, got, w)
		}
	}
}

func TestE03SimilarityBasedDerivation(t *testing.T) {
	// Eq. 6 example: sim(t32,t42) = 7/15.
	m, model := paperSetup()
	x1, x2 := t32t42()
	if got := derive(SimilarityBased{Conditioned: true}, m, model, x1, x2); !almost(got, 7.0/15) {
		t.Fatalf("sim(t32,t42) = %v, want 7/15", got)
	}
}

func TestE04DecisionBasedDerivation(t *testing.T) {
	// Eq. 7–9 example with Tλ=0.4, Tμ=0.7: P(m)=3/9, P(u)=4/9, sim=0.75.
	m, model := paperSetup()
	x1, x2 := t32t42()
	d := DecisionBased{Conditioned: true}
	pm, pu := d.Probabilities(NewPairSource(m, x1, x2), model)
	if !almost(pm, 3.0/9) {
		t.Errorf("P(m) = %v, want 3/9", pm)
	}
	if !almost(pu, 4.0/9) {
		t.Errorf("P(u) = %v, want 4/9", pu)
	}
	if got := derive(d, m, model, x1, x2); !almost(got, 0.75) {
		t.Fatalf("sim(t32,t42) = %v, want 0.75", got)
	}
}

func TestExpectedEtaDerivation(t *testing.T) {
	// η values of the three worlds: m(2)·3/9 + p(1)·2/9 + u(0)·4/9 = 8/9.
	m, model := paperSetup()
	x1, x2 := t32t42()
	if got := derive(ExpectedEta{Conditioned: true}, m, model, x1, x2); !almost(got, 8.0/9) {
		t.Fatalf("E(η) = %v, want 8/9", got)
	}
}

func TestConditioningMatters(t *testing.T) {
	// t42 has p=0.8; unconditioned similarity-based derivation scales by
	// 0.9·0.8 = 0.72, leaking membership into the similarity.
	m, model := paperSetup()
	x1, x2 := t32t42()
	cond := derive(SimilarityBased{Conditioned: true}, m, model, x1, x2)
	uncond := derive(SimilarityBased{Conditioned: false}, m, model, x1, x2)
	if !almost(uncond, cond*0.9*0.8) {
		t.Fatalf("unconditioned %v, conditioned %v: expected factor p(t32)·p(t42)", uncond, cond)
	}
}

func TestMembershipInvariance(t *testing.T) {
	// Scaling all alternative probabilities of an x-tuple by a constant
	// (changing p(t) only) must not change any conditioned derivation —
	// also when p(t) falls to 1e-12, far below pdb.Eps.
	m, model := paperSetup()
	x1, x2 := t32t42()
	for _, scale := range []float64{0.5, 1e-12 / x1.P()} {
		scaled := x1.Clone()
		for i := range scaled.Alts {
			scaled.Alts[i].P *= scale
		}
		for _, d := range []Derivation{
			SimilarityBased{Conditioned: true},
			DecisionBased{Conditioned: true},
			ExpectedEta{Conditioned: true},
			MostProbableWorld{Conditioned: true},
			MaxSim{Conditioned: true},
			MaxSim{Conditioned: true, Weighted: true},
		} {
			a := derive(d, m, model, x1, x2)
			b := derive(d, m, model, scaled, x2)
			if !almost(a, b) {
				t.Errorf("%s at p(t)=%g: membership leaked (%v vs %v)", d.Name(), scaled.P(), a, b)
			}
		}
	}
}

func TestDecisionBasedEdgeCases(t *testing.T) {
	m, model := paperSetup()
	d := DecisionBased{Conditioned: true}
	// Identical certain x-tuples: every pair matches → P(u)=0 → +Inf.
	a := pdb.NewXTuple("a", pdb.NewAlt(1, "Tim", "mechanic"))
	b := pdb.NewXTuple("b", pdb.NewAlt(1, "Tim", "mechanic"))
	if got := derive(d, m, model, a, b); !math.IsInf(got, 1) {
		t.Errorf("all-match must be +Inf, got %v", got)
	}
	// Completely dissimilar: P(m)=0 → 0/positive = 0.
	c := pdb.NewXTuple("c", pdb.NewAlt(1, "zzzz", "qqqq"))
	if got := derive(d, m, model, a, c); !almost(got, 0) {
		t.Errorf("all-unmatch = %v, want 0", got)
	}
	// Only possible matches: P(m)=P(u)=0 → 0.
	pOnly := decision.SimpleModel{Phi: decision.Average, T: decision.Thresholds{Lambda: 0, Mu: 1.5}}
	if got := derive(d, m, pOnly, a, b); !almost(got, 0) {
		t.Errorf("all-possible = %v, want 0", got)
	}
}

func TestComparerEndToEnd(t *testing.T) {
	m, model := paperSetup()
	x1, x2 := t32t42()
	c := &Comparer{
		Matcher:  m,
		AltModel: model,
		Derive:   DecisionBased{Conditioned: true},
		// Matching-weight scale: weight > 1 means m-worlds outweigh
		// u-worlds.
		Final: decision.Thresholds{Lambda: 0.5, Mu: 1.0},
	}
	res := c.Compare(x1, x2)
	if res.ID1 != "t32" || res.ID2 != "t42" {
		t.Fatalf("IDs %s,%s", res.ID1, res.ID2)
	}
	if !almost(res.Sim, 0.75) {
		t.Fatalf("sim = %v", res.Sim)
	}
	if res.Class != decision.P {
		t.Fatalf("0.75 ∈ [0.5,1.0] must be a possible match, got %v", res.Class)
	}
}

func TestSimilarityBasedNormalizedRange(t *testing.T) {
	// With a normalized φ the similarity-based derivation stays in [0,1]
	// for every pair of paper x-tuples.
	m, model := paperSetup()
	all := append(paperdata.R3().Tuples, paperdata.R4().Tuples...)
	d := SimilarityBased{Conditioned: true}
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			s := derive(d, m, model, all[i], all[j])
			if s < -1e-9 || s > 1+1e-9 {
				t.Errorf("sim(%s,%s) = %v outside [0,1]", all[i].ID, all[j].ID, s)
			}
		}
	}
}

func TestDerivationNames(t *testing.T) {
	names := map[string]bool{}
	for _, d := range []Derivation{
		SimilarityBased{Conditioned: true}, SimilarityBased{},
		DecisionBased{Conditioned: true}, DecisionBased{},
		ExpectedEta{Conditioned: true}, ExpectedEta{},
	} {
		if d.Name() == "" || names[d.Name()] {
			t.Errorf("duplicate or empty name %q", d.Name())
		}
		names[d.Name()] = true
	}
}

func TestSymmetry(t *testing.T) {
	// sim(t1,t2) == sim(t2,t1) for all derivations on all paper pairs.
	m, model := paperSetup()
	all := append(paperdata.R3().Tuples, paperdata.R4().Tuples...)
	for _, d := range []Derivation{
		SimilarityBased{Conditioned: true},
		DecisionBased{Conditioned: true},
		ExpectedEta{Conditioned: true},
	} {
		for i := 0; i < len(all); i++ {
			for j := i + 1; j < len(all); j++ {
				a := derive(d, m, model, all[i], all[j])
				b := derive(d, m, model, all[j], all[i])
				if !(almost(a, b) || (math.IsInf(a, 1) && math.IsInf(b, 1))) {
					t.Errorf("%s: sim(%s,%s)=%v but sim(%s,%s)=%v",
						d.Name(), all[i].ID, all[j].ID, a, all[j].ID, all[i].ID, b)
				}
			}
		}
	}
}
