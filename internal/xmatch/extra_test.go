package xmatch

import (
	"math"
	"testing"

	"probdedup/internal/paperdata"
	"probdedup/internal/pdb"
)

func TestMostProbableWorldDerivation(t *testing.T) {
	m, model := paperSetup()
	x1, x2 := t32t42()
	// Most probable alternatives: t32 → (Jim,baker), t42 → (Tom,mechanic);
	// their pair similarity is 4/15.
	if got := derive(MostProbableWorld{Conditioned: true}, m, model, x1, x2); !almost(got, 4.0/15) {
		t.Fatalf("sim = %v, want 4/15", got)
	}
}

func TestMaxSimDerivation(t *testing.T) {
	m, model := paperSetup()
	x1, x2 := t32t42()
	// The best alternative pair is (Tim,mechanic)×(Tom,mechanic) = 11/15.
	if got := derive(MaxSim{Conditioned: true}, m, model, x1, x2); !almost(got, 11.0/15) {
		t.Fatalf("max-sim = %v, want 11/15", got)
	}
	// Weighted: 11/15 damped by (0.3/0.9)·(0.8/0.8) = 1/3 → 11/45 — unless
	// another pair scores higher after weighting. Pairs: 11/15·1/3=11/45,
	// 7/15·(2/9)=14/135, 4/15·(4/9)=16/135. Max is 11/45.
	if got := derive(MaxSim{Conditioned: true, Weighted: true}, m, model, x1, x2); !almost(got, 11.0/45) {
		t.Fatalf("weighted max-sim = %v, want 11/45", got)
	}
}

func TestMaxSimUpperBoundsSimilarityBased(t *testing.T) {
	// The expectation can never exceed the maximum.
	m, model := paperSetup()
	all := append(paperdata.R3().Tuples, paperdata.R4().Tuples...)
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			exp := derive(SimilarityBased{Conditioned: true}, m, model, all[i], all[j])
			max := derive(MaxSim{Conditioned: true}, m, model, all[i], all[j])
			if exp > max+1e-9 {
				t.Fatalf("E[sim]=%v > max=%v for (%s,%s)", exp, max, all[i].ID, all[j].ID)
			}
		}
	}
}

func TestExtraDerivationNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range []Derivation{
		MostProbableWorld{Conditioned: true}, MostProbableWorld{},
		MaxSim{Conditioned: true}, MaxSim{},
		MaxSim{Conditioned: true, Weighted: true}, MaxSim{Weighted: true},
	} {
		if d.Name() == "" || seen[d.Name()] {
			t.Errorf("duplicate or empty name %q", d.Name())
		}
		seen[d.Name()] = true
	}
}

func TestExtraDerivationsEmptyish(t *testing.T) {
	m, model := paperSetup()
	a := pdb.NewXTuple("a", pdb.NewAlt(1, "x", "y"))
	b := pdb.NewXTuple("b", pdb.NewAlt(1, "x", "y"))
	if got := derive(MostProbableWorld{Conditioned: true}, m, model, a, b); !almost(got, 1) {
		t.Fatalf("identical mpw = %v", got)
	}
	if got := derive(MaxSim{Conditioned: true}, m, model, a, b); !almost(got, 1) {
		t.Fatalf("identical max = %v", got)
	}
	if math.IsNaN(derive(MaxSim{}, m, model, a, b)) {
		t.Fatal("NaN")
	}
}
