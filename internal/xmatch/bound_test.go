package xmatch

import (
	"math"
	"testing"

	"probdedup/internal/avm"
	"probdedup/internal/decision"
)

// opaqueModel has no NonMatchBounded view, so the class-aggregating
// derivations must fall back to +Inf.
type opaqueModel struct{}

func (opaqueModel) Similarity(c avm.Vector) float64   { return 0 }
func (opaqueModel) Classify(s float64) decision.Class { return decision.U }

func boundedModel(lambda float64) decision.Model {
	return decision.WeightedSumModel{
		Weights: decision.EqualWeights(2),
		T:       decision.Thresholds{Lambda: lambda, Mu: 0.9},
	}
}

// TestPassThroughBounds: the convex-combination-shaped derivations
// (similarity based, max-sim, most probable world) inherit the cell
// bound; those that weigh cells by alternative probabilities widen it
// by avm.MaxMass, since an x-tuple's alternatives may sum to 1+pdb.Eps.
func TestPassThroughBounds(t *testing.T) {
	model := boundedModel(0.6)
	for name, tc := range map[string]struct {
		d     Bounded
		scale float64
	}{
		"similarity-based":    {SimilarityBased{}, avm.MaxMass},
		"similarity-cond":     {SimilarityBased{Conditioned: true}, avm.MaxMass},
		"max-sim":             {MaxSim{}, avm.MaxMass},
		"max-sim-weighted":    {MaxSim{Weighted: true}, avm.MaxMass},
		"most-probable-world": {MostProbableWorld{}, 1},
	} {
		for _, ub := range []float64{0, 0.25, 0.6, 1} {
			if got := tc.d.SimUpperBound(ub, model); got != tc.scale*ub {
				t.Fatalf("%s: SimUpperBound(%v) = %v, want %v", name, ub, got, tc.scale*ub)
			}
		}
	}
}

// TestClassAggregatingBounds: decision based and expected-η derive 0
// when every cell is certainly a non-match (cellUB strictly below the
// model's U region) and are unbounded otherwise.
func TestClassAggregatingBounds(t *testing.T) {
	model := boundedModel(0.6)
	for name, d := range map[string]Bounded{
		"decision-based": DecisionBased{},
		"expected-eta":   ExpectedEta{},
	} {
		if got := d.SimUpperBound(0.59, model); got != 0 {
			t.Fatalf("%s: certain non-match bound = %v, want 0", name, got)
		}
		if got := d.SimUpperBound(0.6, model); !math.IsInf(got, 1) {
			t.Fatalf("%s: cellUB at Tλ bound = %v, want +Inf", name, got)
		}
		// A model that hides its U region gives the filter nothing.
		if got := d.SimUpperBound(0, opaqueModel{}); !math.IsInf(got, 1) {
			t.Fatalf("%s: opaque model bound = %v, want +Inf", name, got)
		}
	}
}

// TestBuiltinDerivationsAreBounded pins that every built-in derivation
// implements Bounded — a new derivation without a bound silently
// disables filtering, which should be a conscious choice.
func TestBuiltinDerivationsAreBounded(t *testing.T) {
	for name, d := range map[string]Derivation{
		"similarity-based":    SimilarityBased{},
		"max-sim":             MaxSim{},
		"most-probable-world": MostProbableWorld{},
		"decision-based":      DecisionBased{},
		"expected-eta":        ExpectedEta{},
	} {
		if _, ok := d.(Bounded); !ok {
			t.Fatalf("%s does not implement Bounded", name)
		}
	}
}
