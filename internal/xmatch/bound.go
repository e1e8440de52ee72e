package xmatch

import (
	"math"

	"probdedup/internal/avm"
	"probdedup/internal/decision"
)

// Bounded is the derivation side of the candidate pre-filter's
// soundness chain (internal/ssr): given a sound upper bound on every
// alternative-pair similarity φ(c⃗ᵢⱼ), a Bounded derivation bounds the
// derived x-tuple similarity without seeing a single comparison
// vector. SimUpperBound must return a value ≥ Sim(src, model) for
// every x-tuple pair whose cells all satisfy
// model.Similarity(c⃗ᵢⱼ) ≤ cellUB; +Inf is always sound and disables
// filtering for the derivation.
type Bounded interface {
	Derivation
	// SimUpperBound bounds the derived similarity from a per-cell
	// similarity bound. cellUB is guaranteed ≥ 0 by the caller.
	SimUpperBound(cellUB float64, model decision.Model) float64
}

// SimUpperBound implements Bounded: the derivation is a combination
// Σ w1ᵢ·w2ⱼ·sim(c⃗ᵢⱼ) with non-negative weights whose sum per side is at
// most 1 + pdb.Eps (an x-tuple's tolerance), so with cellUB ≥ 0 the
// total is at most avm.MaxMass·cellUB.
func (d SimilarityBased) SimUpperBound(cellUB float64, model decision.Model) float64 {
	return avm.MaxMass * cellUB
}

// SimUpperBound implements Bounded: a cell's weight, the joint
// probability of its alternatives, is at most avm.MaxMass, so with
// cellUB ≥ 0 the (optionally weighted) maximum over cells is at most
// avm.MaxMass·cellUB.
func (d MaxSim) SimUpperBound(cellUB float64, model decision.Model) float64 {
	return avm.MaxMass * cellUB
}

// SimUpperBound implements Bounded: the single most probable cell obeys
// the per-cell bound.
func (d MostProbableWorld) SimUpperBound(cellUB float64, model decision.Model) float64 {
	return cellUB
}

// nonMatchCertain reports whether every cell with similarity ≤ cellUB
// classifies as a non-match: the model exposes its U region
// (decision.NonMatchBounded) and cellUB lies strictly below it.
func nonMatchCertain(cellUB float64, model decision.Model) bool {
	nb, ok := model.(decision.NonMatchBounded)
	return ok && cellUB < nb.NonMatchBelow()
}

// SimUpperBound implements Bounded: when every cell is certainly a
// non-match P(m) = 0, so the matching weight P(m)/P(u) is 0; otherwise
// the ratio is unbounded (P(u) can vanish) and +Inf is the only sound
// answer.
func (d DecisionBased) SimUpperBound(cellUB float64, model decision.Model) float64 {
	if nonMatchCertain(cellUB, model) {
		return 0
	}
	return math.Inf(1)
}

// SimUpperBound implements Bounded: with every cell a certain
// non-match, every η score is 0 and so is their expectation. Otherwise
// only the trivial envelope of the encoding applies, which never helps
// a filter thresholded in [0,1] — return +Inf for clarity.
func (d ExpectedEta) SimUpperBound(cellUB float64, model decision.Model) float64 {
	if nonMatchCertain(cellUB, model) {
		return 0
	}
	return math.Inf(1)
}
