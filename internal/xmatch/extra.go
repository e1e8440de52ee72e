package xmatch

import (
	"math"

	"probdedup/internal/decision"
)

// The paper notes that "further adequate derivation functions are possible"
// beyond the two presented (Sec. IV-B). This file provides two such
// derivations used by the ablation benchmarks.

// MostProbableWorld derives the x-tuple similarity from the single most
// probable alternative pair: ϑ = sim(tⁱ*, tʲ*) where i*, j* maximize the
// (conditioned) alternative probabilities. It is the derivation analogue of
// the conflict-resolution key strategy (Sec. V-A.2): cheap, but blind to
// all other worlds.
type MostProbableWorld struct {
	Conditioned bool
}

// Name implements Derivation.
func (d MostProbableWorld) Name() string {
	if !d.Conditioned {
		return "most-probable-world(unconditioned)"
	}
	return "most-probable-world"
}

// Sim implements Derivation. Only the single cell of the most probable
// alternative pair is ever computed — the derivation is blind to the
// rest of the pairs by definition, so it skips K·L−1 attribute value
// matchings.
func (d MostProbableWorld) Sim(src *PairSource, model decision.Model) float64 {
	x1, x2 := src.XTuples()
	if len(x1.Alts) == 0 || len(x2.Alts) == 0 {
		return 0
	}
	return model.Similarity(src.At(x1.MostProbableAlt(), x2.MostProbableAlt()))
}

// MaxSim derives the x-tuple similarity as the maximum alternative-pair
// similarity, optionally damped by the joint (conditioned) probability of
// that pair when Weighted is set. The undamped variant is the most
// optimistic derivation: two x-tuples are as similar as their most similar
// interpretation — useful as a high-recall pre-filter, but prone to false
// positives, which the S01 ablation quantifies.
type MaxSim struct {
	Conditioned bool
	// Weighted multiplies the maximum by the joint probability of the
	// maximizing pair.
	Weighted bool
}

// Name implements Derivation.
func (d MaxSim) Name() string {
	name := "max-sim"
	if d.Weighted {
		name = "max-sim-weighted"
	}
	if !d.Conditioned {
		name += "(unconditioned)"
	}
	return name
}

// Sim implements Derivation: the running maximum over the pairs.
func (d MaxSim) Sim(src *PairSource, model decision.Model) float64 {
	w1, w2 := src.Weights(d.Conditioned)
	k, l := src.Dims()
	best := math.Inf(-1)
	for i := 0; i < k; i++ {
		for j := 0; j < l; j++ {
			s := model.Similarity(src.At(i, j))
			if d.Weighted {
				s *= w1[i] * w2[j]
			}
			if s > best {
				best = s
			}
		}
	}
	if math.IsInf(best, -1) {
		return 0
	}
	return best
}
