package xmatch

import (
	"math"

	"probdedup/internal/avm"
	"probdedup/internal/decision"
	"probdedup/internal/pdb"
)

// Derivation is the function ϑ of Fig. 6 step 2, generalized over both
// approaches: it folds over the alternative pairs of an x-tuple pair,
// reading each comparison vector from the pair source as it needs it,
// under the per-alternative decision model.
type Derivation interface {
	// Name identifies the derivation in reports and benchmarks.
	Name() string
	// Sim derives sim(t1,t2) ∈ ℝ.
	Sim(src *PairSource, model decision.Model) float64
}

// SimilarityBased is the similarity-based derivation: the conditional
// expectation of the alternative pair similarities (Eq. 6),
//
//	sim(t1,t2) = Σᵢ Σⱼ p(tⁱ1)/p(t1) · p(tʲ2)/p(t2) · sim(tⁱ1,tʲ2).
//
// As the paper notes it suits knowledge-based techniques: with a normalized
// φ the expectation is normalized too, whereas unbounded matching weights
// can make the expectation unrepresentative.
type SimilarityBased struct {
	// Conditioned applies the p(tⁱ)/p(t) normalization (the paper's
	// definition). Disabling it is an ablation that lets tuple membership
	// leak into the similarity.
	Conditioned bool
}

// Name implements Derivation.
func (d SimilarityBased) Name() string {
	if !d.Conditioned {
		return "similarity-based(unconditioned)"
	}
	return "similarity-based"
}

// Sim implements Derivation. On a source with a floor (a Comparer with
// StopAtU) under a model that bounds its similarity
// (decision.UpperBounded) it may stop early: once the pairs it has
// visited, heaviest first, prove the sum below the floor, it returns
// that proof, a value below the floor that is at least the sum, instead
// of the sum. Otherwise it returns the sum, bit-identical whatever the
// floor.
func (d SimilarityBased) Sim(src *PairSource, model decision.Model) float64 {
	return src.expect(d.Conditioned, model.Similarity, model)
}

// DecisionBased is the decision-based derivation of Eq. 7–9: classify every
// alternative pair, then
//
//	sim(t1,t2) = P(m)/P(u)
//
// where P(m) (resp. P(u)) is the total conditioned probability of the
// alternative pairs — equivalently of the possible worlds — declared
// matches (resp. non-matches). The result is non-normalized; if P(u) = 0
// while P(m) > 0 the similarity is +Inf, and 0 when both are 0.
type DecisionBased struct {
	Conditioned bool
}

// Name implements Derivation.
func (d DecisionBased) Name() string {
	if !d.Conditioned {
		return "decision-based(unconditioned)"
	}
	return "decision-based"
}

// Sim implements Derivation.
func (d DecisionBased) Sim(src *PairSource, model decision.Model) float64 {
	pm, pu := d.Probabilities(src, model)
	return matchingWeight(pm, pu)
}

// matchingWeight combines P(m) and P(u) into the similarity of Eq. 7.
func matchingWeight(pm, pu float64) float64 {
	switch {
	case pu > 0:
		return pm / pu
	case pm > 0:
		return math.Inf(1)
	default:
		return 0
	}
}

// Probabilities returns P(m) and P(u) (Eq. 8 and 9), accumulated pair by
// pair.
func (d DecisionBased) Probabilities(src *PairSource, model decision.Model) (pm, pu float64) {
	w1, w2 := src.Weights(d.Conditioned)
	k, l := src.Dims()
	for i := 0; i < k; i++ {
		for j := 0; j < l; j++ {
			switch decision.Decide(model, src.At(i, j)) {
			case decision.M:
				pm += w1[i] * w2[j]
			case decision.U:
				pu += w1[i] * w2[j]
			}
		}
	}
	return pm, pu
}

// ExpectedEta is the further decision-based derivation mentioned at the end
// of Sec. IV-B: ϑ = E(η(tⁱ1,tʲ2)|B) with the encoding {m=2, p=1, u=0}.
// The result lies in [0,2].
type ExpectedEta struct {
	Conditioned bool
}

// Name implements Derivation.
func (d ExpectedEta) Name() string {
	if !d.Conditioned {
		return "expected-eta(unconditioned)"
	}
	return "expected-eta"
}

// Sim implements Derivation.
func (d ExpectedEta) Sim(src *PairSource, model decision.Model) float64 {
	return src.expect(d.Conditioned, func(c avm.Vector) float64 {
		return decision.Decide(model, c).Score()
	}, nil)
}

// Comparer runs the complete adapted decision model of Fig. 6 on x-tuple
// pairs: attribute value matching, per-alternative combination/
// classification, derivation ϑ, and final classification. The
// derivation folds over the comparer's reusable PairSource, so no
// comparison matrix is materialized and the steady state allocates
// nothing.
//
// A Comparer is not safe for concurrent use (the scratch is shared
// across its Compare calls); give each goroutine its own Comparer. The
// matchers of several comparers may share one avm.Cache.
//
// With StopAtU set, a comparison may stop as soon as class U is proven
// (see SimilarityBased.Sim); its Result's Sim is then a bound, not a
// similarity. The online engines set it, because they keep nothing of a
// U outcome; batch detection does not, and reports every similarity in
// full.
type Comparer struct {
	// Matcher computes the alternative-pair comparison vectors.
	Matcher *avm.Matcher
	// AltModel is the decision model applied to alternative tuple pairs
	// (φ in step 1, and for decision-based derivations the per-pair
	// classification of step 1.2).
	AltModel decision.Model
	// Derive is the derivation function ϑ of step 2.
	Derive Derivation
	// Final are the thresholds of step 3 classifying sim(t1,t2).
	Final decision.Thresholds
	// StopAtU gives the fold Final.Lambda as its floor: a derivation
	// that can prove sim(t1,t2) < Final.Lambda early stops there. The
	// zero value folds every pair in full.
	StopAtU bool

	// src is the reusable pair source the derivation folds over.
	src PairSource
	// exits counts the comparisons that stopped at a proven U.
	exits int
}

// Result is the outcome of comparing one x-tuple pair.
type Result struct {
	// ID1, ID2 are the x-tuple IDs.
	ID1, ID2 string
	// Sim is sim(t1,t2) as produced by the derivation function. When a
	// comparer with StopAtU stopped at a proven U, Sim is the bound that
	// proved it: at least sim(t1,t2) and below Final.Lambda, but not a
	// similarity. An M or P result always carries the full similarity.
	Sim float64
	// Class is η(t1,t2) ∈ {m,p,u}.
	Class decision.Class
}

// Compare executes the full pipeline of Fig. 6 on one x-tuple pair. A
// fold that stopped at its floor returned a value below Final.Lambda,
// so the pair classifies U like any other.
func (c *Comparer) Compare(x1, x2 *pdb.XTuple) Result {
	c.src.Reset(c.Matcher, x1, x2)
	if c.StopAtU {
		c.src.floor = c.Final.Lambda
	}
	sim := c.Derive.Sim(&c.src, c.AltModel)
	if c.src.exited {
		c.exits++
	}
	return Result{ID1: x1.ID, ID2: x2.ID, Sim: sim, Class: c.Final.Classify(sim)}
}

// Exits returns how many of the comparer's comparisons stopped at a
// proven U.
func (c *Comparer) Exits() int { return c.exits }
