package xmatch

import (
	"cmp"
	"math"
	"slices"

	"probdedup/internal/avm"
	"probdedup/internal/decision"
	"probdedup/internal/pdb"
)

// PairSource is a lazy view of an x-tuple pair's alternative pairs: At
// computes c⃗ᵢⱼ on demand into a scratch vector owned by the source, and
// Weights exposes the (optionally conditioned) alternative probabilities
// from scratch buffers. Every derivation folds over a PairSource; one
// source is reused across all comparisons of a Comparer, which makes the
// steady state allocation-free.
//
// A PairSource is not safe for concurrent use; the vector returned by At
// and the slices returned by Weights are valid only until the next call
// on the same source.
type PairSource struct {
	matcher *avm.Matcher
	x1, x2  *pdb.XTuple

	vec    avm.Vector
	w1, w2 []float64

	// floor lets the similarity-based fold stop once it proves the
	// derived similarity below it (see expect); Reset sets −Inf, which
	// never stops. exited reports that the last fold stopped there.
	floor  float64
	exited bool
	// mass and cell hold each alternative pair's joint weight w1ᵢ·w2ⱼ
	// and its value, row-major (i·L+j). order is the order expect
	// visits them in, and rest[t] the mass a bounded fold has not
	// visited after position t.
	mass, cell, rest []float64
	order            []int
}

// NewPairSource builds a source for one x-tuple pair. Reuse via Reset is
// preferred on hot paths.
func NewPairSource(m *avm.Matcher, x1, x2 *pdb.XTuple) *PairSource {
	p := &PairSource{}
	p.Reset(m, x1, x2)
	return p
}

// Reset points the source at a new x-tuple pair, keeping the scratch
// buffers.
func (p *PairSource) Reset(m *avm.Matcher, x1, x2 *pdb.XTuple) {
	p.matcher, p.x1, p.x2 = m, x1, x2
	p.floor, p.exited = math.Inf(-1), false
}

// Dims returns the alternative counts K and L.
func (p *PairSource) Dims() (k, l int) { return len(p.x1.Alts), len(p.x2.Alts) }

// XTuples returns the pair under comparison.
func (p *PairSource) XTuples() (x1, x2 *pdb.XTuple) { return p.x1, p.x2 }

// At computes the comparison vector c⃗ᵢⱼ of alternative pair (i,j). The
// returned vector is scratch: it is overwritten by the next At call and
// must not be retained.
func (p *PairSource) At(i, j int) avm.Vector {
	p.vec = p.matcher.CompareAltsInto(p.vec, p.x1.Alts[i], p.x2.Alts[j])
	return p.vec
}

// Weights returns the per-alternative probabilities of both x-tuples,
// conditioned on membership (p(tⁱ)/p(t)) when cond is true. The slices
// are scratch and valid until the next Weights or Reset call.
func (p *PairSource) Weights(cond bool) (w1, w2 []float64) {
	p.w1 = altWeightsInto(p.w1, p.x1, cond)
	p.w2 = altWeightsInto(p.w2, p.x2, cond)
	return p.w1, p.w2
}

// expect folds Σᵢ Σⱼ w1ᵢ·w2ⱼ·f(c⃗ᵢⱼ) over the alternative pairs: the
// expectation of f over the worlds in which both x-tuples exist,
// conditioned on that event when cond is true. Every cell's value is
// kept and the sum is taken in canonical (i, j) order, so the result
// does not depend on the order in which the cells were computed.
//
// phi is f's model when f is phi.Similarity, else nil. When phi can
// bound its similarity (see bound) and the source has a floor, the fold
// visits the cells heaviest first, computes each cell's vector one
// attribute at a time, and before every attribute bounds the sum: the
// visited cells' total, plus this cell's mass × phi's bound over its
// vector with every unseen attribute at avm.MaxMass, plus the unvisited
// mass × phi's ceiling. Once that bound, widened by foldSlack, is below
// the floor, the fold returns it and sets exited; the true sum is at
// most the returned value. It skips whole attributes only, so a value
// pair is either fully compared or not at all.
func (p *PairSource) expect(cond bool, f func(avm.Vector) float64, phi decision.Model) float64 {
	w1, w2 := p.Weights(cond)
	k, l := p.Dims()
	n := k * l
	p.mass, p.cell = growFloats(p.mass, n), growFloats(p.cell, n)
	for i := range k {
		for j := range l {
			p.mass[i*l+j] = w1[i] * w2[j]
		}
	}
	p.exited = false
	b, bounded := p.bound(phi)
	p.visitOrder(n, bounded)
	total, abs := 0.0, 0.0 // the visited cells' sum, in visit order, and its magnitude
	for t, c := range p.order {
		i, j := c/l, c%l
		if !bounded {
			p.cell[c] = f(p.At(i, j))
			continue
		}
		p.vec = fillVector(p.vec, len(p.matcher.Funcs), avm.MaxMass)
		v := p.vec
		a1, a2 := p.x1.Alts[i].Values, p.x2.Alts[j].Values
		for a := range v {
			if proof := b.proof(total, abs, p.mass[c], v, p.rest[t]); proof < p.floor {
				p.exited = true
				return proof
			}
			v[a] = p.matcher.AttrSim(a, a1[a], a2[a])
		}
		p.cell[c] = f(v)
		term := p.mass[c] * p.cell[c]
		total += term
		abs += math.Abs(term)
	}
	sum := 0.0
	for c, m := range p.mass {
		sum += m * p.cell[c]
	}
	return sum
}

// foldSlack absorbs rounding: the bounded fold adds its terms in visit
// order, the full fold in canonical order, and each sum of k terms may
// round away from the exact one by k·2⁻⁵³ of the terms' magnitude. A
// bound proves the floor only when it lies below it by more than
// foldSlack times that magnitude (at least 1), which covers folds of up
// to about 4,500 cells.
const foldSlack = 1e-12

// foldBound is what the bounded fold knows of its model: φ's bound over
// a box of attribute bounds (decision.UpperBounded, with the weighted
// sum resolved to its concrete type once per fold) and φ's ceiling, its
// bound with every attribute at avm.MaxMass.
type foldBound struct {
	ub   decision.UpperBounded
	ws   decision.WeightedSumModel
	isWS bool
	top  float64
}

// bound resolves the fold's bound. The fold may stop only when the
// source has a floor above −Inf, f is the similarity of a model that
// bounds it, and the matcher's ⊥ similarities lie in [0,1], so that no
// attribute similarity exceeds avm.MaxMass.
func (p *PairSource) bound(phi decision.Model) (foldBound, bool) {
	ub, ok := phi.(decision.UpperBounded)
	if !ok || p.floor == math.Inf(-1) || (p.matcher.Nulls != nil && !p.matcher.Nulls.InUnit()) {
		return foldBound{}, false
	}
	b := foldBound{ub: ub}
	b.ws, b.isWS = ub.(decision.WeightedSumModel)
	p.vec = fillVector(p.vec, len(p.matcher.Funcs), avm.MaxMass)
	b.top = b.of(p.vec)
	return b, true
}

// of is φ's bound over the box [0,hi₁]×…×[0,hiₙ].
func (b *foldBound) of(hi avm.Vector) float64 {
	if b.isWS {
		return b.ws.SimilarityUpperBound(hi)
	}
	return b.ub.SimilarityUpperBound(hi)
}

// proof bounds the fold from a partly computed cell: total and abs are
// the visited cells' sum and magnitude, m the cell's mass, v its vector
// with every unseen attribute at avm.MaxMass, rest the unvisited mass. Each
// term dominates the fold's term for the same cells (rounded addition,
// and multiplication by a non-negative mass, are monotone); the slack
// covers the different summation order.
func (b *foldBound) proof(total, abs, m float64, v avm.Vector, rest float64) float64 {
	cell, unvisited := m*b.of(v), rest*b.top
	mag := abs + math.Abs(cell) + math.Abs(unvisited)
	return total + cell + unvisited + foldSlack*max(1, mag)
}

// visitOrder lays out the order in which expect visits the n cells:
// canonical, or when bounded by descending mass, ties in canonical
// order, with the mass left after each position in rest.
func (p *PairSource) visitOrder(n int, bounded bool) {
	p.order = p.order[:0]
	for c := range n {
		p.order = append(p.order, c)
	}
	if !bounded {
		return
	}
	slices.SortFunc(p.order, func(a, b int) int {
		if c := cmp.Compare(p.mass[b], p.mass[a]); c != 0 {
			return c
		}
		return a - b
	})
	p.rest = growFloats(p.rest, n)
	rest := 0.0
	for t := n - 1; t >= 0; t-- {
		p.rest[t] = rest
		rest += p.mass[p.order[t]]
	}
}

// growFloats returns dst resized to n, reallocating only when capacity
// is insufficient.
func growFloats(dst []float64, n int) []float64 {
	if cap(dst) < n {
		return make([]float64, n)
	}
	return dst[:n]
}

// fillVector returns dst resized to n with every entry set to x.
func fillVector(dst avm.Vector, n int, x float64) avm.Vector {
	dst = growFloats(dst, n)
	for a := range dst {
		dst[a] = x
	}
	return dst
}

// altWeightsInto writes the per-alternative probabilities of x into dst
// (grown as needed), conditioned (p(tⁱ)/p(t)) when cond is true. Any
// p(t) > 0 is divided out, however small, so membership never leaks.
func altWeightsInto(dst []float64, x *pdb.XTuple, cond bool) []float64 {
	dst = growFloats(dst, len(x.Alts))
	for i, a := range x.Alts {
		dst[i] = a.P
	}
	if cond {
		if pt := x.P(); pt > 0 {
			for i := range dst {
				dst[i] /= pt
			}
		}
	}
	return dst
}
