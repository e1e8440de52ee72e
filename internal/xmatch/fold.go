package xmatch

import (
	"probdedup/internal/avm"
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
// conditioned on that event when cond is true.
func (p *PairSource) expect(cond bool, f func(avm.Vector) float64) float64 {
	w1, w2 := p.Weights(cond)
	k, l := p.Dims()
	total := 0.0
	for i := 0; i < k; i++ {
		for j := 0; j < l; j++ {
			total += w1[i] * w2[j] * f(p.At(i, j))
		}
	}
	return total
}

// altWeightsInto writes the per-alternative probabilities of x into dst
// (grown as needed), conditioned (p(tⁱ)/p(t)) when cond is true. Any
// p(t) > 0 is divided out, however small, so membership never leaks.
func altWeightsInto(dst []float64, x *pdb.XTuple, cond bool) []float64 {
	if cap(dst) < len(x.Alts) {
		dst = make([]float64, len(x.Alts))
	} else {
		dst = dst[:len(x.Alts)]
	}
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
