// Package fusion provides conflict resolution strategies known from the
// fusion of certain data (Bleiholder & Naumann), used in Sec. V-A.2 to
// create certain key values from probabilistic tuples, and a simple
// probabilistic merge of matched tuples for building integration results.
package fusion

import (
	"fmt"
	"strings"

	"probdedup/internal/pdb"
)

// Strategy resolves an x-tuple's uncertainty into a single certain tuple.
type Strategy interface {
	// Name identifies the strategy in reports.
	Name() string
	// ResolveX collapses an x-tuple into certain attribute values.
	ResolveX(x *pdb.XTuple) []pdb.Value
	// Resolve collapses a dependency-free tuple into certain values.
	Resolve(t *pdb.Tuple) []pdb.Value
}

// MostProbable is the metadata-based deciding strategy of Sec. V-A.2: pick
// the most probable alternative, then the most probable value of every
// remaining uncertain attribute. For key creation this is equivalent to
// taking the most probable world (as the paper notes), so the matchings it
// produces are a subset of those of the multi-pass approach.
type MostProbable struct{}

// Name implements Strategy.
func (MostProbable) Name() string { return "most-probable" }

// ResolveX implements Strategy.
func (MostProbable) ResolveX(x *pdb.XTuple) []pdb.Value {
	// The most probable concrete instantiation maximizes
	// alt.P/p(t) · Π mode(attr) (conditioned, so p(t) cannot matter): the
	// argmax factorizes per attribute inside an alternative, but the
	// alternative choice must account for the mode products. Only the
	// winning alternative's values are materialized (this runs per tuple
	// on the blocking/SNM key paths).
	best, bestP, pt := -1, -1.0, x.P()
	for idx, alt := range x.Alts {
		p := alt.P / pt
		for _, d := range alt.Values {
			_, vp := d.Mode()
			p *= vp
		}
		if p > bestP+pdb.Eps {
			bestP, best = p, idx
		}
	}
	if best < 0 {
		return nil
	}
	alt := x.Alts[best]
	vals := make([]pdb.Value, len(alt.Values))
	for i, d := range alt.Values {
		vals[i], _ = d.Mode()
	}
	return vals
}

// Resolve implements Strategy.
func (MostProbable) Resolve(t *pdb.Tuple) []pdb.Value {
	vals := make([]pdb.Value, len(t.Attrs))
	for i, d := range t.Attrs {
		vals[i], _ = d.Mode()
	}
	return vals
}

// MostProbableAlternative resolves to the most probable alternative
// (ignoring attribute-level modes when ranking alternatives), then takes
// per-attribute modes. It differs from MostProbable when a less probable
// alternative has more concentrated attribute distributions.
type MostProbableAlternative struct{}

// Name implements Strategy.
func (MostProbableAlternative) Name() string { return "most-probable-alternative" }

// ResolveX implements Strategy.
func (MostProbableAlternative) ResolveX(x *pdb.XTuple) []pdb.Value {
	alt := x.Alts[x.MostProbableAlt()]
	vals := make([]pdb.Value, len(alt.Values))
	for i, d := range alt.Values {
		vals[i], _ = d.Mode()
	}
	return vals
}

// Resolve implements Strategy.
func (MostProbableAlternative) Resolve(t *pdb.Tuple) []pdb.Value {
	return MostProbable{}.Resolve(t)
}

// ResolveRelation applies a strategy to every tuple of an x-relation and
// returns the certain relation (p(t)=1 everywhere), e.g. as input to
// conventional key creation.
func ResolveRelation(s Strategy, xr *pdb.XRelation) *pdb.Relation {
	r := pdb.NewRelation(xr.Name, xr.Schema...)
	for _, x := range xr.Tuples {
		vals := s.ResolveX(x)
		attrs := make([]pdb.Dist, len(vals))
		for i, v := range vals {
			if v.IsNull() {
				attrs[i] = pdb.CertainNull()
			} else {
				attrs[i] = pdb.Certain(v.S())
			}
		}
		r.Append(pdb.NewTuple(x.ID, 1, attrs...))
	}
	return r
}

// MergeXTuples fuses two matched x-tuples into a single probabilistic
// x-tuple whose alternatives are the union of both inputs' alternatives
// with probabilities blended by the source weights wa and wb
// (wa+wb must be positive; they are normalized internally). Alternatives
// with identical attribute values merge. This realizes the outlook of
// Sec. VI: uncertainty arising in duplicate detection is represented
// directly in the probabilistic result.
func MergeXTuples(id string, a, b *pdb.XTuple, wa, wb float64) (*pdb.XTuple, error) {
	if wa < 0 || wb < 0 || wa+wb <= 0 {
		return nil, fmt.Errorf("fusion: invalid weights %v, %v", wa, wb)
	}
	na, nb := wa/(wa+wb), wb/(wa+wb)
	type altKey string
	var kb strings.Builder
	keyOf := func(alt pdb.Alt) altKey {
		kb.Reset()
		for _, d := range alt.Values {
			kb.WriteString(d.String())
			kb.WriteByte(0x1f)
		}
		return altKey(kb.String())
	}
	merged := map[altKey]*pdb.Alt{}
	var order []altKey
	add := func(alts []pdb.Alt, scale, srcP float64) {
		if srcP <= pdb.Eps {
			return
		}
		for _, alt := range alts {
			k := keyOf(alt)
			// Condition each source on membership so the merged tuple's
			// alternatives reflect value uncertainty, not source membership.
			p := scale * alt.P / srcP
			if ex, ok := merged[k]; ok {
				ex.P += p
				continue
			}
			cp := pdb.Alt{Values: append([]pdb.Dist(nil), alt.Values...), P: p}
			merged[k] = &cp
			order = append(order, k)
		}
	}
	add(a.Alts, na, a.P())
	add(b.Alts, nb, b.P())
	out := &pdb.XTuple{ID: id}
	for _, k := range order {
		out.Alts = append(out.Alts, *merged[k])
	}
	return out, nil
}
