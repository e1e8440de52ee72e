package pdb

import (
	"fmt"
	"math"
	"strings"
)

// Alt is one alternative tuple tⁱ of an x-tuple. Alternatives of an x-tuple
// are mutually exclusive. Individual attribute values of an alternative may
// themselves be uncertain (a Dist), which is how the paper represents
// pattern values such as 'mu*' inside an alternative.
type Alt struct {
	// Values holds one distribution per schema attribute, by position.
	Values []Dist
	// P is the probability of this alternative; Σ over the x-tuple's
	// alternatives must be ≤ 1.
	P float64
}

// NewAlt builds an alternative from certain string values.
func NewAlt(p float64, values ...string) Alt {
	vs := make([]Dist, len(values))
	for i, s := range values {
		vs[i] = Certain(s)
	}
	return Alt{Values: vs, P: p}
}

// NewAltDists builds an alternative whose attribute values may be uncertain.
func NewAltDists(p float64, values ...Dist) Alt {
	return Alt{Values: append([]Dist(nil), values...), P: p}
}

// XTuple is a Trio/ULDB x-tuple: one or more mutually exclusive alternative
// tuples (Sec. IV-B). If the alternative probabilities sum to less than one
// the x-tuple is a "maybe" x-tuple (marked '?' in the paper's figures) and
// the remainder is the probability that no alternative belongs to the
// relation.
type XTuple struct {
	// ID identifies the x-tuple (e.g. "t32"). IDs must be unique within an
	// x-relation.
	ID string
	// Alts are the mutually exclusive alternatives t¹..tⁿ.
	Alts []Alt
}

// NewXTuple builds an x-tuple.
func NewXTuple(id string, alts ...Alt) *XTuple {
	return &XTuple{ID: id, Alts: alts}
}

// P returns the x-tuple membership probability p(t) = Σ p(tʲ).
func (x *XTuple) P() float64 {
	p := 0.0
	for _, a := range x.Alts {
		p += a.P
	}
	return p
}

// Maybe reports whether non-existence of the whole x-tuple is possible,
// i.e. p(t) < 1 (the paper's '?').
func (x *XTuple) Maybe() bool { return x.P() < 1-Eps }

// NormalizedAltP returns p(tⁱ)/p(t), the alternative probability conditioned
// on the x-tuple belonging to its relation. This is the conditioning /
// scaling of Sec. IV-B: tuple membership must not influence duplicate
// detection, however small p(t) is.
func (x *XTuple) NormalizedAltP(i int) float64 {
	pt := x.P()
	if pt <= 0 {
		return 0
	}
	return x.Alts[i].P / pt
}

// MostProbableAlt returns the index of the most probable alternative by
// NormalizedAltP, so p(t) cannot matter; ties within Eps go to the lower.
func (x *XTuple) MostProbableAlt() int {
	best, bestP := 0, math.Inf(-1)
	for i := range x.Alts {
		if p := x.NormalizedAltP(i); p > bestP+Eps {
			best, bestP = i, p
		}
	}
	return best
}

// Validate checks the x-tuple against the given schema width.
func (x *XTuple) Validate(nattrs int) error {
	if x.ID == "" {
		return fmt.Errorf("pdb: x-tuple has empty ID")
	}
	if len(x.Alts) == 0 {
		return fmt.Errorf("pdb: x-tuple %s has no alternatives", x.ID)
	}
	total := 0.0
	for i, a := range x.Alts {
		if len(a.Values) != nattrs {
			return fmt.Errorf("pdb: x-tuple %s alternative %d has %d attributes, schema has %d", x.ID, i, len(a.Values), nattrs)
		}
		if !(a.P > 0 && a.P <= 1+Eps) || math.IsNaN(a.P) {
			return fmt.Errorf("pdb: x-tuple %s alternative %d has probability %v outside (0,1]", x.ID, i, a.P)
		}
		for j, d := range a.Values {
			if err := d.Validate(); err != nil {
				return fmt.Errorf("pdb: x-tuple %s alternative %d attribute %d: %w", x.ID, i, j, err)
			}
		}
		total += a.P
	}
	if total > 1+Eps {
		return fmt.Errorf("pdb: x-tuple %s alternative probabilities sum to %v > 1", x.ID, total)
	}
	return nil
}

// Clone deep-copies the x-tuple.
func (x *XTuple) Clone() *XTuple {
	alts := make([]Alt, len(x.Alts))
	for i, a := range x.Alts {
		alts[i] = Alt{Values: append([]Dist(nil), a.Values...), P: a.P}
	}
	return &XTuple{ID: x.ID, Alts: alts}
}

// String renders the x-tuple in the paper's notation, one alternative per
// line, with a trailing '?' for maybe x-tuples.
func (x *XTuple) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s{", x.ID)
	for i, a := range x.Alts {
		if i > 0 {
			b.WriteString("; ")
		}
		parts := make([]string, len(a.Values))
		for j, d := range a.Values {
			parts[j] = d.String()
		}
		fmt.Fprintf(&b, "(%s | %.4g)", strings.Join(parts, ", "), a.P)
	}
	b.WriteString("}")
	if x.Maybe() {
		b.WriteString(" ?")
	}
	return b.String()
}

// XRelation is a relation containing x-tuples.
type XRelation struct {
	Name   string
	Schema []string
	Tuples []*XTuple
}

// NewXRelation builds an empty x-relation with the given schema.
func NewXRelation(name string, schema ...string) *XRelation {
	return &XRelation{Name: name, Schema: schema}
}

// Append adds x-tuples and returns the relation for chaining.
func (r *XRelation) Append(ts ...*XTuple) *XRelation {
	r.Tuples = append(r.Tuples, ts...)
	return r
}

// AttrIndex returns the position of the named attribute, or -1.
func (r *XRelation) AttrIndex(name string) int {
	for i, a := range r.Schema {
		if a == name {
			return i
		}
	}
	return -1
}

// TupleByID returns the x-tuple with the given ID, or nil.
func (r *XRelation) TupleByID(id string) *XTuple {
	for _, t := range r.Tuples {
		if t.ID == id {
			return t
		}
	}
	return nil
}

// Validate checks schema consistency, ID uniqueness and per-x-tuple
// invariants.
func (r *XRelation) Validate() error {
	if len(r.Schema) == 0 {
		return fmt.Errorf("pdb: x-relation %s has empty schema", r.Name)
	}
	seen := make(map[string]bool, len(r.Tuples))
	for _, t := range r.Tuples {
		if err := t.Validate(len(r.Schema)); err != nil {
			return err
		}
		if seen[t.ID] {
			return fmt.Errorf("pdb: x-relation %s has duplicate x-tuple ID %s", r.Name, t.ID)
		}
		seen[t.ID] = true
	}
	return nil
}

// Clone deep-copies the x-relation.
func (r *XRelation) Clone() *XRelation {
	nr := &XRelation{Name: r.Name, Schema: append([]string(nil), r.Schema...)}
	nr.Tuples = make([]*XTuple, len(r.Tuples))
	for i, t := range r.Tuples {
		nr.Tuples[i] = t.Clone()
	}
	return nr
}

// Union returns a new x-relation containing the x-tuples of r followed by
// those of o (the paper's ℛ34 = ℛ3 ∪ ℛ4). Schemas must have equal width;
// the receiver's schema names win.
func (r *XRelation) Union(name string, o *XRelation) (*XRelation, error) {
	if len(r.Schema) != len(o.Schema) {
		return nil, fmt.Errorf("pdb: union of schemas with widths %d and %d", len(r.Schema), len(o.Schema))
	}
	u := &XRelation{Name: name, Schema: append([]string(nil), r.Schema...)}
	u.Tuples = append(u.Tuples, r.Tuples...)
	u.Tuples = append(u.Tuples, o.Tuples...)
	return u, nil
}

// String renders the x-relation as a small table.
func (r *XRelation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s(%s)\n", r.Name, strings.Join(r.Schema, ", "))
	for _, t := range r.Tuples {
		fmt.Fprintf(&b, "  %s\n", t)
	}
	return b.String()
}

// ToXRelation lifts a dependency-free Relation into the x-tuple model.
// Each tuple becomes an x-tuple with a single alternative carrying the
// tuple's attribute distributions and probability p(t). This embedding
// preserves the possible-world semantics for duplicate detection because
// per-alternative attribute values may themselves be uncertain.
func (r *Relation) ToXRelation() *XRelation {
	xr := &XRelation{Name: r.Name, Schema: append([]string(nil), r.Schema...)}
	xr.Tuples = make([]*XTuple, len(r.Tuples))
	for i, t := range r.Tuples {
		xr.Tuples[i] = &XTuple{
			ID:   t.ID,
			Alts: []Alt{{Values: append([]Dist(nil), t.Attrs...), P: t.P}},
		}
	}
	return xr
}

// ExpandAlternatives converts a dependency-free tuple into an x-tuple whose
// alternatives enumerate the cross product of the attribute distributions
// (each combination becomes one alternative with the product probability,
// scaled by p(t)). Useful for small tuples when an algorithm needs explicit
// alternatives; the number of alternatives is the product of the support
// sizes.
func (t *Tuple) ExpandAlternatives() *XTuple {
	combos := []Alt{{Values: nil, P: t.P}}
	for _, d := range t.Attrs {
		support := d.Support()
		next := make([]Alt, 0, len(combos)*len(support))
		for _, c := range combos {
			for _, a := range support {
				vals := make([]Dist, len(c.Values)+1)
				copy(vals, c.Values)
				if a.Value.IsNull() {
					vals[len(c.Values)] = CertainNull()
				} else {
					vals[len(c.Values)] = Certain(a.Value.S())
				}
				next = append(next, Alt{Values: vals, P: c.P * a.P})
			}
		}
		combos = next
	}
	return &XTuple{ID: t.ID, Alts: combos}
}
