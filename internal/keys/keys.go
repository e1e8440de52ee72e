package keys

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"probdedup/internal/pdb"
)

// Part is one component of a key definition: the first Prefix runes of
// attribute Attr (Prefix ≤ 0 takes the whole value).
type Part struct {
	Attr   int
	Prefix int
}

// Def is a key definition: the concatenation of its parts.
type Def struct {
	Parts []Part
}

// NewDef builds a key definition from (attr, prefix) pairs.
func NewDef(parts ...Part) Def { return Def{Parts: parts} }

// ParseDef parses a textual key definition like "name:3+job:2" against a
// schema. A missing ":n" takes the whole attribute value.
func ParseDef(src string, schema []string) (Def, error) {
	var def Def
	if strings.TrimSpace(src) == "" {
		return def, fmt.Errorf("keys: empty key definition")
	}
	for _, part := range strings.Split(src, "+") {
		name, prefStr, hasPrefix := strings.Cut(strings.TrimSpace(part), ":")
		attr := -1
		for i, s := range schema {
			if strings.EqualFold(s, name) {
				attr = i
				break
			}
		}
		if attr < 0 {
			return def, fmt.Errorf("keys: unknown attribute %q", name)
		}
		prefix := 0
		if hasPrefix {
			n, err := strconv.Atoi(prefStr)
			if err != nil || n <= 0 {
				return def, fmt.Errorf("keys: bad prefix %q in %q", prefStr, part)
			}
			prefix = n
		}
		def.Parts = append(def.Parts, Part{Attr: attr, Prefix: prefix})
	}
	return def, nil
}

// String renders the definition against a schema ("name:3+job:2").
func (d Def) String(schema []string) string {
	parts := make([]string, len(d.Parts))
	for i, p := range d.Parts {
		name := fmt.Sprintf("#%d", p.Attr)
		if p.Attr < len(schema) {
			name = schema[p.Attr]
		}
		if p.Prefix > 0 {
			parts[i] = fmt.Sprintf("%s:%d", name, p.Prefix)
		} else {
			parts[i] = name
		}
	}
	return strings.Join(parts, "+")
}

// runePrefix returns the first n runes of s by slicing (no []rune
// conversion: a rune prefix is always a byte prefix).
func runePrefix(s string, n int) string {
	if len(s) <= n {
		return s // ≤ n bytes implies ≤ n runes
	}
	seen := 0
	for i := range s {
		if seen == n {
			return s[:i]
		}
		seen++
	}
	return s
}

// FromValues builds the key string from concrete attribute values.
// ⊥ contributes the empty string.
func (d Def) FromValues(vals []pdb.Value) string {
	var b strings.Builder
	for _, p := range d.Parts {
		if p.Attr >= len(vals) || vals[p.Attr].IsNull() {
			continue
		}
		s := vals[p.Attr].S()
		if p.Prefix > 0 {
			s = runePrefix(s, p.Prefix)
		}
		b.WriteString(s)
	}
	return b.String()
}

// FromCertainTuple builds the key of a certain tuple (e.g. one materialized
// from a possible world): every attribute distribution must be certain; the
// most probable value is used otherwise, making the function total.
func (d Def) FromCertainTuple(t *pdb.Tuple) string {
	var b strings.Builder
	for _, p := range d.Parts {
		if p.Attr >= len(t.Attrs) {
			continue
		}
		v, _ := t.Attrs[p.Attr].Mode()
		if v.IsNull() {
			continue
		}
		s := v.S()
		if p.Prefix > 0 {
			s = runePrefix(s, p.Prefix)
		}
		b.WriteString(s)
	}
	return b.String()
}

// AltKeyDist returns the distribution of key values of a single alternative
// tuple, whose attribute values may themselves be uncertain (e.g. 'mu*').
// The returned distribution sums to 1 (the alternative's own probability is
// applied by the caller). Key values never fold into ⊥: a tuple whose every
// key attribute is ⊥ gets the empty-string key.
func (d Def) AltKeyDist(alt pdb.Alt) map[string]float64 {
	out := map[string]float64{"": 1}
	// Incrementally take the cross product over the parts' attribute
	// supports, appending prefixes.
	for _, p := range d.Parts {
		if p.Attr >= len(alt.Values) {
			continue
		}
		support := alt.Values[p.Attr].Support()
		next := make(map[string]float64, len(out)*len(support))
		for prefix, pp := range out {
			for _, s := range support {
				piece := ""
				if !s.Value.IsNull() {
					piece = s.Value.S()
					if p.Prefix > 0 {
						piece = runePrefix(piece, p.Prefix)
					}
				}
				next[prefix+piece] += pp * s.P
			}
		}
		out = next
	}
	return out
}

// XTupleKeyDist returns the probabilistic key value of an x-tuple as pairs
// of key string and probability, in descending probability order (ties by
// key string). With cond=true probabilities are conditioned on tuple
// membership (divide by p(t)) and sum to 1; otherwise they sum to p(t) as
// displayed in Fig. 13. Alternatives producing the same key value merge
// (Fig. 13's t41 has the certain key "Johpi" despite two alternatives).
func (d Def) XTupleKeyDist(x *pdb.XTuple, cond bool) []KeyProb {
	acc := map[string]float64{}
	for _, alt := range x.Alts {
		for k, p := range d.AltKeyDist(alt) {
			acc[k] += p * alt.P
		}
	}
	if cond {
		if pt := x.P(); pt > 0 {
			for k := range acc {
				acc[k] /= pt
			}
		}
	}
	out := make([]KeyProb, 0, len(acc))
	for k, p := range acc {
		out = append(out, KeyProb{Key: k, P: p})
	}
	sortKeyProbs(out)
	return out
}

// TupleKeyDist is XTupleKeyDist for a dependency-free tuple: the key
// distribution induced by the cross product of the attribute distributions.
func (d Def) TupleKeyDist(t *pdb.Tuple, cond bool) []KeyProb {
	return d.XTupleKeyDist(t.ExpandAlternatives(), cond)
}

// KeyProb is one possible key value of a tuple with its probability.
type KeyProb struct {
	Key string
	P   float64
}

func sortKeyProbs(ps []KeyProb) {
	// Descending probability, ties by key for determinism.
	sort.SliceStable(ps, func(i, j int) bool {
		if ps[i].P != ps[j].P {
			return ps[i].P > ps[j].P
		}
		return ps[i].Key < ps[j].Key
	})
}
