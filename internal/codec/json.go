package codec

import (
	"encoding/json"
	"fmt"
	"io"

	"probdedup/internal/pdb"
)

// JSON wire format. Attribute cells are arrays of {v, p} objects; a missing
// "v" (null entry) carries explicit ⊥ probability mass; certain values may
// be written as a single-element array with p omitted (meaning 1).

type jsonAlt struct {
	V *string  `json:"v"` // nil = ⊥
	P *float64 `json:"p,omitempty"`
}

type jsonDist []jsonAlt

type jsonTuple struct {
	ID    string     `json:"id"`
	P     float64    `json:"p"`
	Attrs []jsonDist `json:"attrs"`
}

type jsonRelation struct {
	Name   string      `json:"name"`
	Schema []string    `json:"schema"`
	Tuples []jsonTuple `json:"tuples"`
}

type jsonXAlt struct {
	P      float64    `json:"p"`
	Values []jsonDist `json:"values"`
}

type jsonXTuple struct {
	ID   string     `json:"id"`
	Alts []jsonXAlt `json:"alts"`
}

type jsonXRelation struct {
	Name   string       `json:"name"`
	Schema []string     `json:"schema"`
	Tuples []jsonXTuple `json:"xtuples"`
}

func distToJSON(d pdb.Dist) jsonDist {
	out := make(jsonDist, 0, d.Len()+1)
	for _, a := range d.Alternatives() {
		v := a.Value.S()
		p := a.P
		out = append(out, jsonAlt{V: &v, P: &p})
	}
	if np := d.NullP(); np > pdb.Eps {
		p := np
		out = append(out, jsonAlt{V: nil, P: &p})
	}
	return out
}

func distFromJSON(jd jsonDist) (pdb.Dist, error) {
	alts := make([]pdb.Alternative, 0, len(jd))
	for _, ja := range jd {
		p := 1.0
		if ja.P != nil {
			p = *ja.P
		}
		v := pdb.Null
		if ja.V != nil {
			v = pdb.V(*ja.V)
		}
		alts = append(alts, pdb.Alternative{Value: v, P: p})
	}
	return pdb.NewDist(alts...)
}

// EncodeRelationJSON writes a dependency-free relation as JSON.
func EncodeRelationJSON(w io.Writer, r *pdb.Relation) error {
	jr := jsonRelation{Name: r.Name, Schema: r.Schema}
	for _, t := range r.Tuples {
		jt := jsonTuple{ID: t.ID, P: t.P}
		for _, d := range t.Attrs {
			jt.Attrs = append(jt.Attrs, distToJSON(d))
		}
		jr.Tuples = append(jr.Tuples, jt)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jr)
}

// DecodeRelationJSON reads a dependency-free relation from JSON.
func DecodeRelationJSON(r io.Reader) (*pdb.Relation, error) {
	var jr jsonRelation
	if err := json.NewDecoder(r).Decode(&jr); err != nil {
		return nil, fmt.Errorf("codec: %w", err)
	}
	rel := pdb.NewRelation(jr.Name, jr.Schema...)
	for _, jt := range jr.Tuples {
		attrs := make([]pdb.Dist, 0, len(jt.Attrs))
		for i, jd := range jt.Attrs {
			d, err := distFromJSON(jd)
			if err != nil {
				return nil, fmt.Errorf("codec: tuple %s attribute %d: %w", jt.ID, i, err)
			}
			attrs = append(attrs, d)
		}
		rel.Append(pdb.NewTuple(jt.ID, jt.P, attrs...))
	}
	if err := rel.Validate(); err != nil {
		return nil, err
	}
	return rel, nil
}

// EncodeXRelationJSON writes an x-relation as JSON.
func EncodeXRelationJSON(w io.Writer, r *pdb.XRelation) error {
	jr := jsonXRelation{Name: r.Name, Schema: r.Schema}
	for _, x := range r.Tuples {
		jx := jsonXTuple{ID: x.ID}
		for _, alt := range x.Alts {
			ja := jsonXAlt{P: alt.P}
			for _, d := range alt.Values {
				ja.Values = append(ja.Values, distToJSON(d))
			}
			jx.Alts = append(jx.Alts, ja)
		}
		jr.Tuples = append(jr.Tuples, jx)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jr)
}

// DecodeXRelationJSON reads an x-relation from JSON.
func DecodeXRelationJSON(r io.Reader) (*pdb.XRelation, error) {
	var jr jsonXRelation
	if err := json.NewDecoder(r).Decode(&jr); err != nil {
		return nil, fmt.Errorf("codec: %w", err)
	}
	rel := pdb.NewXRelation(jr.Name, jr.Schema...)
	for _, jx := range jr.Tuples {
		x, err := jx.xtuple()
		if err != nil {
			return nil, err
		}
		rel.Append(x)
	}
	if err := rel.Validate(); err != nil {
		return nil, err
	}
	return rel, nil
}

// jsonAnyTuple is the NDJSON line format of one tuple: either the
// x-tuple form ("alts") or the dependency-free form ("attrs" with an
// optional membership probability "p", lifted to a one-alternative
// x-tuple).
type jsonAnyTuple struct {
	ID    string     `json:"id"`
	P     *float64   `json:"p,omitempty"`
	Alts  []jsonXAlt `json:"alts,omitempty"`
	Attrs []jsonDist `json:"attrs,omitempty"`
}

// EncodeXTupleJSON writes one x-tuple as a single JSON line (the
// NDJSON unit consumed by pdedup -follow).
func EncodeXTupleJSON(w io.Writer, x *pdb.XTuple) error {
	jx := jsonXTuple{ID: x.ID}
	for _, alt := range x.Alts {
		ja := jsonXAlt{P: alt.P}
		for _, d := range alt.Values {
			ja.Values = append(ja.Values, distToJSON(d))
		}
		jx.Alts = append(jx.Alts, ja)
	}
	data, err := json.Marshal(jx)
	if err != nil {
		return fmt.Errorf("codec: %w", err)
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// DecodeXTupleJSON reads one tuple from a JSON document (typically
// one NDJSON line): the x-tuple form {"id","alts":[{"p","values"}]}
// is taken as is; the dependency-free form {"id","p","attrs"} is
// lifted losslessly to a one-alternative x-tuple whose attribute
// values stay uncertain. The tuple is not validated against a schema
// — the consumer knows the arity (pdb.XTuple.Validate).
func DecodeXTupleJSON(data []byte) (*pdb.XTuple, error) {
	var jt jsonAnyTuple
	if err := json.Unmarshal(data, &jt); err != nil {
		return nil, fmt.Errorf("codec: %w", err)
	}
	return jt.xtuple()
}

// IngestItem is one value of pdedupd's NDJSON ingest stream, decoded
// in one pass: a tuple in either form DecodeXTupleJSON accepts, or a
// removal {"remove": ID}. A "remove" that is not a JSON string fails
// the decode itself.
type IngestItem struct {
	jsonAnyTuple
	// Remove is the ID of the resident to drop; nil for a tuple.
	Remove *string `json:"remove"`
}

// XTuple returns the item's tuple, or nil when the item is a removal
// of *Remove. A removal that also carries tuple fields is ambiguous and
// refused rather than half applied.
func (it *IngestItem) XTuple() (*pdb.XTuple, error) {
	if it.Remove == nil {
		return it.xtuple()
	}
	if it.ID != "" || it.P != nil || it.Alts != nil || it.Attrs != nil {
		return nil, fmt.Errorf("codec: removal of %s mixed with tuple fields (id/p/alts/attrs)", *it.Remove)
	}
	return nil, nil
}

// xtuple builds the x-tuple of a decoded x-tuple value.
func (jx *jsonXTuple) xtuple() (*pdb.XTuple, error) {
	x := &pdb.XTuple{ID: jx.ID}
	for ai, ja := range jx.Alts {
		values := make([]pdb.Dist, 0, len(ja.Values))
		for i, jd := range ja.Values {
			d, err := distFromJSON(jd)
			if err != nil {
				return nil, fmt.Errorf("codec: x-tuple %s alt %d attribute %d: %w", jx.ID, ai, i, err)
			}
			values = append(values, d)
		}
		x.Alts = append(x.Alts, pdb.Alt{Values: values, P: ja.P})
	}
	return x, nil
}

// xtuple builds the x-tuple of a decoded NDJSON tuple value.
func (jt *jsonAnyTuple) xtuple() (*pdb.XTuple, error) {
	if len(jt.Alts) > 0 {
		// Membership lives on the alternatives in the x-tuple form; a
		// top-level "p" or "attrs" alongside "alts" is ambiguous and
		// must not be dropped silently.
		if jt.P != nil || len(jt.Attrs) > 0 {
			return nil, fmt.Errorf("codec: tuple %s mixes the x-tuple form (alts) with the dependency-free form (p/attrs)", jt.ID)
		}
		return (&jsonXTuple{ID: jt.ID, Alts: jt.Alts}).xtuple()
	}
	p := 1.0
	if jt.P != nil {
		p = *jt.P
	}
	values := make([]pdb.Dist, 0, len(jt.Attrs))
	for i, jd := range jt.Attrs {
		d, err := distFromJSON(jd)
		if err != nil {
			return nil, fmt.Errorf("codec: tuple %s attribute %d: %w", jt.ID, i, err)
		}
		values = append(values, d)
	}
	return &pdb.XTuple{ID: jt.ID, Alts: []pdb.Alt{{Values: values, P: p}}}, nil
}
