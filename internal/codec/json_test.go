package codec

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"probdedup/internal/paperdata"
	"probdedup/internal/pdb"
)

func TestJSONRelationRoundTrip(t *testing.T) {
	for _, r := range []*pdb.Relation{paperdata.R1(), paperdata.R2()} {
		var buf bytes.Buffer
		if err := EncodeRelationJSON(&buf, r); err != nil {
			t.Fatal(err)
		}
		back, err := DecodeRelationJSON(&buf)
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		if back.String() != r.String() {
			t.Fatalf("round trip mismatch:\n%s\nvs\n%s", back, r)
		}
	}
}

func TestJSONXRelationRoundTrip(t *testing.T) {
	for _, r := range []*pdb.XRelation{paperdata.R3(), paperdata.R4(), paperdata.R34()} {
		var buf bytes.Buffer
		if err := EncodeXRelationJSON(&buf, r); err != nil {
			t.Fatal(err)
		}
		back, err := DecodeXRelationJSON(&buf)
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		if back.String() != r.String() {
			t.Fatalf("round trip mismatch:\n%s\nvs\n%s", back, r)
		}
	}
}

func TestJSONNullEncoding(t *testing.T) {
	// ⊥ mass appears as an entry with "v": null.
	r := pdb.NewRelation("R", "a").Append(
		pdb.NewTuple("t1", 1,
			pdb.MustDist(pdb.Alternative{Value: pdb.V("x"), P: 0.6})))
	var buf bytes.Buffer
	if err := EncodeRelationJSON(&buf, r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"v": null`) {
		t.Fatalf("⊥ not encoded:\n%s", buf.String())
	}
	back, err := DecodeRelationJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Tuples[0].Attrs[0].NullP(); got < 0.39 || got > 0.41 {
		t.Fatalf("⊥ mass lost: %v", got)
	}
}

func TestJSONLiteralWithOmittedP(t *testing.T) {
	src := `{
	  "name": "R",
	  "schema": ["a"],
	  "tuples": [{"id": "t1", "p": 1, "attrs": [[{"v": "x"}]]}]
	}`
	r, err := DecodeRelationJSON(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Tuples[0].Attrs[0].IsCertain() {
		t.Fatalf("omitted p must mean certainty: %v", r.Tuples[0].Attrs[0])
	}
}

func TestJSONDecodeErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"syntax", `{`},
		{"bad prob sum", `{"name":"R","schema":["a"],"tuples":[{"id":"t1","p":1,"attrs":[[{"v":"x","p":0.9},{"v":"y","p":0.3}]]}]}`},
		{"zero tuple p", `{"name":"R","schema":["a"],"tuples":[{"id":"t1","p":0,"attrs":[[{"v":"x"}]]}]}`},
		{"arity", `{"name":"R","schema":["a","b"],"tuples":[{"id":"t1","p":1,"attrs":[[{"v":"x"}]]}]}`},
	}
	for _, c := range cases {
		if _, err := DecodeRelationJSON(strings.NewReader(c.src)); err == nil {
			t.Errorf("%s: want error", c.name)
		}
	}
	if _, err := DecodeXRelationJSON(strings.NewReader(`{"name":"R","schema":["a"],"xtuples":[{"id":"t","alts":[]}]}`)); err == nil {
		t.Error("x-tuple without alternatives must fail validation")
	}
}

func TestXTupleJSONRoundTrip(t *testing.T) {
	x := pdb.NewXTuple("t41",
		pdb.NewAltDists(0.6, pdb.Certain("John"), pdb.MustDist(
			pdb.Alternative{Value: pdb.V("pilot"), P: 0.7})),
		pdb.NewAlt(0.4, "Jon", "pilot"),
	)
	var buf bytes.Buffer
	if err := EncodeXTupleJSON(&buf, x); err != nil {
		t.Fatal(err)
	}
	line := buf.String()
	if strings.Count(line, "\n") != 1 || !strings.HasSuffix(line, "\n") {
		t.Fatalf("not a single NDJSON line: %q", line)
	}
	back, err := DecodeXTupleJSON([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	if back.ID != x.ID || len(back.Alts) != len(x.Alts) {
		t.Fatalf("roundtrip mismatch: %v vs %v", back, x)
	}
	if err := back.Validate(2); err != nil {
		t.Fatal(err)
	}
	if got, want := back.Alts[0].P, 0.6; got != want {
		t.Fatalf("alt[0].P = %v, want %v", got, want)
	}
}

func TestXTupleJSONLiftsTupleForm(t *testing.T) {
	x, err := DecodeXTupleJSON([]byte(`{"id":"a","p":0.8,"attrs":[[{"v":"Tim","p":0.9}],[{"v":"pilot"}]]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(x.Alts) != 1 || x.Alts[0].P != 0.8 {
		t.Fatalf("lift mismatch: %+v", x)
	}
	if err := x.Validate(2); err != nil {
		t.Fatal(err)
	}
	// Omitted p means a certainly-present tuple.
	x2, err := DecodeXTupleJSON([]byte(`{"id":"b","attrs":[[{"v":"Tim"}],[{"v":"pilot"}]]}`))
	if err != nil {
		t.Fatal(err)
	}
	if x2.P() != 1 {
		t.Fatalf("P = %v, want 1", x2.P())
	}
	if _, err := DecodeXTupleJSON([]byte("{broken")); err == nil {
		t.Fatal("want an error for malformed JSON")
	}
	// Mixing the x-tuple form with top-level p/attrs is ambiguous and
	// must error instead of silently dropping the membership.
	for _, mixed := range []string{
		`{"id":"m","p":0.5,"alts":[{"p":1,"values":[[{"v":"Tim"}]]}]}`,
		`{"id":"m","attrs":[[{"v":"Tim"}]],"alts":[{"p":1,"values":[[{"v":"Tim"}]]}]}`,
	} {
		if _, err := DecodeXTupleJSON([]byte(mixed)); err == nil {
			t.Fatalf("want an error for mixed form %s", mixed)
		}
	}
}

// TestIngestItemDecodesOnce pins the ingest item: one json.Unmarshal
// yields the same tuple DecodeXTupleJSON builds, a removal yields no
// tuple, and the two shapes that are neither are refused — a non-string
// "remove" by the decode itself, a removal carrying tuple fields by
// XTuple.
func TestIngestItemDecodesOnce(t *testing.T) {
	decode := func(src string) (*IngestItem, error) {
		var it IngestItem
		return &it, json.Unmarshal([]byte(src), &it)
	}
	for _, src := range []string{
		`{"id":"a","p":0.8,"attrs":[[{"v":"Tim","p":0.9}],[{"v":"pilot"}]]}`,
		`{"id":"x","alts":[{"p":0.6,"values":[[{"v":"Tim"}],[{"v":"pilot"}]]},{"p":0.4,"values":[[{"v":"Tom"}],[{}]]}]}`,
	} {
		it, err := decode(src)
		if err != nil {
			t.Fatal(err)
		}
		got, err := it.XTuple()
		if err != nil {
			t.Fatal(err)
		}
		want, err := DecodeXTupleJSON([]byte(src))
		if err != nil {
			t.Fatal(err)
		}
		if got == nil || got.String() != want.String() {
			t.Fatalf("IngestItem built %+v, DecodeXTupleJSON %+v", got, want)
		}
	}

	it, err := decode(`{"remove":"a"}`)
	if err != nil {
		t.Fatal(err)
	}
	if x, err := it.XTuple(); err != nil || x != nil || *it.Remove != "a" {
		t.Fatalf("removal: tuple %v, err %v, remove %v", x, err, it.Remove)
	}

	if _, err := decode(`{"remove":5}`); err == nil || !strings.Contains(err.Error(), "remove") {
		t.Fatalf("non-string remove: err = %v, want a decode error naming the field", err)
	}
	for _, mixed := range []string{
		`{"remove":"a","id":"b"}`,
		`{"remove":"a","p":0.5}`,
		`{"remove":"a","attrs":[[{"v":"Tim"}]]}`,
		`{"remove":"a","alts":[{"p":1,"values":[[{"v":"Tim"}]]}]}`,
	} {
		it, err := decode(mixed)
		if err != nil {
			t.Fatal(err)
		}
		if x, err := it.XTuple(); err == nil || x != nil {
			t.Fatalf("%s: tuple %v, err %v, want a refusal", mixed, x, err)
		}
	}
}
