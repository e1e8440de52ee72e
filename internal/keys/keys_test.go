package keys

import (
	"math"
	"testing"

	"probdedup/internal/paperdata"
	"probdedup/internal/pdb"
)

func almost(a, b float64) bool { return math.Abs(a-b) <= 1e-9 }

// paperKey is the paper's sorting key: first three characters of name plus
// first two characters of job.
func paperKey() Def {
	return NewDef(Part{Attr: 0, Prefix: 3}, Part{Attr: 1, Prefix: 2})
}

func TestParseDef(t *testing.T) {
	schema := []string{"name", "job"}
	d, err := ParseDef("name:3+job:2", schema)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Parts) != 2 || d.Parts[0] != (Part{0, 3}) || d.Parts[1] != (Part{1, 2}) {
		t.Fatalf("parsed %+v", d)
	}
	if got := d.String(schema); got != "name:3+job:2" {
		t.Fatalf("String = %q", got)
	}
	// Whole-attribute part.
	d2, err := ParseDef("job", schema)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Parts[0] != (Part{1, 0}) {
		t.Fatalf("parsed %+v", d2)
	}
	for _, bad := range []string{"", "nope:3", "name:x", "name:0", "name:-1"} {
		if _, err := ParseDef(bad, schema); err == nil {
			t.Errorf("ParseDef(%q) must fail", bad)
		}
	}
}

func TestFromValues(t *testing.T) {
	d := paperKey()
	cases := []struct {
		name, job string
		nullJob   bool
		want      string
	}{
		{"John", "pilot", false, "Johpi"},
		{"Johan", "musician", false, "Johmu"},
		{"Tim", "mechanic", false, "Timme"},
		{"Jim", "baker", false, "Jimba"},
		{"John", "", true, "Joh"}, // Fig. 9/13: ⊥ job gives the short key
		{"Jo", "p", false, "Jop"}, // short values keep their full length
	}
	for _, c := range cases {
		job := pdb.V(c.job)
		if c.nullJob {
			job = pdb.Null
		}
		got := d.FromValues([]pdb.Value{pdb.V(c.name), job})
		if got != c.want {
			t.Errorf("key(%s,%s) = %q, want %q", c.name, c.job, got, c.want)
		}
	}
}

func TestFromCertainTuple(t *testing.T) {
	d := paperKey()
	tu := pdb.NewTuple("t", 1, pdb.Certain("John"), pdb.Certain("pilot"))
	if got := d.FromCertainTuple(tu); got != "Johpi" {
		t.Fatalf("key = %q", got)
	}
	// Falls back to the most probable value for uncertain tuples.
	tu2 := pdb.NewTuple("t", 1,
		pdb.MustDist(pdb.Alternative{Value: pdb.V("Tim"), P: 0.6}, pdb.Alternative{Value: pdb.V("Tom"), P: 0.4}),
		pdb.Certain("machinist"))
	if got := d.FromCertainTuple(tu2); got != "Timma" {
		t.Fatalf("key = %q", got)
	}
}

func TestFig13KeyDistributions(t *testing.T) {
	// E08 fixture: the uncertain key values of relation ℛ34 (Fig. 13),
	// unconditioned so probabilities display as in the figure.
	d := paperKey()
	r := paperdata.R34()
	want := map[string][]KeyProb{
		"t31": {{"Johpi", 0.7}, {"Johmu", 0.3}},
		"t32": {{"Jimba", 0.4}, {"Timme", 0.3}, {"Jimme", 0.2}},
		"t41": {{"Johpi", 1.0}},
		"t42": {{"Tomme", 0.8}},
		"t43": {{"Seapi", 0.6}, {"Joh", 0.2}},
	}
	for id, wantKeys := range want {
		got := d.XTupleKeyDist(r.TupleByID(id), false)
		if len(got) != len(wantKeys) {
			t.Errorf("%s: %v, want %v", id, got, wantKeys)
			continue
		}
		for i, w := range wantKeys {
			if got[i].Key != w.Key || !almost(got[i].P, w.P) {
				t.Errorf("%s[%d] = %+v, want %+v", id, i, got[i], w)
			}
		}
	}
}

func TestT41CertainKeyDespiteTwoAlternatives(t *testing.T) {
	// Fig. 13's highlighted observation: (John,pilot)→Johpi and
	// (Johan,pianist)→Johpi merge into one certain key value.
	d := paperKey()
	t41 := paperdata.R4().TupleByID("t41")
	ks := d.XTupleKeyDist(t41, false)
	if len(ks) != 1 || ks[0].Key != "Johpi" || !almost(ks[0].P, 1.0) {
		t.Fatalf("t41 key dist = %v", ks)
	}
}

func TestMuStarKeysMerge(t *testing.T) {
	// t31's mu* jobs (musician, muralist) share the prefix "mu", so the key
	// distribution merges them into Johmu with the full 0.3.
	d := paperKey()
	t31 := paperdata.R3().TupleByID("t31")
	ks := d.XTupleKeyDist(t31, false)
	if len(ks) != 2 {
		t.Fatalf("t31 keys = %v", ks)
	}
	if ks[1].Key != "Johmu" || !almost(ks[1].P, 0.3) {
		t.Fatalf("t31 keys = %v", ks)
	}
}

func TestConditionedKeyDist(t *testing.T) {
	// t42 has p=0.8; conditioning renormalizes to a certain key.
	d := paperKey()
	t42 := paperdata.R4().TupleByID("t42")
	ks := d.XTupleKeyDist(t42, true)
	if len(ks) != 1 || !almost(ks[0].P, 1.0) {
		t.Fatalf("conditioned key dist = %v", ks)
	}
	// However small p(t) is, it is divided out.
	tiny := t42.Clone()
	tiny.Alts[0].P = 1e-12
	if ks := d.XTupleKeyDist(tiny, true); len(ks) != 1 || !almost(ks[0].P, 1.0) {
		t.Fatalf("conditioned key dist at p(t)=1e-12 = %v", ks)
	}
	// Sum of conditioned probabilities is 1 for every x-tuple.
	for _, x := range paperdata.R34().Tuples {
		total := 0.0
		for _, kp := range d.XTupleKeyDist(x, true) {
			total += kp.P
		}
		if !almost(total, 1) {
			t.Errorf("%s: conditioned key mass %v", x.ID, total)
		}
	}
}

func TestTupleKeyDist(t *testing.T) {
	// Dependency-free t13 {Tim .6, Tom .4} × machinist, p=0.6:
	// unconditioned keys Timma .36, Tomma .24; conditioned .6/.4.
	d := paperKey()
	t13 := paperdata.R1().TupleByID("t13")
	got := d.TupleKeyDist(t13, false)
	if len(got) != 2 || got[0].Key != "Timma" || !almost(got[0].P, 0.36) ||
		got[1].Key != "Tomma" || !almost(got[1].P, 0.24) {
		t.Fatalf("unconditioned = %v", got)
	}
	cond := d.TupleKeyDist(t13, true)
	if !almost(cond[0].P, 0.6) || !almost(cond[1].P, 0.4) {
		t.Fatalf("conditioned = %v", cond)
	}
}

func TestAllNullKeyIsEmptyString(t *testing.T) {
	d := paperKey()
	x := pdb.NewXTuple("t", pdb.NewAltDists(1, pdb.CertainNull(), pdb.CertainNull()))
	ks := d.XTupleKeyDist(x, false)
	if len(ks) != 1 || ks[0].Key != "" || !almost(ks[0].P, 1) {
		t.Fatalf("all-⊥ key dist = %v", ks)
	}
}

func TestBlockingKeyFig14(t *testing.T) {
	// Fig. 14 uses first char of name + first char of job.
	d := NewDef(Part{Attr: 0, Prefix: 1}, Part{Attr: 1, Prefix: 1})
	r3 := paperdata.R3()
	t31 := r3.TupleByID("t31")
	ks := d.XTupleKeyDist(t31, false)
	// (John,pilot)→"Jp" .7, (Johan,mu*)→"Jm" .3.
	if len(ks) != 2 || ks[0].Key != "Jp" || !almost(ks[0].P, 0.7) || ks[1].Key != "Jm" {
		t.Fatalf("t31 blocking keys = %v", ks)
	}
	// t43 (John,⊥) yields the job-less block key "J".
	t43 := paperdata.R4().TupleByID("t43")
	ks = d.XTupleKeyDist(t43, false)
	found := false
	for _, kp := range ks {
		if kp.Key == "J" && almost(kp.P, 0.2) {
			found = true
		}
	}
	if !found {
		t.Fatalf("t43 blocking keys = %v, want J:0.2", ks)
	}
}
