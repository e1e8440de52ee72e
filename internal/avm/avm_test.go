package avm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"probdedup/internal/paperdata"
	"probdedup/internal/pdb"
	"probdedup/internal/prepare"
	"probdedup/internal/strsim"
	"probdedup/internal/sym"
)

func almost(a, b float64) bool { return math.Abs(a-b) <= 1e-9 }

func TestPaperSectionIVAExample(t *testing.T) {
	// E01: the worked example of Sec. IV-A with normalized Hamming.
	r1, r2 := paperdata.R1(), paperdata.R2()
	t11 := r1.TupleByID("t11")
	t22 := r2.TupleByID("t22")

	// sim(t11.name, t22.name) = 0.7·sim(Tim,Tim) + 0.3·sim(Tim,Kim)
	//                         = 0.7 + 0.3·(2/3) = 0.9
	nameSim := Sim(strsim.NormalizedHamming, t11.Attrs[0], t22.Attrs[0])
	if !almost(nameSim, 0.9) {
		t.Errorf("sim(t11.name,t22.name) = %v, want 0.9", nameSim)
	}

	// sim(t11.job, t22.job) = 0.2·1 + 0.7·(5/9) + 0.1·0 = 53/90 ≈ 0.589
	// (the paper rounds to 0.59).
	jobSim := Sim(strsim.NormalizedHamming, t11.Attrs[1], t22.Attrs[1])
	if !almost(jobSim, 0.2+0.7*5.0/9) {
		t.Errorf("sim(t11.job,t22.job) = %v, want %v", jobSim, 0.2+0.7*5.0/9)
	}
}

func TestEqualitySim(t *testing.T) {
	// Eq. 4 on t11.name vs t22.name: P(both "Tim") = 1·0.7 = 0.7.
	r1, r2 := paperdata.R1(), paperdata.R2()
	got := EqualitySim(r1.TupleByID("t11").Attrs[0], r2.TupleByID("t22").Attrs[0])
	if !almost(got, 0.7) {
		t.Errorf("Eq.4 = %v, want 0.7", got)
	}
	// Identical certain values are fully equal.
	if !almost(EqualitySim(pdb.Certain("x"), pdb.Certain("x")), 1) {
		t.Error("equal certain values must give 1")
	}
	// Two certain ⊥: P(⊥,⊥)·sim(⊥,⊥) = 1.
	if !almost(EqualitySim(pdb.CertainNull(), pdb.CertainNull()), 1) {
		t.Error("sim(⊥,⊥) must be 1")
	}
	// ⊥ against an existing value is 0.
	if !almost(EqualitySim(pdb.CertainNull(), pdb.Certain("x")), 0) {
		t.Error("sim(⊥,a) must be 0")
	}
}

func TestNullSemanticsAblation(t *testing.T) {
	ns := NullSemantics{NullNull: 0, NullValue: 0}
	if got := ns.Sim(strsim.Exact, pdb.CertainNull(), pdb.CertainNull()); !almost(got, 0) {
		t.Errorf("ablated ⊥ semantics: got %v", got)
	}
	// Partial null mass contributes proportionally.
	d := pdb.MustDist(pdb.Alternative{Value: pdb.V("x"), P: 0.5}) // P(⊥)=0.5
	got := Sim(strsim.Exact, d, pdb.CertainNull())
	if !almost(got, 0.5) {
		t.Errorf("mixed null: %v, want 0.5 (from ⊥·⊥ mass)", got)
	}
}

func TestMatcherCompareTuples(t *testing.T) {
	m := NewMatcher(strsim.NormalizedHamming, strsim.NormalizedHamming)
	r1, r2 := paperdata.R1(), paperdata.R2()
	// The memo is keyed by symbol pair: intern both tuples into one table.
	tab := sym.NewTable(0)
	for _, tu := range []*pdb.Tuple{r1.TupleByID("t11"), r2.TupleByID("t22")} {
		for i := range tu.Attrs {
			tu.Attrs[i] = prepare.InternDist(tab, tu.Attrs[i])
		}
	}
	c := m.CompareTuples(r1.TupleByID("t11"), r2.TupleByID("t22"))
	if len(c) != 2 {
		t.Fatalf("vector length %d", len(c))
	}
	if !almost(c[0], 0.9) || !almost(c[1], 0.2+0.7*5.0/9) {
		t.Fatalf("c⃗ = %v", c)
	}
	// Memoization populated.
	sizes := m.CacheSize()
	if sizes[0] == 0 || sizes[1] == 0 {
		t.Fatalf("cache empty: %v", sizes)
	}
	// Repeat comparison gives identical results from cache.
	c2 := m.CompareTuples(r1.TupleByID("t11"), r2.TupleByID("t22"))
	if !almost(c[0], c2[0]) || !almost(c[1], c2[1]) {
		t.Fatal("cached comparison differs")
	}
}

func TestMatcherCompareXTuples(t *testing.T) {
	m := NewMatcher(strsim.NormalizedHamming, strsim.NormalizedHamming)
	r3, r4 := paperdata.R3(), paperdata.R4()
	t32, t42 := r3.TupleByID("t32"), r4.TupleByID("t42")
	if len(t32.Alts) != 3 || len(t42.Alts) != 1 {
		t.Fatalf("alternative counts %dx%d", len(t32.Alts), len(t42.Alts))
	}
	// Per the paper (given sim(Jim,Tom)=1/3, sim(baker,mechanic)=0):
	// c⃗ for (t132,t42) = [sim(Tim,Tom), sim(mechanic,mechanic)] = [2/3, 1]
	// c⃗ for (t232,t42) = [1/3, 1]
	// c⃗ for (t332,t42) = [1/3, 0]
	want := [][2]float64{{2.0 / 3, 1}, {1.0 / 3, 1}, {1.0 / 3, 0}}
	var got Vector
	for i, w := range want {
		got = m.CompareAltsInto(got, t32.Alts[i], t42.Alts[0])
		if !almost(got[0], w[0]) || !almost(got[1], w[1]) {
			t.Errorf("c⃗[%d][0] = %v, want %v", i, got, w)
		}
	}
}

func TestCompareAltsWithUncertainAttr(t *testing.T) {
	// t31's second alternative has the mu* uniform job distribution:
	// comparing against a certain "musician" yields 0.5·1 + 0.5·sim(muralist,
	// musician).
	m := NewMatcher(strsim.Exact, strsim.Exact)
	t31 := paperdata.R3().TupleByID("t31")
	other := pdb.NewAlt(1, "Johan", "musician")
	c := m.CompareAltsInto(nil, t31.Alts[1], other)
	if !almost(c[0], 1) || !almost(c[1], 0.5) {
		t.Fatalf("c⃗ = %v, want [1, 0.5]", c)
	}
}

func TestTupleMembershipIgnored(t *testing.T) {
	// Two tuples identical except for p(t) must produce identical vectors
	// (Sec. IV: "not tuple membership but only uncertainty on attribute
	// value level should influence the duplicate detection process").
	m := NewMatcher(strsim.Exact)
	a := pdb.NewTuple("a", 1.0, pdb.Certain("x"))
	b := pdb.NewTuple("b", 0.1, pdb.Certain("x"))
	ref := pdb.NewTuple("r", 0.5, pdb.Certain("x"))
	ca := m.CompareTuples(a, ref)
	cb := m.CompareTuples(b, ref)
	if !almost(ca[0], cb[0]) {
		t.Fatalf("membership leaked into matching: %v vs %v", ca, cb)
	}
}

func randDist(r *rand.Rand) pdb.Dist {
	n := r.Intn(4)
	alts := make([]pdb.Alternative, 0, n)
	rem := 1.0
	for i := 0; i < n; i++ {
		p := r.Float64() * rem
		if p <= 1e-6 {
			continue
		}
		rem -= p
		b := make([]byte, 1+r.Intn(5))
		for j := range b {
			b[j] = byte('a' + r.Intn(4))
		}
		alts = append(alts, pdb.Alternative{Value: pdb.V(string(b)), P: p})
	}
	return pdb.MustDist(alts...)
}

func TestQuickSimContracts(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	prop := func() bool {
		d1, d2 := randDist(r), randDist(r)
		s12 := Sim(strsim.NormalizedHamming, d1, d2)
		s21 := Sim(strsim.NormalizedHamming, d2, d1)
		if math.Abs(s12-s21) > 1e-9 {
			return false // symmetric
		}
		if s12 < -1e-9 || s12 > 1+1e-9 {
			return false // in [0,1] since inner sim is
		}
		// Self-similarity with Exact equals the collision probability
		// Σ p² + P(⊥)², which is ≤ 1 and =1 iff certain.
		self := Sim(strsim.Exact, d1, d1)
		want := d1.NullP() * d1.NullP()
		for _, a := range d1.Alternatives() {
			want += a.P * a.P
		}
		if math.Abs(self-want) > 1e-9 {
			return false
		}
		if d1.IsCertain() && math.Abs(self-1) > 1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMatcherMatchesUnmemoized(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	m := NewMatcher(strsim.Levenshtein)
	prop := func() bool {
		d1, d2 := randDist(r), randDist(r)
		return math.Abs(m.AttrSim(0, d1, d2)-Sim(strsim.Levenshtein, d1, d2)) <= 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
