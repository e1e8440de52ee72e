package worlds

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"probdedup/internal/paperdata"
	"probdedup/internal/pdb"
)

func almost(a, b float64) bool { return math.Abs(a-b) <= 1e-9 }

// pairT32T42 builds the x-relation {t32, t42} of Fig. 7.
func pairT32T42() *pdb.XRelation {
	t32 := paperdata.R3().TupleByID("t32")
	t42 := paperdata.R4().TupleByID("t42")
	return PairRelation([]string{"name", "job"}, t32, t42)
}

func TestFig7WorldProbabilities(t *testing.T) {
	ws, err := Enumerate(pairT32T42(), false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 8 {
		t.Fatalf("Fig. 7 has 8 possible worlds, got %d", len(ws))
	}
	// Collect probabilities keyed by (t32 choice, t42 choice).
	byKey := map[string]float64{}
	for _, w := range ws {
		byKey[w.Key()] = w.P
	}
	total := 0.0
	for _, p := range byKey {
		total += p
	}
	if !almost(total, 1) {
		t.Fatalf("world probabilities must sum to 1, got %v", total)
	}
	// The paper's eight worlds: I1..I8 with probabilities
	// .24 .16 .32 .08 .06 .04 .08 .02.
	wantProbs := []float64{0.24, 0.16, 0.32, 0.08, 0.06, 0.04, 0.08, 0.02}
	got := make([]float64, 0, len(ws))
	for _, w := range ws {
		got = append(got, w.P)
	}
	sort.Float64s(got)
	sort.Float64s(wantProbs)
	for i := range wantProbs {
		if !almost(got[i], wantProbs[i]) {
			t.Fatalf("sorted world probabilities %v, want %v", got, wantProbs)
		}
	}
}

func TestFig7Conditioning(t *testing.T) {
	xr := pairT32T42()
	if pb := MembershipProbability(xr); !almost(pb, 0.72) {
		t.Fatalf("P(B) = %v, want 0.72", pb)
	}
	ws, err := Enumerate(xr, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 3 {
		t.Fatalf("conditioning keeps I1,I2,I3 only; got %d worlds", len(ws))
	}
	total := 0.0
	probs := map[string]float64{}
	for _, w := range ws {
		total += w.P
		// Identify worlds by t32's name value.
		name := w.Choices[0].Values[0].S()
		job := w.Choices[0].Values[1].S()
		probs[name+"/"+job] = w.P
	}
	if !almost(total, 1) {
		t.Fatalf("conditioned worlds must renormalize to 1, got %v", total)
	}
	// P(I1|B)=0.24/0.72=1/3, P(I2|B)=0.16/0.72=2/9, P(I3|B)=0.32/0.72=4/9.
	if !almost(probs["Tim/mechanic"], 1.0/3) {
		t.Errorf("P(I1|B) = %v, want 1/3", probs["Tim/mechanic"])
	}
	if !almost(probs["Jim/mechanic"], 2.0/9) {
		t.Errorf("P(I2|B) = %v, want 2/9", probs["Jim/mechanic"])
	}
	if !almost(probs["Jim/baker"], 4.0/9) {
		t.Errorf("P(I3|B) = %v, want 4/9", probs["Jim/baker"])
	}
}

func TestChoicesExpandUncertainAttributes(t *testing.T) {
	// t31's second alternative has the uniform mu* job distribution, so it
	// expands into one choice per concrete job.
	t31 := paperdata.R3().TupleByID("t31")
	cs := Choices(t31, false)
	// alt0: (John,pilot) ×1; alt1: (Johan,musician),(Johan,muralist); no
	// absence (p(t31)=1).
	if len(cs) != 3 {
		t.Fatalf("choices = %d, want 3", len(cs))
	}
	total := 0.0
	for _, c := range cs {
		total += c.P
	}
	if !almost(total, 1) {
		t.Fatalf("choice probabilities sum to %v", total)
	}
}

func TestChoicesAbsence(t *testing.T) {
	t42 := paperdata.R4().TupleByID("t42")
	cs := Choices(t42, false)
	if len(cs) != 2 {
		t.Fatalf("t42 has 1 alternative + absence, got %d", len(cs))
	}
	absent := cs[len(cs)-1]
	if absent.Alt != -1 || !almost(absent.P, 0.2) {
		t.Fatalf("absence choice wrong: %+v", absent)
	}
	// Conditioned: absence gone, renormalized by 0.8.
	cond := Choices(t42, true)
	if len(cond) != 1 || !almost(cond[0].P, 1) {
		t.Fatalf("conditioned choices wrong: %+v", cond)
	}
}

func TestCountAndEnumerateLimit(t *testing.T) {
	xr := paperdata.R34()
	n := Count(xr, false)
	// t31: 3 choices (no absence), t32: 4 (3 alts + absence), t41: 2,
	// t42: 2, t43: 3 (2 alts + absence) → 3*4*2*2*3 = 144.
	if !almost(n, 144) {
		t.Fatalf("Count = %v, want 144", n)
	}
	if _, err := Enumerate(xr, false, 10); err == nil {
		t.Fatal("want ErrTooManyWorlds")
	}
	ws, err := Enumerate(xr, false, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 144 {
		t.Fatalf("enumerated %d worlds", len(ws))
	}
	total := 0.0
	for _, w := range ws {
		total += w.P
	}
	if !almost(total, 1) {
		t.Fatalf("probabilities sum to %v", total)
	}
}

func TestMostProbable(t *testing.T) {
	xr := paperdata.R34()
	w := MostProbable(xr, true)
	// Per-tuple argmax under conditioning: t31→(John,pilot), t32→(Jim,baker),
	// t41→(John,pilot), t42→(Tom,mechanic), t43→(Sean,pilot).
	want := map[string][2]string{
		"t31": {"John", "pilot"},
		"t32": {"Jim", "baker"},
		"t41": {"John", "pilot"},
		"t42": {"Tom", "mechanic"},
		"t43": {"Sean", "pilot"},
	}
	for i, id := range w.IDs {
		c := w.Choices[i]
		if c.Values[0].S() != want[id][0] || c.Values[1].S() != want[id][1] {
			t.Errorf("%s: got (%v,%v), want %v", id, c.Values[0], c.Values[1], want[id])
		}
	}
	// Verify against enumeration.
	ws, _ := Enumerate(xr, true, 0)
	best := ws[0]
	for _, cand := range ws {
		if cand.P > best.P {
			best = cand
		}
	}
	if !almost(best.P, w.P) {
		t.Fatalf("MostProbable.P = %v, enumeration max = %v", w.P, best.P)
	}
}

func TestTopKAgainstEnumeration(t *testing.T) {
	xr := paperdata.R34()
	ws, _ := Enumerate(xr, false, 0)
	sort.SliceStable(ws, func(i, j int) bool { return ws[i].P > ws[j].P })
	for _, k := range []int{1, 5, 20, 144, 200} {
		top := TopK(xr, false, k)
		wantLen := k
		if wantLen > len(ws) {
			wantLen = len(ws)
		}
		if len(top) != wantLen {
			t.Fatalf("TopK(%d) returned %d worlds", k, len(top))
		}
		for i, w := range top {
			if !almost(w.P, ws[i].P) {
				t.Fatalf("TopK(%d)[%d].P = %v, want %v", k, i, w.P, ws[i].P)
			}
		}
		// Monotone non-increasing.
		for i := 1; i < len(top); i++ {
			if top[i].P > top[i-1].P+1e-9 {
				t.Fatalf("TopK not sorted at %d", i)
			}
		}
	}
}

func TestDissimilar(t *testing.T) {
	xr := paperdata.R34()
	sel := Dissimilar(xr, true, 3, 20)
	if len(sel) != 3 {
		t.Fatalf("selected %d worlds", len(sel))
	}
	// First selected world is the most probable one.
	mp := MostProbable(xr, true)
	if sel[0].Key() != mp.Key() {
		t.Fatal("first dissimilar world must be the most probable world")
	}
	// All selected worlds pairwise distinct with positive distance.
	for i := 0; i < len(sel); i++ {
		for j := i + 1; j < len(sel); j++ {
			if Distance(sel[i], sel[j]) <= 0 {
				t.Fatalf("worlds %d and %d identical", i, j)
			}
		}
	}
	// Dissimilar selection should beat plain TopK on minimum pairwise
	// distance (the redundancy argument of Sec. V-A.1).
	top := TopK(xr, true, 3)
	if minPairDist(sel) < minPairDist(top) {
		t.Fatalf("dissimilar selection (%v) must not be more redundant than top-k (%v)",
			minPairDist(sel), minPairDist(top))
	}
}

func minPairDist(ws []World) float64 {
	m := math.Inf(1)
	for i := 0; i < len(ws); i++ {
		for j := i + 1; j < len(ws); j++ {
			if d := Distance(ws[i], ws[j]); d < m {
				m = d
			}
		}
	}
	return m
}

func TestSampleDistribution(t *testing.T) {
	xr := pairT32T42()
	rng := rand.New(rand.NewSource(1))
	counts := map[string]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		w := Sample(xr, false, rng)
		counts[w.Key()]++
	}
	ws, _ := Enumerate(xr, false, 0)
	for _, w := range ws {
		got := float64(counts[w.Key()]) / n
		if math.Abs(got-w.P) > 0.02 {
			t.Errorf("world %s: sampled %v, want %v", w.Key(), got, w.P)
		}
	}
}

func TestMaterialize(t *testing.T) {
	xr := paperdata.R34()
	w := MostProbable(xr, false)
	r := Materialize(xr, w)
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	// All five x-tuples present in the most probable unconditioned world?
	// t32 most probable choice: present (Jim,baker P .4 > absent .1);
	// t42 present (.8 > .2); t43 present (Sean,pilot .6).
	if len(r.Tuples) != 5 {
		t.Fatalf("materialized %d tuples", len(r.Tuples))
	}
	for _, tu := range r.Tuples {
		if tu.P != 1 {
			t.Fatalf("materialized tuples are certain, got p=%v", tu.P)
		}
		for _, d := range tu.Attrs {
			if !d.IsCertain() {
				t.Fatalf("materialized values are certain, got %v", d)
			}
		}
	}
}

func TestMaterializePreservesNull(t *testing.T) {
	t43 := paperdata.R4().TupleByID("t43")
	xr := pdb.NewXRelation("x", "name", "job").Append(t43)
	var found bool
	ForEach(xr, false, func(w World) bool {
		if w.Choices[0].Alt == 0 { // (John, ⊥)
			r := Materialize(xr, w)
			if !r.Tuples[0].Attrs[1].IsCertain() || r.Tuples[0].Attrs[1].NullP() != 1 {
				t.Errorf("⊥ must materialize as certain ⊥, got %v", r.Tuples[0].Attrs[1])
			}
			found = true
		}
		return true
	})
	if !found {
		t.Fatal("world with (John,⊥) not enumerated")
	}
}

func TestFromRelation(t *testing.T) {
	xr := FromRelation(paperdata.R1())
	if err := xr.Validate(); err != nil {
		t.Fatal(err)
	}
	ws, err := Enumerate(xr, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, w := range ws {
		total += w.P
	}
	if !almost(total, 1) {
		t.Fatalf("R1 worlds sum to %v", total)
	}
	// t13 has p=0.6 and 2 names → with absence: t11 3, t12 4, t13 3 choices.
	if !almost(Count(xr, false), 3*4*3) {
		t.Fatalf("Count = %v", Count(xr, false))
	}
}

func TestQuickWorldProbabilitiesSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	gen := func() *pdb.XRelation {
		xr := pdb.NewXRelation("q", "a", "b")
		n := 1 + rng.Intn(3)
		for i := 0; i < n; i++ {
			nAlts := 1 + rng.Intn(3)
			alts := make([]pdb.Alt, 0, nAlts)
			remaining := 1.0
			for j := 0; j < nAlts; j++ {
				p := rng.Float64() * remaining
				if p <= 1e-6 {
					continue
				}
				remaining -= p
				alts = append(alts, pdb.NewAlt(p, word(rng), word(rng)))
			}
			if len(alts) == 0 {
				alts = append(alts, pdb.NewAlt(1, word(rng), word(rng)))
			}
			xr.Append(pdb.NewXTuple(fid(i), alts...))
		}
		return xr
	}
	prop := func() bool {
		xr := gen()
		if xr.Validate() != nil {
			return false
		}
		for _, cond := range []bool{false, true} {
			total := 0.0
			ForEach(xr, cond, func(w World) bool {
				total += w.P
				return true
			})
			if !almost(total, 1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func word(r *rand.Rand) string {
	b := make([]byte, 1+r.Intn(4))
	for i := range b {
		b[i] = byte('a' + r.Intn(5))
	}
	return string(b)
}

func fid(i int) string { return string(rune('a'+i)) + "x" }

// TestConditioningTinyMembership: conditioning divides p(t) out however
// small it is, so an x-tuple with p(t) = 1e-12 still spans the
// conditioned space, and a world that drops it materializes without it.
func TestConditioningTinyMembership(t *testing.T) {
	x := pdb.NewXTuple("x", pdb.NewAlt(0.25e-12, "Tim", "baker"), pdb.NewAlt(0.75e-12, "Tom", "baker"))
	cs := Choices(x, true)
	if len(cs) != 2 || !almost(cs[0].P, 0.25) || !almost(cs[1].P, 0.75) {
		t.Fatalf("conditioned choices %+v, want 0.25 and 0.75", cs)
	}
	xr := PairRelation([]string{"name", "job"}, x, paperdata.R4().TupleByID("t42"))
	ws, err := Enumerate(xr, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	absent := 0
	for _, w := range ws {
		if !w.Contains(0) {
			absent++
			want := 0
			if w.Contains(1) {
				want = 1
			}
			if r := Materialize(xr, w); len(r.Tuples) != want {
				t.Fatalf("world %s materializes %d tuples, want %d", w.Key(), len(r.Tuples), want)
			}
		}
	}
	if absent == 0 {
		t.Fatal("no world drops the maybe x-tuple")
	}
}

// TestDegenerateInputs: no alternatives, an empty relation, k ≤ 0 and
// worlds of different relations give empty results or distance 1.
func TestDegenerateInputs(t *testing.T) {
	none := &pdb.XTuple{ID: "none"}
	if cs := Choices(none, true); cs != nil {
		t.Fatalf("choices of an x-tuple without alternatives: %+v", cs)
	}
	xr := PairRelation([]string{"name", "job"}, paperdata.R4().TupleByID("t42"), none)
	if ws, err := Enumerate(xr, true, 0); err != nil || len(ws) != 0 {
		t.Fatalf("Enumerate = %v, %v; want no worlds", ws, err)
	}
	ForEach(xr, true, func(World) bool {
		t.Fatal("ForEach yielded a world")
		return false
	})
	empty := pdb.NewXRelation("empty", "name", "job")
	for _, ws := range [][]World{TopK(xr, true, 3), TopK(empty, true, 3), TopK(pairT32T42(), true, 0),
		Dissimilar(xr, true, 2, 4), Dissimilar(empty, true, 2, 4), Dissimilar(pairT32T42(), true, 0, 4)} {
		if ws != nil {
			t.Fatalf("got worlds %+v, want none", ws)
		}
	}
	a := MostProbable(pairT32T42(), true)
	if d := Distance(a, World{}); d != 1 {
		t.Fatalf("distance to a world of another relation = %v, want 1", d)
	}
	if d := Distance(World{}, World{}); d != 0 {
		t.Fatalf("distance of empty worlds = %v, want 0", d)
	}
	b := a
	b.Choices = append([]Choice(nil), a.Choices...)
	b.Choices[0].Values = b.Choices[0].Values[:1]
	if d := Distance(a, b); d != 0.5 {
		t.Fatalf("distance with one truncated choice = %v, want 0.5", d)
	}
}
