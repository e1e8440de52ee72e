package probdedup_test

import (
	"bytes"
	"math"
	"testing"

	"probdedup"
)

func almost(a, b float64) bool { return math.Abs(a-b) <= 1e-9 }

// r1r2 rebuilds the paper's Fig. 4 relations through the public API only.
func r1r2() (*probdedup.Relation, *probdedup.Relation) {
	r1 := probdedup.NewRelation("R1", "name", "job").Append(
		probdedup.NewTuple("t11", 1.0,
			probdedup.Certain("Tim"),
			probdedup.MustDist(
				probdedup.Alternative{Value: probdedup.V("machinist"), P: 0.7},
				probdedup.Alternative{Value: probdedup.V("mechanic"), P: 0.2})),
		probdedup.NewTuple("t12", 1.0,
			probdedup.MustDist(
				probdedup.Alternative{Value: probdedup.V("John"), P: 0.5},
				probdedup.Alternative{Value: probdedup.V("Johan"), P: 0.5}),
			probdedup.MustDist(
				probdedup.Alternative{Value: probdedup.V("baker"), P: 0.7},
				probdedup.Alternative{Value: probdedup.V("confectioner"), P: 0.3})),
		probdedup.NewTuple("t13", 0.6,
			probdedup.MustDist(
				probdedup.Alternative{Value: probdedup.V("Tim"), P: 0.6},
				probdedup.Alternative{Value: probdedup.V("Tom"), P: 0.4}),
			probdedup.Certain("machinist")),
	)
	r2 := probdedup.NewRelation("R2", "name", "job").Append(
		probdedup.NewTuple("t21", 1.0,
			probdedup.MustDist(
				probdedup.Alternative{Value: probdedup.V("John"), P: 0.7},
				probdedup.Alternative{Value: probdedup.V("Jon"), P: 0.3}),
			probdedup.Certain("confectionist")),
		probdedup.NewTuple("t22", 0.8,
			probdedup.MustDist(
				probdedup.Alternative{Value: probdedup.V("Tim"), P: 0.7},
				probdedup.Alternative{Value: probdedup.V("Kim"), P: 0.3}),
			probdedup.Certain("mechanic")),
		probdedup.NewTuple("t23", 0.7,
			probdedup.Certain("Timothy"),
			probdedup.MustDist(
				probdedup.Alternative{Value: probdedup.V("mechanist"), P: 0.8},
				probdedup.Alternative{Value: probdedup.V("engineer"), P: 0.2})),
	)
	return r1, r2
}

func TestPublicAPIQuickstart(t *testing.T) {
	r1, r2 := r1r2()
	res, err := probdedup.DetectRelations(r1, r2, probdedup.Options{
		Compare: []probdedup.CompareFunc{probdedup.NormalizedHamming, probdedup.NormalizedHamming},
		AltModel: probdedup.SimpleModel{
			Phi: probdedup.WeightedSum(0.8, 0.2),
			T:   probdedup.Thresholds{Lambda: 0.4, Mu: 0.7},
		},
		Final: probdedup.Thresholds{Lambda: 0.4, Mu: 0.7},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Matches.Has("t11", "t22") {
		t.Fatal("paper example pair (t11,t22) must match")
	}
	m := res.ByPair[probdedup.NewPair("t11", "t22")]
	if !almost(m.Sim, 0.8*0.9+0.2*(53.0/90)) {
		t.Fatalf("sim = %v", m.Sim)
	}
}

func TestPublicAttrSim(t *testing.T) {
	a := probdedup.MustDist(
		probdedup.Alternative{Value: probdedup.V("Tim"), P: 0.7},
		probdedup.Alternative{Value: probdedup.V("Kim"), P: 0.3})
	if got := probdedup.AttrSim(probdedup.NormalizedHamming, probdedup.Certain("Tim"), a); !almost(got, 0.9) {
		t.Fatalf("AttrSim = %v", got)
	}
	if got := probdedup.EqualitySim(probdedup.Certain("Tim"), a); !almost(got, 0.7) {
		t.Fatalf("EqualitySim = %v", got)
	}
	if got := probdedup.AttrSim(probdedup.Exact, probdedup.CertainNull(), probdedup.CertainNull()); !almost(got, 1) {
		t.Fatalf("sim(⊥,⊥) = %v", got)
	}
}

func TestPublicWorldsAndKeys(t *testing.T) {
	x := probdedup.NewXRelation("X", "name", "job").Append(
		probdedup.NewXTuple("t1",
			probdedup.NewAlt(0.3, "Tim", "mechanic"),
			probdedup.NewAlt(0.2, "Jim", "mechanic"),
			probdedup.NewAlt(0.4, "Jim", "baker")),
		probdedup.NewXTuple("t2", probdedup.NewAlt(0.8, "Tom", "mechanic")),
	)
	ws, err := probdedup.EnumerateWorlds(x, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 8 {
		t.Fatalf("worlds = %d", len(ws))
	}
	mp := probdedup.MostProbableWorld(x, true)
	r := probdedup.MaterializeWorld(x, mp)
	if len(r.Tuples) != 2 {
		t.Fatalf("materialized %d tuples", len(r.Tuples))
	}
	top := probdedup.TopKWorlds(x, true, 2)
	if len(top) != 2 || top[0].P < top[1].P {
		t.Fatalf("top-k broken")
	}
	def, err := probdedup.ParseKeyDef("name:3+job:2", []string{"name", "job"})
	if err != nil {
		t.Fatal(err)
	}
	if got := def.FromCertainTuple(r.Tuples[0]); got == "" {
		t.Fatal("empty key")
	}
}

func TestPublicReductionMethods(t *testing.T) {
	d := probdedup.GenerateDataset(probdedup.DefaultDatasetConfig(80, 17))
	u := d.Union()
	def, _ := probdedup.ParseKeyDef("name:3+job:2", []string{"name", "job", "city"})
	methods := []probdedup.ReductionMethod{
		probdedup.CrossProduct{},
		probdedup.SNMCertain{Key: def, Window: 5},
		probdedup.SNMAlternatives{Key: def, Window: 5},
		probdedup.SNMRanked{Key: def, Window: 5},
		probdedup.BlockingCertain{Key: def},
		probdedup.BlockingAlternatives{Key: def},
		probdedup.BlockingCluster{Key: def, K: 8, Seed: 1},
	}
	full := len(probdedup.Candidates(methods[0], u))
	for _, m := range methods[1:] {
		c := probdedup.Candidates(m, u)
		if len(c) == 0 {
			t.Errorf("%s produced no candidates", m.Name())
		}
		if len(c) >= full {
			t.Errorf("%s did not reduce (%d ≥ %d)", m.Name(), len(c), full)
		}
	}
}

func TestPublicRulesAndFS(t *testing.T) {
	rules, err := probdedup.ParseRules(
		"IF name > 0.8 AND job > 0.5 THEN DUPLICATES WITH CERTAINTY=0.8",
		[]string{"name", "job"})
	if err != nil {
		t.Fatal(err)
	}
	rm := probdedup.RuleModel{Rules: rules, T: probdedup.Thresholds{Lambda: 0.7, Mu: 0.7}}
	if rm.Similarity([]float64{0.9, 0.6}) != 0.8 {
		t.Fatal("rule model broken")
	}
	fs, err := probdedup.NewFellegiSunter(
		[]float64{0.9, 0.8}, []float64{0.1, 0.2},
		probdedup.Thresholds{Lambda: -1, Mu: 2})
	if err != nil {
		t.Fatal(err)
	}
	if fs.Similarity([]float64{0.9, 0.9}) <= 0 {
		t.Fatal("FS weight broken")
	}
}

func TestPublicCodecRoundTrip(t *testing.T) {
	r1, _ := r1r2()
	var buf bytes.Buffer
	if err := probdedup.EncodeRelation(&buf, r1); err != nil {
		t.Fatal(err)
	}
	back, err := probdedup.DecodeRelation(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != r1.String() {
		t.Fatal("round trip mismatch")
	}
}

func TestPublicResolve(t *testing.T) {
	src := probdedup.NewXRelation("S", "name", "job").Append(
		probdedup.NewXTuple("a", probdedup.NewAlt(1, "Tim", "mechanic")),
		probdedup.NewXTuple("b", probdedup.NewAlt(1, "Tim", "mechanic")),
		probdedup.NewXTuple("c", probdedup.NewAlt(1, "Tom", "mechanic")),
	)
	final := probdedup.Thresholds{Lambda: 0.5, Mu: 0.9}
	res, err := probdedup.Detect(src, probdedup.Options{Final: final})
	if err != nil {
		t.Fatal(err)
	}
	r, err := probdedup.Resolve(src, res, final, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Entities) == 0 || len(r.Tuples) == 0 {
		t.Fatalf("empty resolution: %+v", r)
	}
	if err := r.CheckExclusive(); err != nil {
		t.Fatal(err)
	}
	for _, lt := range r.Tuples {
		p, err := r.Confidence(lt)
		if err != nil {
			t.Fatal(err)
		}
		if p < 0 || p > 1 {
			t.Fatalf("confidence %v", p)
		}
	}
	cal := probdedup.LinearCalibration(final, 0.2, 0.8)
	if got := cal(0.7); got <= 0.2 || got >= 0.8 {
		t.Fatalf("calibration %v", got)
	}
}

func TestPublicNumericAndPruning(t *testing.T) {
	if got := probdedup.NumericAbs(10)("5", "10"); !almost(got, 0.5) {
		t.Fatalf("NumericAbs = %v", got)
	}
	if got := probdedup.NumericRelative("100", "110"); !almost(got, 1-10.0/110) {
		t.Fatalf("NumericRelative = %v", got)
	}
	src := probdedup.NewXRelation("S", "name").Append(
		probdedup.NewXTuple("a", probdedup.NewAlt(1, "Tim")),
		probdedup.NewXTuple("b", probdedup.NewAlt(1, "Maximiliane")),
	)
	pruned := probdedup.NewReductionFilter(
		probdedup.CrossProduct{},
		probdedup.Pruning{MaxDiff: map[int]int{0: 2}},
	)
	if c := probdedup.Candidates(pruned, src); len(c) != 0 {
		t.Fatalf("pruning kept %v", c.Sorted())
	}
	def, _ := probdedup.ParseKeyDef("name:2", []string{"name"})
	med := probdedup.SNMRanked{Key: def, Window: 2, Strategy: probdedup.MedianKeyStrategy}
	if med.Name() != "snm-ranked-median" {
		t.Fatalf("name %q", med.Name())
	}
}

func TestPublicMergeXTuples(t *testing.T) {
	a := probdedup.NewXTuple("a", probdedup.NewAlt(1, "John", "pilot"))
	b := probdedup.NewXTuple("b", probdedup.NewAlt(0.8, "Jon", "pilot"))
	m, err := probdedup.MergeXTuples("ab", a, b, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Alts) != 2 || !almost(m.P(), 1) {
		t.Fatalf("merged %v", m)
	}
}

func TestPublicDetectStream(t *testing.T) {
	r1, r2 := r1r2()
	opts := probdedup.Options{
		Compare: []probdedup.CompareFunc{probdedup.NormalizedHamming, probdedup.NormalizedHamming},
		AltModel: probdedup.SimpleModel{
			Phi: probdedup.WeightedSum(0.8, 0.2),
			T:   probdedup.Thresholds{Lambda: 0.4, Mu: 0.7},
		},
		Final: probdedup.Thresholds{Lambda: 0.4, Mu: 0.7},
	}
	res, err := probdedup.DetectRelations(r1, r2, opts)
	if err != nil {
		t.Fatal(err)
	}
	u, err := r1.ToXRelation().Union("R1+R2", r2.ToXRelation())
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		opts.Workers = workers
		matches := probdedup.PairSet{}
		stats, err := probdedup.DetectStream(u, opts, func(m probdedup.PairMatch) bool {
			if m.Class == probdedup.ClassM {
				matches[m.Pair] = true
			}
			return true
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if stats.Compared != len(res.Compared) || stats.TotalPairs != res.TotalPairs {
			t.Fatalf("workers=%d: stats %+v vs detect %d/%d",
				workers, stats, len(res.Compared), res.TotalPairs)
		}
		if len(matches) != len(res.Matches) {
			t.Fatalf("workers=%d: stream M=%d, detect M=%d", workers, len(matches), len(res.Matches))
		}
		for p := range res.Matches {
			if !matches[p] {
				t.Fatalf("workers=%d: match %v missing", workers, p)
			}
		}
	}
}

// TestPublicCandidates checks the one collecting function: a nil
// method collects the cross product, and a method's set holds exactly
// the pairs its enumeration yields.
func TestPublicCandidates(t *testing.T) {
	r1, r2 := r1r2()
	u, err := r1.ToXRelation().Union("R1+R2", r2.ToXRelation())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(probdedup.Candidates(nil, u)), len(u.Tuples)*(len(u.Tuples)-1)/2; got != want {
		t.Fatalf("nil method collected %d pairs, want the cross product's %d", got, want)
	}
	def, err := probdedup.ParseKeyDef("name:1", u.Schema)
	if err != nil {
		t.Fatal(err)
	}
	var m probdedup.ReductionMethod = probdedup.BlockingCertain{Key: def}
	var streamed []probdedup.Pair
	m.EnumeratePairs(u, func(p probdedup.Pair) bool {
		streamed = append(streamed, p)
		return true
	})
	got := probdedup.Candidates(m, u)
	if len(streamed) == 0 || len(got) != len(streamed) {
		t.Fatalf("collected %d pairs, enumerated %d", len(got), len(streamed))
	}
	for _, p := range streamed {
		if !got[p] {
			t.Fatalf("pair %v enumerated but not collected", p)
		}
	}
}
