package core

import (
	"math"
	"testing"

	"probdedup/internal/avm"
	"probdedup/internal/dataset"
	"probdedup/internal/decision"
	"probdedup/internal/keys"
	"probdedup/internal/paperdata"
	"probdedup/internal/pdb"
	"probdedup/internal/prepare"
	"probdedup/internal/ssr"
	"probdedup/internal/strsim"
	"probdedup/internal/verify"
	"probdedup/internal/xmatch"
)

func almost(a, b float64) bool { return math.Abs(a-b) <= 1e-9 }

func paperOptions() Options {
	return Options{
		Compare: []strsim.Func{strsim.NormalizedHamming, strsim.NormalizedHamming},
		AltModel: decision.SimpleModel{
			Phi: decision.WeightedSum(0.8, 0.2),
			T:   decision.Thresholds{Lambda: 0.4, Mu: 0.7},
		},
		Derivation: xmatch.SimilarityBased{Conditioned: true},
		Final:      decision.Thresholds{Lambda: 0.4, Mu: 0.7},
	}
}

func TestDetectRelationsPaperR1R2(t *testing.T) {
	res, err := DetectRelations(paperdata.R1(), paperdata.R2(), paperOptions())
	if err != nil {
		t.Fatal(err)
	}
	// 6 tuples → 15 pairs, all compared without reduction.
	if res.TotalPairs != 15 || len(res.Compared) != 15 {
		t.Fatalf("compared %d of %d", len(res.Compared), res.TotalPairs)
	}
	// The worked example: (t11,t22) has sim 0.8·0.9+0.2·(53/90).
	m, ok := res.ByPair[verify.NewPair("t11", "t22")]
	if !ok {
		t.Fatal("pair (t11,t22) not compared")
	}
	want := 0.8*0.9 + 0.2*(53.0/90)
	if !almost(m.Sim, want) {
		t.Fatalf("sim(t11,t22) = %v, want %v", m.Sim, want)
	}
	if m.Class != decision.M {
		t.Fatalf("(t11,t22) must be a match, got %v", m.Class)
	}
	if !res.Matches.Has("t11", "t22") {
		t.Fatal("matches set inconsistent")
	}
}

func TestDetectXRelationsPaper(t *testing.T) {
	opts := paperOptions()
	opts.Derivation = xmatch.DecisionBased{Conditioned: true}
	opts.Final = decision.Thresholds{Lambda: 0.5, Mu: 1.0}
	res, err := Detect(paperdata.R34(), opts)
	if err != nil {
		t.Fatal(err)
	}
	m := res.ByPair[verify.NewPair("t32", "t42")]
	if !almost(m.Sim, 0.75) {
		t.Fatalf("decision-based sim(t32,t42) = %v, want 0.75", m.Sim)
	}
	if m.Class != decision.P {
		t.Fatalf("class %v", m.Class)
	}
}

func TestDetectWithReduction(t *testing.T) {
	opts := paperOptions()
	opts.Reduction = ssr.SNMAlternatives{
		Key:    keys.NewDef(keys.Part{Attr: 0, Prefix: 3}, keys.Part{Attr: 1, Prefix: 2}),
		Window: 2,
	}
	res, err := Detect(paperdata.R34(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Compared) != 5 {
		t.Fatalf("reduced candidates = %d, want the paper's 5", len(res.Compared))
	}
	if res.TotalPairs != 10 {
		t.Fatalf("total pairs %d", res.TotalPairs)
	}
}

func TestDetectDefaults(t *testing.T) {
	// No Compare/AltModel/Derivation: defaults must work end to end.
	res, err := Detect(paperdata.R34(), Options{Final: decision.Thresholds{Lambda: 0.4, Mu: 0.7}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Compared) != 10 {
		t.Fatalf("compared %d", len(res.Compared))
	}
	// Identical tuples would be matched; sanity: all sims in [0,1] for the
	// default similarity-based derivation with normalized φ.
	for _, m := range res.ByPair {
		if m.Sim < -1e-9 || m.Sim > 1+1e-9 {
			t.Fatalf("sim %v outside [0,1]", m.Sim)
		}
	}
}

func TestDetectWithStandardizer(t *testing.T) {
	opts := paperOptions()
	opts.Standardizer = prepare.NewStandardizer(prepare.LowerCase, prepare.LowerCase)
	// Build two tuples differing only in case: after standardization they
	// are identical and must match.
	a := pdb.NewRelation("A", "name", "job").Append(
		pdb.NewTuple("a1", 1, pdb.Certain("TIM"), pdb.Certain("MECHANIC")))
	b := pdb.NewRelation("B", "name", "job").Append(
		pdb.NewTuple("b1", 1, pdb.Certain("tim"), pdb.Certain("mechanic")))
	res, err := DetectRelations(a, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Matches.Has("a1", "b1") {
		t.Fatal("standardized identical tuples must match")
	}
	// Without the standardizer the normalized Hamming of TIM/tim is 0.
	opts.Standardizer = nil
	res2, err := DetectRelations(a, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Matches.Has("a1", "b1") {
		t.Fatal("case difference must prevent the match without preparation")
	}
}

func TestDetectErrors(t *testing.T) {
	// Invalid thresholds.
	if _, err := Detect(paperdata.R34(), Options{Final: decision.Thresholds{Lambda: 1, Mu: 0}}); err == nil {
		t.Fatal("want threshold error")
	}
	// Wrong comparison function count.
	opts := Options{Compare: []strsim.Func{strsim.Exact}}
	if _, err := Detect(paperdata.R34(), opts); err == nil {
		t.Fatal("want arity error")
	}
	// Invalid relation.
	bad := pdb.NewXRelation("bad", "a").Append(pdb.NewXTuple("t"))
	if _, err := Detect(bad, Options{}); err == nil {
		t.Fatal("want validation error")
	}
	// Union width mismatch.
	r1 := pdb.NewRelation("r1", "a")
	r2 := pdb.NewRelation("r2", "a", "b")
	if _, err := DetectRelations(r1, r2, Options{}); err == nil {
		t.Fatal("want union error")
	}
}

// TestAltModelThresholdsValidated: every built-in per-alternative model
// with NaN or inverted thresholds is refused by each engine entry point,
// as an invalid Final is; without the check an inverted pair silently
// turns most pairs into matches.
func TestAltModelThresholdsValidated(t *testing.T) {
	nan := math.NaN()
	models := map[string]func(decision.Thresholds) decision.Model{
		"simple": func(th decision.Thresholds) decision.Model {
			return decision.SimpleModel{Phi: decision.WeightedSum(0.5, 0.5), T: th}
		},
		"weighted-sum": func(th decision.Thresholds) decision.Model {
			return decision.WeightedSumModel{Weights: []float64{0.5, 0.5}, T: th}
		},
		"rules": func(th decision.Thresholds) decision.Model {
			return decision.RuleModel{T: th}
		},
		"fellegi-sunter": func(th decision.Thresholds) decision.Model {
			return &decision.FellegiSunter{M: []float64{0.9, 0.9}, U: []float64{0.1, 0.1}, T: th}
		},
	}
	for name, model := range models {
		for _, tc := range []struct {
			th decision.Thresholds
			ok bool
		}{
			{decision.Thresholds{Lambda: 0.4, Mu: 0.7}, true},
			{decision.Thresholds{Lambda: 0.5, Mu: 0.5}, true},
			{decision.Thresholds{Lambda: 0.9, Mu: 0.1}, false},
			{decision.Thresholds{Lambda: nan, Mu: 0.7}, false},
			{decision.Thresholds{Lambda: 0.4, Mu: nan}, false},
		} {
			opts := paperOptions()
			opts.AltModel = model(tc.th)
			xr := paperdata.R34()
			_, detErr := Detect(xr, opts)
			_, streamErr := DetectStream(xr, opts, func(Match) bool { return true })
			_, onlineErr := NewDetector(xr.Schema, opts, nil)
			for entry, err := range map[string]error{"Detect": detErr, "DetectStream": streamErr, "NewDetector": onlineErr} {
				if (err == nil) != tc.ok {
					t.Errorf("%s %s thresholds %+v: err = %v, want ok=%v", name, entry, tc.th, err, tc.ok)
				}
			}
		}
	}
}

// TestFilterQValidated: a negative pre-filter gram size is refused by
// every engine entry point, with the filter on or off, instead of
// running as q = 2; 0 (the default) and positive sizes run.
func TestFilterQValidated(t *testing.T) {
	for _, tc := range []struct {
		q         int
		preFilter bool
		ok        bool
	}{
		{-7, true, false},
		{-1, true, false},
		{-1, false, false},
		{0, true, true},
		{3, true, true},
		{0, false, true},
	} {
		opts := paperOptions()
		opts.PreFilter, opts.FilterQ = tc.preFilter, tc.q
		xr := paperdata.R34()
		_, detErr := Detect(xr, opts)
		_, streamErr := DetectStream(xr, opts, func(Match) bool { return true })
		_, onlineErr := NewDetector(xr.Schema, opts, nil)
		for entry, err := range map[string]error{"Detect": detErr, "DetectStream": streamErr, "NewDetector": onlineErr} {
			if (err == nil) != tc.ok {
				t.Errorf("%s FilterQ %d PreFilter %v: err = %v, want ok=%v", entry, tc.q, tc.preFilter, err, tc.ok)
			}
		}
	}
}

// TestMultiPassWorldCountValidated: a multi-pass sorted neighbourhood
// that selects K worlds with K ≤ 0 visits no world and compares no
// pair, so every engine entry point refuses it, also under an
// ssr.Filter, while K ≥ 1 runs and compares pairs.
func TestMultiPassWorldCountValidated(t *testing.T) {
	u := dataset.Generate(dataset.DefaultConfig(30, 1)).Union()
	def, err := keys.ParseDef("name:3", u.Schema)
	if err != nil {
		t.Fatal(err)
	}
	multi := func(sel ssr.WorldSelection, k int) ssr.SNMMultiPass {
		return ssr.SNMMultiPass{Key: def, Window: 3, Select: sel, K: k}
	}
	prune := ssr.Pruning{MaxDiff: map[int]int{0: 3}}
	for _, tc := range []struct {
		name string
		red  ssr.Method
		ok   bool
	}{
		{"top K=0", multi(ssr.TopWorlds, 0), false},
		{"top K=-1", multi(ssr.TopWorlds, -1), false},
		{"dissimilar K=0", multi(ssr.DissimilarWorlds, 0), false},
		{"filtered top K=0", ssr.NewFilter(multi(ssr.TopWorlds, 0), prune), false},
		{"top K=8", multi(ssr.TopWorlds, 8), true},
		{"dissimilar K=8", multi(ssr.DissimilarWorlds, 8), true},
		{"filtered top K=8", ssr.NewFilter(multi(ssr.TopWorlds, 8), prune), true},
	} {
		opts := Options{Reduction: tc.red, Final: decision.Thresholds{Lambda: 0.4, Mu: 0.7}}
		st, detErr := DetectStream(u, opts, func(Match) bool { return true })
		_, batchErr := Detect(u, opts)
		det, onlineErr := NewDetector(u.Schema, opts, nil)
		for entry, err := range map[string]error{"Detect": batchErr, "DetectStream": detErr, "NewDetector": onlineErr} {
			if (err == nil) != tc.ok {
				t.Errorf("%s %s: err = %v, want ok=%v", tc.name, entry, err, tc.ok)
			}
		}
		if !tc.ok || detErr != nil || onlineErr != nil {
			continue
		}
		if err := det.AddBatch(u.Tuples); err != nil {
			t.Fatal(err)
		}
		if st.Compared == 0 || det.Stats().Compared == 0 {
			t.Errorf("%s: compared %d pairs in batch, %d online; want some", tc.name, st.Compared, det.Stats().Compared)
		}
	}
}

// TestNullsValidated: ⊥ similarities outside [0,1], or NaN, are refused
// by every engine entry point, with the pre-filter on or off, instead
// of running unfiltered with attribute similarities outside [0,1];
// values inside run.
func TestNullsValidated(t *testing.T) {
	for _, tc := range []struct {
		nulls avm.NullSemantics
		ok    bool
	}{
		{avm.NullSemantics{NullNull: 1.5, NullValue: 0}, false},
		{avm.NullSemantics{NullNull: 1, NullValue: -0.1}, false},
		{avm.NullSemantics{NullNull: math.NaN(), NullValue: 0}, false},
		{avm.NullSemantics{NullNull: 1, NullValue: math.NaN()}, false},
		{avm.NullSemantics{NullNull: 1, NullValue: 0.5}, true},
		{avm.NullSemantics{NullNull: 0, NullValue: 1}, true},
	} {
		for _, preFilter := range []bool{false, true} {
			opts := paperOptions()
			opts.Nulls, opts.PreFilter = &tc.nulls, preFilter
			xr := paperdata.R34()
			_, detErr := Detect(xr, opts)
			_, streamErr := DetectStream(xr, opts, func(Match) bool { return true })
			_, onlineErr := NewDetector(xr.Schema, opts, nil)
			for entry, err := range map[string]error{"Detect": detErr, "DetectStream": streamErr, "NewDetector": onlineErr} {
				if (err == nil) != tc.ok {
					t.Errorf("%s Nulls %+v PreFilter %v: err = %v, want ok=%v", entry, tc.nulls, preFilter, err, tc.ok)
				}
			}
		}
	}
}

// TestWindowValidated: a sorted neighbourhood with a negative window or
// a window of 1 is refused by every engine entry point, also under an
// ssr.Filter, instead of running as window 2; 0 (the minimum window)
// and 2 run, compare the same pairs, and compare some.
func TestWindowValidated(t *testing.T) {
	u := dataset.Generate(dataset.DefaultConfig(30, 1)).Union()
	def, err := keys.ParseDef("name:3", u.Schema)
	if err != nil {
		t.Fatal(err)
	}
	prune := ssr.Pruning{MaxDiff: map[int]int{0: 3}}
	atZero := map[string]int{} // pairs compared at Window 0
	for _, window := range []int{-3, -1, 0, 1, 2} {
		for name, red := range map[string]ssr.Method{
			"snm-certain":      ssr.SNMCertain{Key: def, Window: window},
			"snm-alternatives": ssr.SNMAlternatives{Key: def, Window: window},
			"snm-ranked":       ssr.SNMRanked{Key: def, Window: window},
			"snm-multipass":    ssr.SNMMultiPass{Key: def, Window: window, Select: ssr.TopWorlds, K: 2},
			"filtered":         ssr.NewFilter(ssr.SNMCertain{Key: def, Window: window}, prune),
		} {
			ok := window == 0 || window >= 2
			opts := Options{Reduction: red, Final: decision.Thresholds{Lambda: 0.4, Mu: 0.7}}
			st, streamErr := DetectStream(u, opts, func(Match) bool { return true })
			_, batchErr := Detect(u, opts)
			_, onlineErr := NewDetector(u.Schema, opts, nil)
			for entry, err := range map[string]error{"Detect": batchErr, "DetectStream": streamErr, "NewDetector": onlineErr} {
				if (err == nil) != ok {
					t.Errorf("%s Window %d %s: err = %v, want ok=%v", name, window, entry, err, ok)
				}
			}
			switch {
			case ok && st.Compared == 0:
				t.Errorf("%s Window %d: compared no pair", name, window)
			case window == 0:
				atZero[name] = st.Compared
			case window == 2 && st.Compared != atZero[name]:
				t.Errorf("%s: compared %d pairs at Window 2, %d at Window 0", name, st.Compared, atZero[name])
			}
		}
	}
}

func TestVerifyAndReduction(t *testing.T) {
	d := dataset.Generate(dataset.DefaultConfig(60, 5))
	opts := Options{
		Compare: []strsim.Func{strsim.Levenshtein, strsim.Levenshtein, strsim.Levenshtein},
		AltModel: decision.SimpleModel{
			Phi: decision.WeightedSum(0.5, 0.25, 0.25),
			T:   decision.Thresholds{Lambda: 0.6, Mu: 0.8},
		},
		Derivation: xmatch.SimilarityBased{Conditioned: true},
		Final:      decision.Thresholds{Lambda: 0.6, Mu: 0.8},
	}
	u := d.Union()
	res, err := Detect(u, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Verify(d.Truth, ssr.AllPairs(u))
	// On an easy synthetic corpus the pipeline must clearly beat chance.
	if rep.Recall() < 0.3 {
		t.Fatalf("recall %v suspiciously low: %s", rep.Recall(), rep)
	}
	if rep.Precision() < 0.3 {
		t.Fatalf("precision %v suspiciously low: %s", rep.Precision(), rep)
	}
	red := res.Reduction(d.Truth)
	if red.CandidatePairs != len(res.Compared) || red.TotalPairs != res.TotalPairs {
		t.Fatalf("reduction inconsistent: %+v", red)
	}
	if !almost(red.ReductionRatio(), 0) {
		t.Fatalf("cross product must not reduce: %v", red.ReductionRatio())
	}
}

func TestDeterministicComparedOrder(t *testing.T) {
	res1, err := Detect(paperdata.R34(), Options{Final: decision.Thresholds{Lambda: 0.4, Mu: 0.7}})
	if err != nil {
		t.Fatal(err)
	}
	res2, _ := Detect(paperdata.R34(), Options{Final: decision.Thresholds{Lambda: 0.4, Mu: 0.7}})
	for i := range res1.Compared {
		if res1.Compared[i] != res2.Compared[i] {
			t.Fatal("Compared order must be deterministic")
		}
	}
}
