package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"probdedup/internal/avm"
	"probdedup/internal/core"
	"probdedup/internal/dataset"
	"probdedup/internal/decision"
	"probdedup/internal/fusion"
	"probdedup/internal/keys"
	"probdedup/internal/ssr"
	"probdedup/internal/strsim"
	"probdedup/internal/sym"
	"probdedup/internal/verify"
	"probdedup/internal/xmatch"
)

// SynthKey is the sorting/blocking key used on the synthetic corpus.
func SynthKey() keys.Def {
	return keys.NewDef(keys.Part{Attr: 0, Prefix: 3}, keys.Part{Attr: 1, Prefix: 2})
}

// UncertaintyLevel bundles generator knobs for the S01 sweep.
type UncertaintyLevel struct {
	Name          string
	TypoRate      float64
	UncertainRate float64
	NullRate      float64
}

// Levels is the three-point uncertainty sweep of S01.
var Levels = []UncertaintyLevel{
	{Name: "low", TypoRate: 0.15, UncertainRate: 0.15, NullRate: 0.05},
	{Name: "medium", TypoRate: 0.30, UncertainRate: 0.40, NullRate: 0.10},
	{Name: "high", TypoRate: 0.45, UncertainRate: 0.70, NullRate: 0.15},
}

// levelConfig instantiates a generator config for a level.
func levelConfig(l UncertaintyLevel, entities int, seed int64) dataset.Config {
	cfg := dataset.DefaultConfig(entities, seed)
	cfg.TypoRate = l.TypoRate
	cfg.UncertainRate = l.UncertainRate
	cfg.NullRate = l.NullRate
	return cfg
}

// synthCompare uses Levenshtein on all three attributes: robust against the
// injected edit noise.
func synthCompare() []strsim.Func {
	return []strsim.Func{strsim.Levenshtein, strsim.Levenshtein, strsim.Levenshtein}
}

func synthAltModel(t decision.Thresholds) decision.Model {
	return decision.SimpleModel{Phi: decision.WeightedSum(0.4, 0.3, 0.3), T: t}
}

// S01Method is one pipeline variant of the effectiveness experiment.
type S01Method struct {
	Name       string
	Derivation xmatch.Derivation
	// AltT classifies alternative pairs, FinalT the derived similarity.
	AltT, FinalT decision.Thresholds
}

// S01Methods returns the derivation variants under test. Thresholds per
// derivation scale: similarity-based and the per-alternative φ are
// normalized; decision-based is a P(m)/P(u) weight; expected-η lies in
// [0,2].
func S01Methods() []S01Method {
	altT := decision.Thresholds{Lambda: 0.62, Mu: 0.76}
	return []S01Method{
		{
			Name:       "similarity-based",
			Derivation: xmatch.SimilarityBased{Conditioned: true},
			AltT:       altT,
			FinalT:     decision.Thresholds{Lambda: 0.62, Mu: 0.76},
		},
		{
			Name:       "decision-based",
			Derivation: xmatch.DecisionBased{Conditioned: true},
			AltT:       altT,
			FinalT:     decision.Thresholds{Lambda: 0.8, Mu: 1.6},
		},
		{
			Name:       "expected-eta",
			Derivation: xmatch.ExpectedEta{Conditioned: true},
			AltT:       altT,
			FinalT:     decision.Thresholds{Lambda: 0.8, Mu: 1.3},
		},
		{
			Name:       "most-probable-world",
			Derivation: xmatch.MostProbableWorld{Conditioned: true},
			AltT:       altT,
			FinalT:     decision.Thresholds{Lambda: 0.62, Mu: 0.76},
		},
		{
			Name:       "max-sim",
			Derivation: xmatch.MaxSim{Conditioned: true},
			AltT:       altT,
			// The optimistic maximum needs a stricter match threshold.
			FinalT: decision.Thresholds{Lambda: 0.68, Mu: 0.82},
		},
	}
}

// S01Row is one measured effectiveness row.
type S01Row struct {
	Level, Method         string
	Precision, Recall, F1 float64
	FPpct, FNpct          float64
	Possible              int
}

// S01 runs the effectiveness sweep: derivation variants × uncertainty
// levels on the synthetic x-relation corpus.
func S01(entities int, seed int64) ([]S01Row, string) {
	var rows []S01Row
	tab := verify.NewTable("level", "method", "precision", "recall", "F1", "FP%", "FN%", "|P|")
	for _, level := range Levels {
		d := dataset.Generate(levelConfig(level, entities, seed))
		u := d.Union()
		universe := ssr.AllPairs(u)
		for _, m := range S01Methods() {
			res, err := core.Detect(u, core.Options{
				Compare:    synthCompare(),
				AltModel:   synthAltModel(m.AltT),
				Derivation: m.Derivation,
				Final:      m.FinalT,
			})
			if err != nil {
				panic(err)
			}
			rep := res.Verify(d.Truth, universe)
			row := S01Row{
				Level: level.Name, Method: m.Name,
				Precision: rep.Precision(), Recall: rep.Recall(), F1: rep.F1(),
				FPpct: rep.FalsePositivePct(), FNpct: rep.FalseNegativePct(),
				Possible: rep.Possible,
			}
			rows = append(rows, row)
			tab.AddRow(row.Level, row.Method, row.Precision, row.Recall, row.F1, row.FPpct, row.FNpct, row.Possible)
		}
		// Fellegi–Sunter with EM-estimated parameters (decision-based).
		row := s01FellegiSunter(level, d)
		rows = append(rows, row)
		tab.AddRow(row.Level, row.Method, row.Precision, row.Recall, row.F1, row.FPpct, row.FNpct, row.Possible)
	}
	return rows, "S01 — effectiveness of the adapted decision models (Sec. III-E / IV)\n" + tab.String()
}

// s01FellegiSunter estimates m/u probabilities with EM on the unlabeled
// agreement patterns of the corpus, derives classification thresholds from
// the estimated posterior, and runs the decision-based derivation with the
// resulting FS model per alternative pair.
func s01FellegiSunter(level UncertaintyLevel, d *dataset.Dataset) S01Row {
	u := d.Union()
	universe := ssr.AllPairs(u)

	// Collect agreement patterns over conflict-resolved tuples.
	resolved := fusion.ResolveRelation(fusion.MostProbable{}, u)
	internRelation(sym.NewTable(0), resolved)
	matcher := avm.NewMatcher(synthCompare()...)
	byID := map[string]int{}
	for i, t := range resolved.Tuples {
		byID[t.ID] = i
	}
	patterns := make([]decision.Pattern, 0, len(universe))
	for _, p := range universe {
		c := matcher.CompareTuples(resolved.Tuples[byID[p.A]], resolved.Tuples[byID[p.B]])
		patterns = append(patterns, decision.Agreement(c, 0.6))
	}
	em, err := decision.EstimateEM(patterns, 3, 200, 1e-9)
	if err != nil {
		panic(err)
	}
	// Posterior-odds thresholds: declare match when P(M|pattern) > 0.5,
	// non-match when < 0.1.
	priorOdds := em.PMatch / (1 - em.PMatch)
	tMu := -math.Log2(priorOdds)
	tLambda := math.Log2(0.1/0.9) - math.Log2(priorOdds)
	fs := &decision.FellegiSunter{
		M: em.M, U: em.U,
		AgreeThresholds: []float64{0.6},
		T:               decision.Thresholds{Lambda: tLambda, Mu: tMu},
	}
	res, err := core.Detect(u, core.Options{
		Compare:    synthCompare(),
		AltModel:   fs,
		Derivation: xmatch.DecisionBased{Conditioned: true},
		Final:      decision.Thresholds{Lambda: 0.8, Mu: 1.6},
	})
	if err != nil {
		panic(err)
	}
	rep := res.Verify(d.Truth, universe)
	return S01Row{
		Level: level.Name, Method: "fellegi-sunter+EM",
		Precision: rep.Precision(), Recall: rep.Recall(), F1: rep.F1(),
		FPpct: rep.FalsePositivePct(), FNpct: rep.FalseNegativePct(),
		Possible: rep.Possible,
	}
}

// S02Row is one measured reduction row.
type S02Row struct {
	Method         string
	Candidates     int
	ReductionRatio float64
	Completeness   float64
	Quality        float64
}

// S02Methods enumerates the reduction methods under comparison. Multi-pass
// variants use k worlds; the full-enumeration variant is omitted on
// synthetic corpora (the world count is astronomical), exactly the
// drawback Sec. V-A.1 discusses.
func S02Methods(window, blocks, kWorlds int) []ssr.Method {
	def := SynthKey()
	return []ssr.Method{
		ssr.CrossProduct{},
		ssr.SNMCertain{Key: def, Window: window},
		ssr.SNMAlternatives{Key: def, Window: window},
		ssr.SNMRanked{Key: def, Window: window},
		ssr.SNMRanked{Key: def, Window: window, Strategy: ssr.MedianKey},
		ssr.SNMMultiPass{Key: def, Window: window, Select: ssr.TopWorlds, K: kWorlds},
		ssr.SNMMultiPass{Key: def, Window: window, Select: ssr.DissimilarWorlds, K: kWorlds},
		ssr.BlockingCertain{Key: def},
		ssr.BlockingAlternatives{Key: def},
		ssr.BlockingCluster{Key: def, K: blocks, Seed: 7},
		ssr.NewFilter(ssr.SNMAlternatives{Key: def, Window: window},
			ssr.Pruning{MaxDiff: map[int]int{0: 3}}),
	}
}

// S02 measures reduction ratio, pairs completeness and pair quality of
// every search-space reduction method on the synthetic corpus.
func S02(entities int, seed int64) ([]S02Row, string) {
	d := dataset.Generate(levelConfig(Levels[1], entities, seed))
	u := d.Union()
	n := len(u.Tuples)
	var rows []S02Row
	tab := verify.NewTable("method", "candidates", "RR", "PC", "PQ")
	for _, m := range S02Methods(7, n/8, 8) {
		red := ssr.Measure(m, u, d.Truth)
		row := S02Row{
			Method:         m.Name(),
			Candidates:     red.CandidatePairs,
			ReductionRatio: red.ReductionRatio(),
			Completeness:   red.PairsCompleteness(),
			Quality:        red.PairQuality(),
		}
		rows = append(rows, row)
		tab.AddRow(row.Method, row.Candidates, row.ReductionRatio, row.Completeness, row.Quality)
	}
	return rows, fmt.Sprintf("S02 — search-space reduction on %d tuples (Sec. V)\n%s", n, tab.String())
}

// S03Row is one world-selection measurement.
type S03Row struct {
	Selector     string
	K            int
	Candidates   int
	Completeness float64
}

// S03 studies the multi-pass approach: effectiveness versus the number of
// selected worlds, comparing most-probable-k against the dissimilar-k
// selection (the redundancy argument of Sec. V-A.1: highly probable worlds
// are often similar, so extra passes add little).
func S03(entities int, seed int64) ([]S03Row, string) {
	d := dataset.Generate(levelConfig(Levels[1], entities, seed))
	u := d.Union()
	def := SynthKey()
	var rows []S03Row
	tab := verify.NewTable("selector", "k", "candidates", "PC")
	for _, k := range []int{1, 2, 4, 8, 16} {
		for _, sel := range []ssr.WorldSelection{ssr.TopWorlds, ssr.DissimilarWorlds} {
			m := ssr.SNMMultiPass{Key: def, Window: 7, Select: sel, K: k}
			red := ssr.Measure(m, u, d.Truth)
			row := S03Row{
				Selector:     m.Name(),
				K:            k,
				Candidates:   red.CandidatePairs,
				Completeness: red.PairsCompleteness(),
			}
			rows = append(rows, row)
			tab.AddRow(row.Selector, row.K, row.Candidates, row.Completeness)
		}
	}
	return rows, "S03 — world selection for the multi-pass SNM (Sec. V-A.1)\n" + tab.String()
}

// S04Row is one scaling measurement.
type S04Row struct {
	Method  string
	Tuples  int
	Elapsed time.Duration
}

// S04 measures wall-clock scaling of the reduction methods against the
// cross-product baseline (the O(n log n) claim of Sec. V-A.4).
func S04(sizes []int, seed int64) ([]S04Row, string) {
	if len(sizes) == 0 {
		sizes = []int{100, 200, 400, 800}
	}
	def := SynthKey()
	var rows []S04Row
	tab := verify.NewTable("method", "tuples", "elapsed")
	for _, n := range sizes {
		d := dataset.Generate(levelConfig(Levels[1], n, seed))
		u := d.Union()
		methods := []ssr.Method{
			ssr.CrossProduct{},
			ssr.SNMCertain{Key: def, Window: 7},
			ssr.SNMAlternatives{Key: def, Window: 7},
			ssr.SNMRanked{Key: def, Window: 7},
			ssr.BlockingAlternatives{Key: def},
		}
		for _, m := range methods {
			start := time.Now() //pdlint:allow nowallclock -- experiment stopwatch; elapsed time is the measured quantity
			_ = ssr.Candidates(m, u)
			el := time.Since(start)
			rows = append(rows, S04Row{Method: m.Name(), Tuples: len(u.Tuples), Elapsed: el})
			tab.AddRow(m.Name(), len(u.Tuples), el.String())
		}
	}
	return rows, "S04 — scaling of the reduction methods (Sec. V)\n" + tab.String()
}

// S05Row is one window-sweep measurement.
type S05Row struct {
	Method       string
	Window       int
	Candidates   int
	Completeness float64
}

// S05 sweeps the sorted-neighborhood window size — the knob Sec. V-A.1
// highlights ("depending on the window size both passes can result in
// different x-tuple matchings") — and reports the candidate count and
// pairs completeness trade-off per SNM variant.
func S05(entities int, seed int64) ([]S05Row, string) {
	d := dataset.Generate(levelConfig(Levels[1], entities, seed))
	u := d.Union()
	def := SynthKey()
	var rows []S05Row
	tab := verify.NewTable("method", "window", "candidates", "PC")
	for _, w := range []int{2, 4, 8, 16, 32} {
		for _, m := range []ssr.Method{
			ssr.SNMCertain{Key: def, Window: w},
			ssr.SNMAlternatives{Key: def, Window: w},
			ssr.SNMRanked{Key: def, Window: w, Strategy: ssr.MedianKey},
		} {
			red := ssr.Measure(m, u, d.Truth)
			row := S05Row{
				Method:       m.Name(),
				Window:       w,
				Candidates:   red.CandidatePairs,
				Completeness: red.PairsCompleteness(),
			}
			rows = append(rows, row)
			tab.AddRow(row.Method, row.Window, row.Candidates, row.Completeness)
		}
	}
	return rows, "S05 — window-size sweep for the SNM variants (Sec. V-A)\n" + tab.String()
}

// AllPaperExperiments concatenates E01–E10 output.
func AllPaperExperiments() string {
	var b strings.Builder
	b.WriteString(E01())
	b.WriteString("\n")
	b.WriteString(E02())
	b.WriteString("\n")
	_, e03 := E03()
	b.WriteString(e03)
	_, _, _, e04 := E04()
	b.WriteString(e04)
	b.WriteString("\n")
	b.WriteString(E05())
	b.WriteString(E06())
	b.WriteString(E07())
	b.WriteString(E08())
	b.WriteString(E09())
	b.WriteString("\n")
	b.WriteString(E10())
	return b.String()
}
