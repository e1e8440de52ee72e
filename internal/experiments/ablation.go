package experiments

import (
	"probdedup/internal/avm"
	"probdedup/internal/core"
	"probdedup/internal/dataset"
	"probdedup/internal/decision"
	"probdedup/internal/ssr"
	"probdedup/internal/verify"
	"probdedup/internal/xmatch"
)

// The EXPERIMENTS.md A-experiments: each switches off one of the paper's design
// decisions and measures the effectiveness delta on the synthetic corpus.

// A01Row is one conditioning-ablation measurement.
type A01Row struct {
	Method                string
	Conditioned           bool
	Precision, Recall, F1 float64
}

// A01 ablates the conditioning p(tⁱ)/p(t) (Sec. IV-B: "not tuple membership
// but only uncertainty on attribute value level should influence the
// duplicate detection process"). Without conditioning, maybe-tuples are
// systematically under-scored, costing recall.
func A01(entities int, seed int64) ([]A01Row, string) {
	cfg := levelConfig(Levels[1], entities, seed)
	// Force plenty of tuple-level uncertainty so the ablation has teeth.
	cfg.MaybeRate = 0.6
	d := dataset.Generate(cfg)
	u := d.Union()
	universe := ssr.AllPairs(u)

	var rows []A01Row
	tab := verify.NewTable("derivation", "conditioned", "precision", "recall", "F1")
	for _, cond := range []bool{true, false} {
		for _, m := range []struct {
			name   string
			derive xmatch.Derivation
			finalT decision.Thresholds
		}{
			{"similarity-based", xmatch.SimilarityBased{Conditioned: cond}, decision.Thresholds{Lambda: 0.62, Mu: 0.76}},
			{"decision-based", xmatch.DecisionBased{Conditioned: cond}, decision.Thresholds{Lambda: 0.8, Mu: 1.6}},
		} {
			res, err := core.Detect(u, core.Options{
				Compare:    synthCompare(),
				AltModel:   synthAltModel(decision.Thresholds{Lambda: 0.62, Mu: 0.76}),
				Derivation: m.derive,
				Final:      m.finalT,
			})
			if err != nil {
				panic(err)
			}
			rep := res.Verify(d.Truth, universe)
			row := A01Row{
				Method: m.name, Conditioned: cond,
				Precision: rep.Precision(), Recall: rep.Recall(), F1: rep.F1(),
			}
			rows = append(rows, row)
			tab.AddRow(row.Method, row.Conditioned, row.Precision, row.Recall, row.F1)
		}
	}
	return rows, "A01 — ablation: conditioning on tuple membership (Sec. IV-B)\n" + tab.String()
}

// A02Row is one ⊥-semantics measurement.
type A02Row struct {
	Missingness           string
	Semantics             string
	Precision, Recall, F1 float64
}

// A02 ablates the ⊥ semantics under two missingness mechanisms. The paper
// sets sim(⊥,⊥)=1 ("two non-existent values refer to the same real-world
// fact") and sim(a,⊥)=0, implicitly assuming non-existence is an entity
// property: a jobless person is jobless in every representation
// (correlated missingness). The sweep also runs independent (per-
// representation, measurement-style) missingness, where the strict
// sim(a,⊥)=0 punishes true duplicates that disagree on coverage.
func A02(entities int, seed int64) ([]A02Row, string) {
	var rows []A02Row
	tab := verify.NewTable("missingness", "⊥ semantics", "precision", "recall", "F1")
	for _, mech := range []struct {
		name       string
		correlated bool
	}{
		{"correlated (entity-level)", true},
		{"independent (per-representation)", false},
	} {
		cfg := levelConfig(Levels[1], entities, seed)
		cfg.NullRate = 0.5 // make missing values common
		cfg.CorrelatedNulls = mech.correlated
		d := dataset.Generate(cfg)
		u := d.Union()
		universe := ssr.AllPairs(u)
		for _, s := range []struct {
			name  string
			nulls avm.NullSemantics
		}{
			{"paper: sim(⊥,⊥)=1, sim(a,⊥)=0", avm.PaperNulls},
			{"ablated: sim(⊥,⊥)=0, sim(a,⊥)=0", avm.NullSemantics{NullNull: 0, NullValue: 0}},
			{"naive: sim(⊥,⊥)=1, sim(a,⊥)=0.5", avm.NullSemantics{NullNull: 1, NullValue: 0.5}},
		} {
			nulls := s.nulls
			res, err := core.Detect(u, core.Options{
				Compare:    synthCompare(),
				AltModel:   synthAltModel(decision.Thresholds{Lambda: 0.62, Mu: 0.76}),
				Derivation: xmatch.SimilarityBased{Conditioned: true},
				Final:      decision.Thresholds{Lambda: 0.62, Mu: 0.76},
				Nulls:      &nulls,
			})
			if err != nil {
				panic(err)
			}
			rep := verify.Evaluate(res.Matches, res.Possible, d.Truth, universe)
			row := A02Row{
				Missingness: mech.name, Semantics: s.name,
				Precision: rep.Precision(), Recall: rep.Recall(), F1: rep.F1(),
			}
			rows = append(rows, row)
			tab.AddRow(row.Missingness, row.Semantics, row.Precision, row.Recall, row.F1)
		}
	}
	return rows, "A02 — ablation: non-existence (⊥) semantics (Sec. IV-A)\n" + tab.String()
}
