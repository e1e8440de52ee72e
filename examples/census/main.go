// Census: large-scale duplicate detection on a synthetic probabilistic
// person corpus with a Fellegi–Sunter decision model whose m- and
// u-probabilities are estimated with EM from unlabeled data — the classic
// record-linkage setting (Sec. III-D, refs [16], [26]) lifted to
// probabilistic source data.
//
//	go run ./examples/census
package main

import (
	"fmt"
	"log"
	"math"

	"probdedup"
)

func main() {
	// Two overlapping probabilistic sources with ground truth. The default
	// medium-difficulty generator is softened a little so the unsupervised
	// EM model has a fair class separation to find.
	cfg := probdedup.DefaultDatasetConfig(400, 2026)
	cfg.TypoRate = 0.2
	cfg.UncertainRate = 0.25
	cfg.NullRate = 0.05
	data := probdedup.GenerateDataset(cfg)
	union := data.Union()
	fmt.Printf("corpus: %d x-tuples, %d true duplicate pairs\n",
		len(union.Tuples), len(data.Truth))

	// Reduce the search space by blocking on the first letter of the name,
	// inserting every x-tuple into the block of each alternative key value
	// (Sec. V-B) — coarse blocks keep pairs completeness high on noisy
	// data.
	key, err := probdedup.ParseKeyDef("name:1", union.Schema)
	if err != nil {
		log.Fatal(err)
	}
	reduction := probdedup.BlockingAlternatives{Key: key}

	// Estimate m/u probabilities with EM over the candidates' agreement
	// patterns (no labels used).
	matcher := []probdedup.CompareFunc{
		probdedup.Levenshtein, probdedup.Levenshtein, probdedup.Levenshtein,
	}
	patterns := collectPatterns(union, reduction, matcher)
	em, err := probdedup.EstimateEM(patterns, len(union.Schema), 200, 1e-9)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("EM: match prior %.4f, m=%v u=%v (%d iterations)\n",
		em.PMatch, rounded(em.M), rounded(em.U), em.Iterations)

	// Declare a per-alternative match when the posterior match probability
	// exceeds 0.5 and a non-match below 0.1 (posterior odds on the log₂
	// weight scale).
	priorOdds := em.PMatch / (1 - em.PMatch)
	fs := &probdedup.FellegiSunter{
		M: em.M, U: em.U,
		AgreeThresholds: []float64{0.6},
		T: probdedup.Thresholds{
			Lambda: math.Log2(0.1/0.9) - math.Log2(priorOdds),
			Mu:     -math.Log2(priorOdds),
		},
	}

	res, err := probdedup.Detect(union, probdedup.Options{
		Compare:    matcher,
		Reduction:  reduction,
		AltModel:   fs,
		Derivation: probdedup.DecisionBased{Conditioned: true},
		Final:      probdedup.Thresholds{Lambda: 0.8, Mu: 1.6},
	})
	if err != nil {
		log.Fatal(err)
	}

	rep := res.Verify(data.Truth, allPairs(union))
	red := res.Reduction(data.Truth)
	fmt.Printf("\nreduction: %s\n", red)
	fmt.Printf("verification (Sec. III-E): %s\n", rep)
	fmt.Printf("FP%%=%.4f FN%%=%.4f\n", rep.FalsePositivePct(), rep.FalseNegativePct())
}

// collectPatterns builds binary agreement patterns for EM from the
// candidate pairs, comparing conflict-resolved (most probable) tuples.
func collectPatterns(u *probdedup.XRelation, red probdedup.ReductionMethod, fs []probdedup.CompareFunc) []probdedup.Pattern {
	byID := map[string]*probdedup.XTuple{}
	for _, x := range u.Tuples {
		byID[x.ID] = x
	}
	var patterns []probdedup.Pattern
	for p := range probdedup.Candidates(red, u) {
		a, b := byID[p.A], byID[p.B]
		va := a.Alts[a.MostProbableAlt()].Values
		vb := b.Alts[b.MostProbableAlt()].Values
		pat := make(probdedup.Pattern, len(fs))
		for i, f := range fs {
			pat[i] = probdedup.AttrSim(f, va[i], vb[i]) > 0.6
		}
		patterns = append(patterns, pat)
	}
	return patterns
}

func allPairs(u *probdedup.XRelation) []probdedup.Pair {
	var out []probdedup.Pair
	for i := 0; i < len(u.Tuples); i++ {
		for j := i + 1; j < len(u.Tuples); j++ {
			out = append(out, probdedup.NewPair(u.Tuples[i].ID, u.Tuples[j].ID))
		}
	}
	return out
}

func rounded(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*1000) / 1000
	}
	return out
}
