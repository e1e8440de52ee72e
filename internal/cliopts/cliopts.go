// Package cliopts holds the shared flag vocabulary of the pdedup and
// pdedupd commands — the detection flags themselves, their translation
// into engine options, comparison functions, derivation functions and
// reduction methods by name, schema parsing, and the equal-weight
// decision model — so both binaries accept the same spellings and an
// option added for one is automatically available to the other.
package cliopts

import (
	"errors"
	"flag"
	"fmt"
	"strings"

	"probdedup/internal/core"
	"probdedup/internal/decision"
	"probdedup/internal/keys"
	"probdedup/internal/ssr"
	"probdedup/internal/strsim"
	"probdedup/internal/xmatch"
)

// Flags holds the parsed detection flags both commands accept. Window,
// Worlds, K and Seed are the reduction shape parameters: Register sets
// their defaults and pdedup binds flags of its own to them.
type Flags struct {
	Compare, Key, Reduce, Derive string
	Lambda, Mu, AltLambda, AltMu float64
	Workers, QGram               int
	PreFilter                    bool
	Window, Worlds, K            int
	Seed                         int64

	fs *flag.FlagSet // the set Register declared the flags on
}

// Register declares the shared detection flags on fs. reduceDefault is
// the default of -reduce; usage words the flags whose help differs per
// command (-key, -reduce, -workers, -prefilter, -qgram).
func Register(fs *flag.FlagSet, reduceDefault string, usage map[string]string) *Flags {
	f := &Flags{Window: 3, Worlds: 8, Seed: 1, fs: fs}
	fs.StringVar(&f.Compare, "compare", "hamming", "comparison function: hamming, levenshtein, damerau, jaro, jarowinkler, dice2, exact")
	fs.StringVar(&f.Key, "key", "", usage["key"])
	fs.StringVar(&f.Reduce, "reduce", reduceDefault, usage["reduce"])
	fs.StringVar(&f.Derive, "derive", "similarity", "derivation: similarity, decision, eta, mpw, max")
	fs.Float64Var(&f.Lambda, "lambda", 0.4, "threshold Tλ (below: non-match)")
	fs.Float64Var(&f.Mu, "mu", 0.7, "threshold Tμ (above: match)")
	fs.Float64Var(&f.AltLambda, "alt-lambda", 0.4, "per-alternative Tλ")
	fs.Float64Var(&f.AltMu, "alt-mu", 0.7, "per-alternative Tμ")
	fs.IntVar(&f.Workers, "workers", 1, usage["workers"])
	fs.BoolVar(&f.PreFilter, "prefilter", false, usage["prefilter"])
	fs.IntVar(&f.QGram, "qgram", 0, usage["qgram"])
	return f
}

// Validate refuses shape values outside their domain, which the
// engines would otherwise clamp or read as "compare nothing" without a
// word, and -qgram without -prefilter: it shapes the pre-filter's gram
// statistics only, so it would be ignored. Both commands exit 2 on its
// error.
func (f *Flags) Validate() error {
	switch {
	case f.Workers < 0:
		return errors.New("-workers must be >= 0 (0 and 1 verify sequentially)")
	case f.QGram < 0:
		return errors.New("-qgram must be >= 0 (0 selects the default gram size 2)")
	case !f.PreFilter && f.set("qgram"):
		return errors.New("-qgram applies with -prefilter only")
	case f.Window < 2:
		return errors.New("-window must be >= 2")
	case f.Worlds < 1:
		return errors.New("-worlds must be >= 1")
	case f.K < 0:
		return errors.New("-k must be >= 0 (0 selects the residents/8 heuristic)")
	}
	return nil
}

// set reports whether the command line gave the named flag.
func (f *Flags) set(name string) bool {
	given := false
	if f.fs != nil {
		f.fs.Visit(func(fl *flag.Flag) { given = given || fl.Name == name })
	}
	return given
}

// Options translates the parsed flags into engine options over schema:
// one comparison function for every attribute, the equal-weight
// weighted-sum model (which exposes its weights, so the -prefilter
// bound machinery can box-bound it), and the named derivation and
// reduction. -reduce none leaves Reduction nil, the cross product.
func (f *Flags) Options(schema []string) (core.Options, error) {
	cmp, err := Compare(f.Compare)
	if err != nil {
		return core.Options{}, err
	}
	compare := make([]strsim.Func, len(schema))
	for i := range compare {
		compare[i] = cmp
	}
	opts := core.Options{
		Compare: compare,
		AltModel: decision.WeightedSumModel{
			Weights: EqualWeights(len(schema)),
			T:       decision.Thresholds{Lambda: f.AltLambda, Mu: f.AltMu},
		},
		Final:     decision.Thresholds{Lambda: f.Lambda, Mu: f.Mu},
		Workers:   f.Workers,
		PreFilter: f.PreFilter,
		FilterQ:   f.QGram,
	}
	if opts.Derivation, err = Derivation(f.Derive); err != nil {
		return core.Options{}, err
	}
	if f.Reduce == "none" {
		return opts, nil
	}
	if f.Key == "" {
		return core.Options{}, fmt.Errorf("reduction %q needs -key", f.Reduce)
	}
	def, err := keys.ParseDef(f.Key, schema)
	if err != nil {
		return core.Options{}, err
	}
	opts.Reduction, err = Reduction(f.Reduce, def, f.Window, f.Worlds, f.K, f.Seed)
	return opts, err
}

// Compare resolves a comparison-function name.
func Compare(name string) (strsim.Func, error) {
	switch name {
	case "hamming":
		return strsim.NormalizedHamming, nil
	case "levenshtein":
		return strsim.Levenshtein, nil
	case "damerau":
		return strsim.DamerauLevenshtein, nil
	case "jaro":
		return strsim.Jaro, nil
	case "jarowinkler":
		return strsim.JaroWinkler, nil
	case "dice2":
		return strsim.QGramDice(2), nil
	case "exact":
		return strsim.Exact, nil
	}
	return nil, fmt.Errorf("unknown comparison function %q", name)
}

// Derivation resolves a derivation-function name.
func Derivation(name string) (xmatch.Derivation, error) {
	switch name {
	case "similarity":
		return xmatch.SimilarityBased{Conditioned: true}, nil
	case "decision":
		return xmatch.DecisionBased{Conditioned: true}, nil
	case "eta":
		return xmatch.ExpectedEta{Conditioned: true}, nil
	case "mpw":
		return xmatch.MostProbableWorld{Conditioned: true}, nil
	case "max":
		return xmatch.MaxSim{Conditioned: true}, nil
	}
	return nil, fmt.Errorf("unknown derivation %q", name)
}

// Reduction resolves a reduction-method name against a parsed key
// definition and the method-specific shape parameters.
func Reduction(name string, def keys.Def, window, kWorlds, kClusters int, seed int64) (ssr.Method, error) {
	switch name {
	case "snm-certain":
		return ssr.SNMCertain{Key: def, Window: window}, nil
	case "snm-alternatives":
		return ssr.SNMAlternatives{Key: def, Window: window}, nil
	case "snm-ranked":
		return ssr.SNMRanked{Key: def, Window: window}, nil
	case "snm-ranked-median":
		return ssr.SNMRanked{Key: def, Window: window, Strategy: ssr.MedianKey}, nil
	case "snm-multipass":
		return ssr.SNMMultiPass{Key: def, Window: window, Select: ssr.TopWorlds, K: kWorlds}, nil
	case "blocking-certain":
		return ssr.BlockingCertain{Key: def}, nil
	case "blocking-alternatives":
		return ssr.BlockingAlternatives{Key: def}, nil
	case "blocking-cluster":
		return ssr.BlockingCluster{Key: def, K: kClusters, Seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown reduction %q", name)
}

// EqualWeights is the default per-attribute weight vector of the
// weighted-sum decision model: every attribute contributes equally.
func EqualWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(n)
	}
	return w
}

// ParseSchema splits a comma-separated attribute list, rejecting empty
// names ("name,job" → ["name" "job"]).
func ParseSchema(spec string) ([]string, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("empty schema")
	}
	schema := strings.Split(spec, ",")
	for i := range schema {
		schema[i] = strings.TrimSpace(schema[i])
		if schema[i] == "" {
			return nil, fmt.Errorf("schema %q has an empty attribute name", spec)
		}
	}
	return schema, nil
}
