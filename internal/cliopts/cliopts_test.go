package cliopts

import (
	"flag"
	"math"
	"strings"
	"testing"

	"probdedup/internal/decision"
	"probdedup/internal/keys"
	"probdedup/internal/ssr"
	"probdedup/internal/xmatch"
)

func TestCompareNames(t *testing.T) {
	for _, name := range []string{"hamming", "levenshtein", "damerau", "jaro", "jarowinkler", "dice2", "exact"} {
		fn, err := Compare(name)
		if err != nil || fn == nil {
			t.Errorf("Compare(%q) = (%v, %v)", name, fn, err)
		}
	}
	if _, err := Compare("nope"); err == nil {
		t.Error("Compare accepted an unknown name")
	}
}

func TestDerivationNames(t *testing.T) {
	for _, name := range []string{"similarity", "decision", "eta", "mpw", "max"} {
		d, err := Derivation(name)
		if err != nil || d == nil {
			t.Errorf("Derivation(%q) = (%v, %v)", name, d, err)
		}
	}
	if _, err := Derivation("nope"); err == nil {
		t.Error("Derivation accepted an unknown name")
	}
}

func TestReductionNames(t *testing.T) {
	schema := []string{"name", "job"}
	def, err := keys.ParseDef("name:3", schema)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{
		"snm-certain":           "snm-certain",
		"snm-alternatives":      "snm-alternatives",
		"snm-ranked":            "snm-ranked",
		"snm-ranked-median":     "snm-ranked-median",
		"snm-multipass":         "snm-multipass-top",
		"blocking-certain":      "blocking-certain",
		"blocking-alternatives": "blocking-alternatives",
		"blocking-cluster":      "blocking-cluster",
	} {
		m, err := Reduction(name, def, 3, 8, 2, 1)
		if err != nil {
			t.Errorf("Reduction(%q): %v", name, err)
			continue
		}
		if got := m.Name(); got != want {
			t.Errorf("Reduction(%q).Name() = %q, want %q", name, got, want)
		}
	}
	// The median spelling must actually install the median strategy.
	m, err := Reduction("snm-ranked-median", def, 3, 8, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := m.(ssr.SNMRanked); !ok || r.Strategy != ssr.MedianKey {
		t.Errorf("snm-ranked-median did not set the median strategy: %#v", m)
	}
	if _, err := Reduction("nope", def, 3, 8, 2, 1); err == nil {
		t.Error("Reduction accepted an unknown name")
	}
}

func TestEqualWeights(t *testing.T) {
	w := EqualWeights(4)
	if len(w) != 4 {
		t.Fatalf("len = %d", len(w))
	}
	sum := 0.0
	for _, v := range w {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("weights sum to %v", sum)
	}
}

func TestParseSchema(t *testing.T) {
	schema, err := ParseSchema(" name , job ")
	if err != nil || len(schema) != 2 || schema[0] != "name" || schema[1] != "job" {
		t.Fatalf("ParseSchema = (%v, %v)", schema, err)
	}
	for _, bad := range []string{"", "  ", "name,,job", "name,"} {
		if _, err := ParseSchema(bad); err == nil {
			t.Errorf("ParseSchema(%q) accepted", bad)
		}
	}
}

// TestFlagsOptions: the shared flags parse under the spellings both
// commands document and translate into the options both used to build
// by hand; every resolution failure surfaces as an error.
func TestFlagsOptions(t *testing.T) {
	schema := []string{"name", "job"}
	parse := func(args ...string) *Flags {
		t.Helper()
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		f := Register(fs, "none", map[string]string{"key": "the key"})
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		if got := fs.Lookup("key").Usage; got != "the key" {
			t.Fatalf("-key usage = %q, want the command's wording", got)
		}
		return f
	}

	opts, err := parse().Options(schema)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Reduction != nil || len(opts.Compare) != 2 || opts.Workers != 1 || opts.PreFilter ||
		opts.Final != (decision.Thresholds{Lambda: 0.4, Mu: 0.7}) {
		t.Fatalf("default options = %+v", opts)
	}

	opts, err = parse("-key", "name:3", "-reduce", "snm-certain", "-compare", "levenshtein", "-derive", "eta",
		"-lambda", "0.5", "-mu", "0.9", "-alt-lambda", "0.3", "-alt-mu", "0.8", "-workers", "4", "-prefilter", "-qgram", "3").Options(schema)
	if err != nil {
		t.Fatal(err)
	}
	if red, ok := opts.Reduction.(ssr.SNMCertain); !ok || red.Window != 3 {
		t.Fatalf("reduction = %#v, want snm-certain at the default window", opts.Reduction)
	}
	model := opts.AltModel.(decision.WeightedSumModel)
	if model.T != (decision.Thresholds{Lambda: 0.3, Mu: 0.8}) || len(model.Weights) != 2 ||
		opts.Final != (decision.Thresholds{Lambda: 0.5, Mu: 0.9}) ||
		opts.Workers != 4 || !opts.PreFilter || opts.FilterQ != 3 {
		t.Fatalf("translated options = %+v", opts)
	}
	if _, ok := opts.Derivation.(xmatch.ExpectedEta); !ok {
		t.Fatalf("derivation = %#v", opts.Derivation)
	}

	for name, args := range map[string][]string{
		"compare":        {"-compare", "nope"},
		"derive":         {"-derive", "nope"},
		"missing key":    {"-reduce", "snm-certain"},
		"bad key":        {"-reduce", "snm-certain", "-key", "nope:3"},
		"unknown reduce": {"-reduce", "nope", "-key", "name:3"},
	} {
		if _, err := parse(args...).Options(schema); err == nil {
			t.Errorf("%s: Options accepted %v", name, args)
		}
	}
}

// TestFlagsValidate: the registered defaults are in their domains, each
// shape value just outside its domain is refused with the flag named,
// and the smallest value inside it is accepted.
func TestFlagsValidate(t *testing.T) {
	base := *Register(flag.NewFlagSet("test", flag.ContinueOnError), "none", nil)
	if err := base.Validate(); err != nil {
		t.Fatalf("defaults refused: %v", err)
	}
	for _, tc := range []struct {
		flag    string
		set     func(f *Flags, v int)
		bad, ok int
	}{
		{"-workers", func(f *Flags, v int) { f.Workers = v }, -1, 0},
		{"-qgram", func(f *Flags, v int) { f.QGram = v }, -1, 0},
		{"-window", func(f *Flags, v int) { f.Window = v }, 1, 2},
		{"-worlds", func(f *Flags, v int) { f.Worlds = v }, 0, 1},
		{"-k", func(f *Flags, v int) { f.K = v }, -1, 0},
	} {
		f := base
		tc.set(&f, tc.bad)
		if err := f.Validate(); err == nil || !strings.Contains(err.Error(), tc.flag+" ") {
			t.Errorf("%s %d: err = %v, want a refusal naming %s", tc.flag, tc.bad, err, tc.flag)
		}
		tc.set(&f, tc.ok)
		if err := f.Validate(); err != nil {
			t.Errorf("%s %d refused: %v", tc.flag, tc.ok, err)
		}
	}
}

// TestFlagsValidateQGramNeedsPreFilter: -qgram given without -prefilter
// is refused, with it or left out it is not.
func TestFlagsValidateQGramNeedsPreFilter(t *testing.T) {
	for _, tc := range []struct {
		args []string
		ok   bool
	}{
		{[]string{"-qgram", "3"}, false},
		{[]string{"-qgram", "0"}, false},
		{[]string{"-prefilter", "-qgram", "3"}, true},
		{[]string{"-prefilter"}, true},
		{nil, true},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		f := Register(fs, "none", nil)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		err := f.Validate()
		if tc.ok != (err == nil) || (err != nil && !strings.Contains(err.Error(), "-qgram applies with -prefilter only")) {
			t.Errorf("%v: Validate = %v", tc.args, err)
		}
	}
}
