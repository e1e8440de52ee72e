package ssr

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"probdedup/internal/avm"
	"probdedup/internal/decision"
	"probdedup/internal/keys"
	"probdedup/internal/pdb"
	"probdedup/internal/prepare"
	"probdedup/internal/strsim"
	"probdedup/internal/sym"
	"probdedup/internal/verify"
	"probdedup/internal/xmatch"
)

// referenceBelow is the pre-filter's cascade written from its
// definition, sharing no code with the kernel (no rows, no probe, no
// tiers): per attribute, the maximum over the two tuples' value pairs
// and ⊥ terms of the registered bound at the overlap count, capped at
// 1 and scaled by avm.MaxMass (a distribution's mass may exceed 1 by
// pdb.Eps), gives, folded through the model's SimilarityUpperBound and
// the derivation's SimUpperBound. It reports whether that bound lies below
// Tλ.
func referenceBelow(cfg PreFilterConfig, x1, x2 *pdb.XTuple, count func(a, b *sym.Stats) int) bool {
	hi := make([]float64, len(cfg.Funcs))
	for k, fn := range cfg.Funcs {
		bound, _ := strsim.BoundFor(fn)
		v1, null1 := referenceValues(cfg.Table, x1, k)
		v2, null2 := referenceValues(cfg.Table, x2, k)
		terms := []float64{0}
		if null1 && null2 {
			terms = append(terms, cfg.Nulls.NullNull)
		}
		if (null1 && len(v2) > 0) || (null2 && len(v1) > 0) {
			terms = append(terms, cfg.Nulls.NullValue)
		}
		for _, a := range v1 {
			for _, b := range v2 {
				terms = append(terms, bound.UB(&a, &b, cfg.Table.Q(), count(&a, &b)))
			}
		}
		hi[k] = avm.MaxMass * min(slices.Max(terms), 1)
	}
	cellUB := max(cfg.Model.(decision.UpperBounded).SimilarityUpperBound(hi), 0)
	return cfg.Derive.(xmatch.Bounded).SimUpperBound(cellUB, cfg.Model) < cfg.Lambda
}

// referenceRejects is referenceBelow at the exact gram overlap: the
// outcome the pre-filter must reproduce for every pair.
func referenceRejects(cfg PreFilterConfig, x1, x2 *pdb.XTuple) bool {
	return referenceBelow(cfg, x1, x2, func(a, b *sym.Stats) int {
		return sym.Overlap(cfg.Table.Grams(a.Sym), cfg.Table.Grams(b.Sym))
	})
}

// referenceQuickRejects is referenceBelow at the signature estimate of
// the overlap: the quick tier alone.
func referenceQuickRejects(cfg PreFilterConfig, x1, x2 *pdb.XTuple) bool {
	return referenceBelow(cfg, x1, x2, func(a, b *sym.Stats) int {
		return strsim.QuickOverlap(a, b, cfg.Table.Q())
	})
}

// referenceValues lists the records of every value attribute k takes in
// any alternative of x, and whether any of those distributions carries
// ⊥ mass.
func referenceValues(tab *sym.Table, x *pdb.XTuple, k int) ([]sym.Stats, bool) {
	var vals []sym.Stats
	null := false
	for _, alt := range x.Alts {
		if k >= len(alt.Values) {
			continue
		}
		null = null || alt.Values[k].NullP() > pdb.Eps
		for _, a := range alt.Values[k].Alternatives() {
			vals = append(vals, tab.Stats(a.Value.Sym()))
		}
	}
	return vals, null
}

// productModel is a test-only decision.UpperBounded model other than
// the weighted sum: φ is the product of the comparison values, which
// the product of their upper bounds bounds on the box.
type productModel struct{ T decision.Thresholds }

func (m productModel) Similarity(c avm.Vector) float64 {
	s := 1.0
	for _, v := range c {
		s *= v
	}
	return s
}

func (m productModel) Classify(sim float64) decision.Class { return m.T.Classify(sim) }

func (m productModel) NonMatchBelow() float64 { return m.T.Lambda }

func (m productModel) SimilarityUpperBound(hi []float64) float64 {
	s := 1.0
	for _, v := range hi {
		s *= v
	}
	return s
}

// cascadeFuncs are the comparison functions of strsim's boundedFuncs()
// — every registered bound, closure families with two instances — plus
// one custom function without a bound.
var cascadeFuncs = []strsim.Func{
	strsim.Exact, strsim.NormalizedHamming, strsim.Levenshtein,
	strsim.BandedLevenshtein(1), strsim.BandedLevenshtein(3),
	strsim.DamerauLevenshtein, strsim.Jaro, strsim.JaroWinkler,
	strsim.CommonPrefix, strsim.LongestCommonSubstring,
	strsim.QGramDice(1), strsim.QGramDice(2), strsim.QGramDice(3), strsim.QGramDice(4),
	strsim.QGramJaccard(2), strsim.QGramJaccard(5),
	func(a, b string) float64 { return 0 },
}

// cascadeDerivations are the five derivations.
var cascadeDerivations = []xmatch.Derivation{
	xmatch.SimilarityBased{Conditioned: true},
	xmatch.MaxSim{Conditioned: true},
	xmatch.MostProbableWorld{},
	xmatch.DecisionBased{Conditioned: true},
	xmatch.ExpectedEta{},
}

// cascadeCase is one random configuration and relation: width
// attributes, each compared by a function from cascadeFuncs starting at
// funcOffset, the given derivation and model (weighted sum, or the
// product model), a table of gram size q, ⊥ mass on nullShare of the
// distributions and a maybe-tuple one time in four. Attribute 0 starts
// with one of two block letters, so a BlockingCertain index on its first
// rune forms two blocks.
type cascadeCase struct {
	cfg PreFilterConfig
	xs  []*pdb.XTuple
}

func newCascadeCase(seed int64, width, funcOffset int, derive xmatch.Derivation, product bool, q int, nullShare float64, n int) cascadeCase {
	rng := rand.New(rand.NewSource(seed))
	lambda := 0.3 + 0.6*rng.Float64()
	t := decision.Thresholds{Lambda: lambda, Mu: lambda + (1-lambda)*rng.Float64()}
	var model decision.Model = productModel{T: t}
	if !product {
		ws := make([]float64, width)
		for k := range ws {
			ws[k] = rng.Float64()
		}
		if rng.Intn(3) == 0 {
			ws[rng.Intn(width)] = -0.2 // skipped by the bound: φ ≤ Σ over positive weights
		}
		model = decision.WeightedSumModel{Weights: ws, T: t}
	}
	cfg := PreFilterConfig{
		Table:  sym.NewTable(q),
		Funcs:  make([]strsim.Func, width),
		Model:  model,
		Derive: derive,
		Lambda: lambda,
		Nulls:  avm.NullSemantics{NullNull: float64(rng.Intn(3)) / 2, NullValue: float64(rng.Intn(3)) / 4},
	}
	for k := range cfg.Funcs {
		cfg.Funcs[k] = cascadeFuncs[(funcOffset+k)%len(cascadeFuncs)]
	}
	word := func() string {
		b := make([]rune, rng.Intn(12))
		for i := range b {
			b[i] = []rune("abcdeé")[rng.Intn(6)]
		}
		return string(b)
	}
	// edit changes one rune of w, or appends one to an empty w.
	edit := func(w string) string {
		rs := []rune(w)
		if len(rs) == 0 {
			return "a"
		}
		rs[rng.Intn(len(rs))] = 'x'
		return string(rs)
	}
	dist := func(v string) pdb.Dist {
		if rng.Float64() < nullShare {
			if rng.Intn(2) == 0 {
				return pdb.MustDist(pdb.Alternative{Value: pdb.V(v), P: 0.6})
			}
			return pdb.MustDist(pdb.Alternative{Value: pdb.V(v), P: 0.5}, pdb.Alternative{Value: pdb.V(word()), P: 0.3})
		}
		if rng.Intn(5) == 0 {
			return pdb.MustDist(pdb.Alternative{Value: pdb.V(v), P: 0.7}, pdb.Alternative{Value: pdb.V(word()), P: 0.3})
		}
		return pdb.Certain(v)
	}
	xs := make([]*pdb.XTuple, n)
	rows := make([][]string, n)
	for i := range xs {
		row := make([]string, width)
		for k := range row {
			row[k] = word()
		}
		if i > 0 && rng.Intn(2) == 0 {
			// A near-duplicate of an earlier tuple: most attributes kept,
			// some edited, so pairs reach the exact tier and some of them
			// fall below Tλ only there.
			copy(row, rows[rng.Intn(i)])
			for k := range row {
				if rng.Intn(3) == 0 {
					row[k] = edit(row[k])
				}
			}
		}
		rows[i] = slices.Clone(row)
		row[0] = string("pq"[rng.Intn(2)]) + row[0]
		nAlts := 1 + rng.Intn(2)
		mass := 1.0
		if rng.Intn(4) == 0 {
			mass = 0.8
		}
		alts := make([]pdb.Alt, nAlts)
		for a := range alts {
			ds := make([]pdb.Dist, width)
			for k := range ds {
				v := row[k]
				if a > 0 && rng.Intn(2) == 0 {
					v = edit(v)
				}
				ds[k] = dist(v)
			}
			alts[a] = pdb.NewAltDists(mass/float64(nAlts), ds...)
		}
		x := pdb.NewXTuple(fmt.Sprintf("t%03d", i), alts...)
		prepare.InternXTuple(cfg.Table, x)
		xs[i] = x
	}
	return cascadeCase{cfg: cfg, xs: xs}
}

// cascadeTally counts the reference's outcomes over the pairs checked.
type cascadeTally struct{ pairs, rejects, exactOnly int }

// check asks Admit about every pair of c's relation and a filtering
// BlockingCertain index about every arrival against its block, and
// requires both to decide exactly as referenceRejects, with the
// FilterStats the reference's counts imply: every pair enumerated once,
// every reference reject filtered once.
func (c cascadeCase) check(t testing.TB, tally *cascadeTally) {
	t.Helper()
	perPair, err := NewPreFilter(c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	scanF, err := NewPreFilter(c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	scan := IncrementalFiltered(BlockingCertain{Key: keys.NewDef(keys.Part{Attr: 0, Prefix: 1})}, scanF).(*blockingCertainIndex)
	pairs, rejects := 0, 0
	for j, x := range c.xs {
		perPair.Insert(x)
		var got []PairDelta
		scan.Insert(x, func(d PairDelta) bool { got = append(got, d); return true })
		var want []PairDelta
		for _, y := range c.xs[:j] {
			reject := referenceRejects(c.cfg, y, x)
			pairs++
			if reject {
				rejects++
				if !referenceQuickRejects(c.cfg, y, x) {
					tally.exactOnly++
				}
			}
			p := verify.NewPair(y.ID, x.ID)
			if admit := perPair.Admit(p); admit == reject {
				t.Fatalf("pair %v: Admit = %v, reference rejects = %v", p, admit, reject)
			}
			if !reject && scan.keyOf[y.ID] == scan.keyOf[x.ID] {
				want = append(want, PairDelta{Pair: p})
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("arrival %s: block scan yields %v, reference %v", x.ID, got, want)
		}
	}
	if st := perPair.Stats(); st != (FilterStats{Enumerated: uint64(pairs), Filtered: uint64(rejects)}) {
		t.Fatalf("Admit counters %+v, reference %d pairs, %d rejects", st, pairs, rejects)
	}
	blockPairs, blockRejects := 0, 0
	for i, x := range c.xs {
		for _, y := range c.xs[:i] {
			if scan.keyOf[y.ID] == scan.keyOf[x.ID] {
				blockPairs++
				if referenceRejects(c.cfg, y, x) {
					blockRejects++
				}
			}
		}
	}
	if st := scanF.Stats(); st != (FilterStats{Enumerated: uint64(blockPairs), Filtered: uint64(blockRejects)}) {
		t.Fatalf("block scan counters %+v, reference %d candidates, %d rejects", st, blockPairs, blockRejects)
	}
	tally.pairs += pairs
	tally.rejects += rejects
}

// TestCascadeEqualsReference: Admit and the block scan decide every
// pair exactly as referenceRejects, with the counters it implies, for
// every registered bound and an unregistered function, the five
// derivations, the weighted sum and a second UpperBounded model, a
// schema that fits the stack scratch and one that does not, tables with
// no grams, exact grams and hashed grams, with ⊥ mass and maybe-tuples.
func TestCascadeEqualsReference(t *testing.T) {
	var tally cascadeTally
	seed := int64(0)
	for _, width := range []int{3, stackAttrs + 2} {
		for _, derive := range cascadeDerivations {
			for _, product := range []bool{false, true} {
				for _, q := range []int{0, 2, sym.MaxExactQ + 1} {
					seed++
					// The function offset walks cascadeFuncs, so every
					// function serves some attribute at width 3 too.
					offset := int(seed) * 3
					c := newCascadeCase(seed, width, offset, derive, product, q, 0.25, 24)
					t.Run(fmt.Sprintf("w%d/%s/product=%v/q%d", width, derive.Name(), product, q), func(t *testing.T) {
						c.check(t, &tally)
					})
				}
			}
		}
	}
	t.Logf("%d pairs: %d reference rejects, %d of them at the exact tier only", tally.pairs, tally.rejects, tally.exactOnly)
	if tally.rejects == 0 || tally.rejects == tally.pairs || tally.exactOnly == 0 {
		t.Fatalf("fixture is vacuous: %+v", tally)
	}
}

// FuzzCascadeEqualsReference lets the fuzzer pick the relation (through
// the seed), the functions, the width, the ⊥ share, the derivation, the
// model and the gram size that break kernel ≡ reference.
func FuzzCascadeEqualsReference(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(3), uint8(0), uint8(64))
	f.Add(int64(2), uint8(5), uint8(18), uint8(3), uint8(200))
	f.Add(int64(3), uint8(11), uint8(1), uint8(9), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, offset, width, shape, nulls uint8) {
		w := 1 + int(width)%(stackAttrs+3)
		derive := cascadeDerivations[int(shape)%len(cascadeDerivations)]
		product := shape/8%2 == 1
		q := []int{0, 1, 2, 3, sym.MaxExactQ + 2}[int(shape)/16%5]
		var tally cascadeTally
		newCascadeCase(seed, w, int(offset), derive, product, q, float64(nulls)/255, 12).check(t, &tally)
	})
}
