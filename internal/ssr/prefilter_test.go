package ssr

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

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

// unboundedDerivation implements xmatch.Derivation but not
// xmatch.Bounded — the obstruction NewPreFilter must report.
type unboundedDerivation struct{}

func (unboundedDerivation) Name() string { return "unbounded" }
func (unboundedDerivation) Sim(src *xmatch.PairSource, model decision.Model) float64 {
	return 0
}

// filterFixture builds a PreFilter over two-attribute tuples with
// Levenshtein comparisons, the explicit weighted-sum model, and the
// paper's ⊥ semantics.
func filterFixture(t *testing.T, lambda float64) (*PreFilter, *sym.Table) {
	t.Helper()
	tab := sym.NewTable(2)
	pf, err := NewPreFilter(PreFilterConfig{
		Table:  tab,
		Funcs:  []strsim.Func{strsim.Levenshtein, strsim.Levenshtein},
		Model:  decision.WeightedSumModel{Weights: decision.EqualWeights(2), T: decision.Thresholds{Lambda: lambda, Mu: 0.9}},
		Derive: xmatch.SimilarityBased{Conditioned: true},
		Lambda: lambda,
		Nulls:  avm.PaperNulls,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pf, tab
}

// internedTuple builds and interns a one-alternative tuple.
func internedTuple(tab *sym.Table, id string, values ...string) *pdb.XTuple {
	x := pdb.NewXTuple(id, pdb.NewAlt(1, values...))
	prepare.InternXTuple(tab, x)
	return x
}

func TestNewPreFilterErrors(t *testing.T) {
	tab := sym.NewTable(2)
	base := PreFilterConfig{
		Table:  tab,
		Funcs:  []strsim.Func{strsim.Levenshtein},
		Model:  decision.WeightedSumModel{Weights: decision.EqualWeights(1), T: decision.Thresholds{Lambda: 0.7, Mu: 0.9}},
		Derive: xmatch.SimilarityBased{Conditioned: true},
		Lambda: 0.7,
		Nulls:  avm.PaperNulls,
	}
	cases := map[string]struct {
		mutate func(*PreFilterConfig)
		want   string
	}{
		"nil table": {
			func(c *PreFilterConfig) { c.Table = nil },
			"symbol table",
		},
		"opaque model": {
			func(c *PreFilterConfig) {
				c.Model = decision.SimpleModel{
					Phi: func(v avm.Vector) float64 { return 0 },
					T:   decision.Thresholds{Lambda: 0.7, Mu: 0.9},
				}
			},
			"cannot bound",
		},
		"unboundable derivation": {
			func(c *PreFilterConfig) { c.Derive = unboundedDerivation{} },
			"cannot bound",
		},
		"nulls below zero": {
			func(c *PreFilterConfig) { c.Nulls = avm.NullSemantics{NullNull: -0.1} },
			"[0,1]",
		},
		"nulls above one": {
			func(c *PreFilterConfig) { c.Nulls = avm.NullSemantics{NullNull: 1, NullValue: 1.5} },
			"[0,1]",
		},
	}
	for name, c := range cases {
		cfg := base
		c.mutate(&cfg)
		pf, err := NewPreFilter(cfg)
		if err == nil || pf != nil {
			t.Fatalf("%s: NewPreFilter = %v, %v; want error", name, pf, err)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: error %q does not mention %q", name, err, c.want)
		}
	}
	if _, err := NewPreFilter(base); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestPreFilterInsertRemoveLen(t *testing.T) {
	pf, tab := filterFixture(t, 0.7)
	if pf.Len() != 0 {
		t.Fatalf("fresh filter Len = %d", pf.Len())
	}
	pf.Insert(internedTuple(tab, "a", "alpha", "pilot"))
	pf.Insert(internedTuple(tab, "b", "beta", "nurse"))
	if pf.Len() != 2 {
		t.Fatalf("Len = %d, want 2", pf.Len())
	}
	// Re-inserting an ID replaces its signature, not adds one.
	pf.Insert(internedTuple(tab, "a", "alphonse", "pilot"))
	if pf.Len() != 2 {
		t.Fatalf("Len after re-insert = %d, want 2", pf.Len())
	}
	pf.Remove("a")
	pf.Remove("a") // idempotent
	if pf.Len() != 1 {
		t.Fatalf("Len after remove = %d, want 1", pf.Len())
	}
}

// TestAdmitMissingSignature: pairs with an unknown side are always
// admitted — the filter may only reject what it can bound.
func TestAdmitMissingSignature(t *testing.T) {
	pf, tab := filterFixture(t, 0.99)
	pf.Insert(internedTuple(tab, "known", "aaaaaaaaaa", "bbbbbbbbbb"))
	for _, p := range []verify.Pair{
		{A: "known", B: "ghost"},
		{A: "ghost", B: "known"},
		{A: "ghost", B: "phantom"},
	} {
		if !pf.Admit(p) {
			t.Fatalf("pair %v with missing signature was rejected", p)
		}
	}
	st := pf.Stats()
	if st.Enumerated != 3 || st.Filtered != 0 {
		t.Fatalf("stats = %+v, want 3 enumerated, 0 filtered", st)
	}
}

// TestAdmitFiltersProvableNonMatch: gram-disjoint long values under a
// high Tλ must be rejected, and near-identical values admitted, with
// the counters tracking both outcomes.
func TestAdmitFiltersProvableNonMatch(t *testing.T) {
	pf, tab := filterFixture(t, 0.8)
	pf.Insert(internedTuple(tab, "a", "aaaaaaaaaaaa", "cccccccccccc"))
	pf.Insert(internedTuple(tab, "z", "zzzzzzzzzzzz", "xxxxxxxxxxxx"))
	pf.Insert(internedTuple(tab, "a2", "aaaaaaaaaaab", "cccccccccccc"))
	if pf.Admit(verify.Pair{A: "a", B: "z"}) {
		t.Fatal("disjoint pair admitted under Tλ=0.8")
	}
	if !pf.Admit(verify.Pair{A: "a", B: "a2"}) {
		t.Fatal("near-duplicate pair rejected")
	}
	st := pf.Stats()
	if st.Enumerated != 2 || st.Filtered != 1 {
		t.Fatalf("stats = %+v, want 2 enumerated, 1 filtered", st)
	}
}

// TestAdmitNullMassRaisesBound: ⊥ mass contributes the configured ⊥
// similarities to the attribute bound. With NullValue = 1, a ⊥-heavy
// attribute can no longer prove a non-match that the value bound alone
// would have rejected.
func TestAdmitNullMassRaisesBound(t *testing.T) {
	tab := sym.NewTable(2)
	mkFilter := func(nulls avm.NullSemantics) *PreFilter {
		pf, err := NewPreFilter(PreFilterConfig{
			Table:  tab,
			Funcs:  []strsim.Func{strsim.Levenshtein, strsim.Levenshtein},
			Model:  decision.WeightedSumModel{Weights: decision.EqualWeights(2), T: decision.Thresholds{Lambda: 0.8, Mu: 0.9}},
			Derive: xmatch.SimilarityBased{Conditioned: true},
			Lambda: 0.8,
			Nulls:  nulls,
		})
		if err != nil {
			t.Fatal(err)
		}
		return pf
	}
	// Attribute 0 carries half ⊥ mass on both sides, attribute 1 matches
	// exactly — so the pair's fate rests on what ⊥~value is worth.
	halfNull := func(id, v0, v1 string) *pdb.XTuple {
		x := pdb.NewXTuple(id, pdb.NewAltDists(1,
			pdb.MustDist(pdb.Alternative{Value: pdb.V(v0), P: 0.5}),
			pdb.MustDist(pdb.Alternative{Value: pdb.V(v1), P: 1}),
		))
		prepare.InternXTuple(tab, x)
		return x
	}
	pair := verify.Pair{A: "p", B: "q"}

	strict := mkFilter(avm.NullSemantics{NullNull: 0, NullValue: 0})
	strict.Insert(halfNull("p", "aaaaaaaaaaaa", "same"))
	strict.Insert(halfNull("q", "zzzzzzzzzzzz", "same"))
	if strict.Admit(pair) {
		t.Fatal("with ⊥≈0 semantics the disjoint attribute should reject the pair")
	}

	lax := mkFilter(avm.NullSemantics{NullNull: 1, NullValue: 1})
	lax.Insert(halfNull("p", "aaaaaaaaaaaa", "same"))
	lax.Insert(halfNull("q", "zzzzzzzzzzzz", "same"))
	if !lax.Admit(pair) {
		t.Fatal("with ⊥≈1 semantics the bound cannot prove a non-match")
	}
}

// TestAdmitUnregisteredFuncIsTrivial: an attribute compared by a
// function without a registered bound contributes the trivial bound 1,
// so a single such attribute under equal weights keeps every pair
// above Tλ = 0.5.
func TestAdmitUnregisteredFuncIsTrivial(t *testing.T) {
	tab := sym.NewTable(2)
	custom := func(a, b string) float64 { return 0 }
	pf, err := NewPreFilter(PreFilterConfig{
		Table:  tab,
		Funcs:  []strsim.Func{custom, strsim.Levenshtein},
		Model:  decision.WeightedSumModel{Weights: decision.EqualWeights(2), T: decision.Thresholds{Lambda: 0.5, Mu: 0.9}},
		Derive: xmatch.SimilarityBased{Conditioned: true},
		Lambda: 0.5,
		Nulls:  avm.PaperNulls,
	})
	if err != nil {
		t.Fatal(err)
	}
	pf.Insert(internedTuple(tab, "a", "aaaaaaaaaaaa", "cccccccccccc"))
	pf.Insert(internedTuple(tab, "z", "zzzzzzzzzzzz", "xxxxxxxxxxxx"))
	if !pf.Admit(verify.Pair{A: "a", B: "z"}) {
		t.Fatal("pair rejected although one attribute is unboundable: (1+0)/2 ≥ 0.5")
	}
}

// TestAdmitMaximizesOverAlternatives: the attribute bound is the
// maximum over all alternative value pairs, so one matching
// alternative on each side must keep the pair admitted even when the
// more probable alternatives are disjoint.
func TestAdmitMaximizesOverAlternatives(t *testing.T) {
	pf, tab := filterFixture(t, 0.8)
	twoAlt := func(id, main, alt string) *pdb.XTuple {
		x := pdb.NewXTuple(id,
			pdb.NewAlt(0.7, main, "shared-job"),
			pdb.NewAlt(0.3, alt, "shared-job"),
		)
		prepare.InternXTuple(tab, x)
		return x
	}
	pf.Insert(twoAlt("a", "aaaaaaaaaaaa", "common-value"))
	pf.Insert(twoAlt("z", "zzzzzzzzzzzz", "common-value"))
	if !pf.Admit(verify.Pair{A: "a", B: "z"}) {
		t.Fatal("pair with an exactly matching alternative was rejected")
	}
	// Without the shared alternative the same pair is provably below Tλ.
	pf.Insert(internedTuple(tab, "a1", "aaaaaaaaaaaa", "shared-job"))
	pf.Insert(internedTuple(tab, "z1", "zzzzzzzzzzzz", "shared-job"))
	if pf.Admit(verify.Pair{A: "a1", B: "z1"}) {
		t.Fatal("disjoint-name pair admitted")
	}
}

// hotTuples builds a pre-filter configuration and n interned tuples
// shaped like one hot block of the serve_skew workload — a name of
// 10–14 random letters, a job from a 512-word vocabulary, width−3 more
// attributes drawn from the same vocabulary (a planted near-duplicate
// copies them), and one shared block value last — 30 %
// two-alternative x-tuples whose second alternative is unrelated.
// nullShare of the name distributions additionally carry ⊥ mass. The
// tuples are not summarized yet.
func hotTuples(tb testing.TB, n int, nullShare float64, width int) (PreFilterConfig, []*pdb.XTuple) {
	tb.Helper()
	rng := rand.New(rand.NewSource(16))
	tab := sym.NewTable(2)
	cfg := PreFilterConfig{
		Table:  tab,
		Funcs:  make([]strsim.Func, width),
		Model:  decision.WeightedSumModel{Weights: decision.EqualWeights(width), T: decision.Thresholds{Lambda: 0.75, Mu: 0.9}},
		Derive: xmatch.SimilarityBased{Conditioned: true},
		Lambda: 0.75,
		Nulls:  avm.PaperNulls,
	}
	for k := range cfg.Funcs {
		cfg.Funcs[k] = strsim.Levenshtein
	}
	word := func(min, spread int) string {
		b := make([]byte, min+rng.Intn(spread))
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return string(b)
	}
	name := func() string { return word(10, 5) }
	jobs := make([]string, 512)
	for i := range jobs {
		jobs[i] = word(5, 6)
	}
	var extras []string
	alt := func(p float64, nm string) pdb.Alt {
		d := pdb.Certain(nm)
		if rng.Float64() < nullShare {
			d = pdb.MustDist(pdb.Alternative{Value: pdb.V(nm), P: 0.6})
		}
		ds := []pdb.Dist{d, pdb.Certain(jobs[rng.Intn(len(jobs))])}
		for _, v := range extras {
			ds = append(ds, pdb.Certain(v))
		}
		return pdb.NewAltDists(p, append(ds, pdb.Certain("block-07"))...)
	}
	xs := make([]*pdb.XTuple, n)
	prev := ""
	for i := range xs {
		id := fmt.Sprintf("t%03d", i)
		nm := name()
		if i%7 == 6 {
			nm = "x" + prev[1:] // a planted near-duplicate: one edit
		} else {
			extras = make([]string, width-3)
			for k := range extras {
				extras[k] = jobs[rng.Intn(len(jobs))]
			}
		}
		prev = nm
		x := pdb.NewXTuple(id, alt(1, nm))
		if rng.Float64() < 0.3 {
			p2 := 0.03 + 0.17*rng.Float64()
			x = pdb.NewXTuple(id, alt(1-p2, nm), alt(p2, name()))
		}
		prepare.InternXTuple(tab, x)
		xs[i] = x
	}
	return cfg, xs
}

// hotBlock summarizes three-attribute hotTuples in a filter's per-ID
// map and returns the filter with every pair of the block.
func hotBlock(tb testing.TB, n int, nullShare float64) (*PreFilter, []verify.Pair) {
	tb.Helper()
	cfg, xs := hotTuples(tb, n, nullShare, 3)
	pf, err := NewPreFilter(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	var pairs []verify.Pair
	for j, x := range xs {
		pf.Insert(x)
		for _, y := range xs[:j] {
			pairs = append(pairs, verify.NewPair(y.ID, x.ID))
		}
	}
	return pf, pairs
}

// hotBlockIndex files n+1 hotTuples of the given width into a
// BlockingCertain index that holds the filter — one block, keyed by the
// shared block value — and returns the index, the block, and the row of
// the last arrival, which faces the n others.
func hotBlockIndex(tb testing.TB, n, width int) (*blockingCertainIndex, block, int) {
	tb.Helper()
	cfg, xs := hotTuples(tb, n+1, 0, width)
	pf, err := NewPreFilter(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	idx := IncrementalFiltered(BlockingCertain{Key: keys.NewDef(keys.Part{Attr: width - 1})}, pf).(*blockingCertainIndex)
	for _, x := range xs {
		idx.Restore(x)
	}
	if len(idx.blocks) != 1 {
		tb.Fatalf("%d blocks, want one", len(idx.blocks))
	}
	return idx, idx.blocks["block-07"], n
}

// TestAdmitQuickTierNeverChangesOutcome is the cascade's soundness
// test: on random two-alternative tuples with ⊥ mass, Admit decides
// exactly as the exact-overlap reference does — the quick tier only
// ever rejects what the exact tier rejects — while doing real work (it
// rejects most pairs before any merge).
func TestAdmitQuickTierNeverChangesOutcome(t *testing.T) {
	cfg, xs := hotTuples(t, 96, 0.25, 3)
	pf, err := NewPreFilter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range xs {
		pf.Insert(x)
	}
	pairs, quickRejects, exactRejects := 0, 0, 0
	for j, x := range xs {
		for _, y := range xs[:j] {
			p := verify.NewPair(y.ID, x.ID)
			quick, exact := referenceQuickRejects(cfg, y, x), referenceRejects(cfg, y, x)
			if quick && !exact {
				t.Fatalf("pair %v: quick tier rejects what the exact tier admits", p)
			}
			if got := pf.Admit(p); got == exact {
				t.Fatalf("pair %v: Admit = %v, exact-only evaluation admits = %v", p, got, !exact)
			}
			pairs++
			if quick {
				quickRejects++
			}
			if exact {
				exactRejects++
			}
		}
	}
	st := pf.Stats()
	if int(st.Enumerated) != pairs || int(st.Filtered) != exactRejects {
		t.Fatalf("stats %+v, want %d enumerated, %d filtered", st, pairs, exactRejects)
	}
	t.Logf("%d pairs: %d exact rejects, %d of them at the quick tier", pairs, exactRejects, quickRejects)
	if exactRejects == pairs || quickRejects*2 < exactRejects {
		t.Fatalf("fixture is vacuous: %d pairs, %d exact rejects, %d quick rejects", pairs, exactRejects, quickRejects)
	}
}

// TestAdmitDoesNotAllocate pins the per-pair cost model: no pool, no
// heap scratch, for rejected and admitted pairs alike.
func TestAdmitDoesNotAllocate(t *testing.T) {
	pf, pairs := hotBlock(t, 32, 0.25)
	i := 0
	if avg := testing.AllocsPerRun(len(pairs), func() {
		pf.Admit(pairs[i%len(pairs)])
		i++
	}); avg != 0 {
		t.Fatalf("Admit allocates %v times per call, want 0", avg)
	}
}

// BenchmarkPreFilterAdmit measures the per-pair path where serve_skew
// paid for it before the block scan: every pair of one hot block of
// 192, > 99 % of them provable non-matches, each looked up by ID. One
// iteration is one pair.
func BenchmarkPreFilterAdmit(b *testing.B) {
	pf, pairs := hotBlock(b, 192, 0)
	b.ReportAllocs()
	b.ResetTimer()
	admitted := 0
	for i := 0; i < b.N; i++ {
		if pf.Admit(pairs[i%len(pairs)]) {
			admitted++
		}
	}
	b.ReportMetric(float64(admitted)/float64(b.N), "admitted/pair")
}

// BenchmarkBlockAdmit measures the same work as the block scan does it:
// one arrival against a hot block of 192, in one pass over the block's
// packed rows, at the three attributes of serve_skew and at a width
// past the stack scratch. One iteration is one arrival; ns/candidate is
// the figure to set beside BenchmarkPreFilterAdmit's ns/op. row-B/member
// is the footprint of the block's rows: the bytes their spans and value
// records hold by capacity, per member.
func BenchmarkBlockAdmit(b *testing.B) {
	for _, width := range []int{3, stackAttrs + 2} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			idx, blk, n := hotBlockIndex(b, 192, width)
			b.ReportAllocs()
			b.ResetTimer()
			admitted := 0
			for i := 0; i < b.N; i++ {
				idx.filter.admitRows(&blk.rows, n, func(int) bool { admitted++; return true })
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/candidate")
			b.ReportMetric(float64(admitted)/float64(b.N*n), "admitted/candidate")
			rowBytes := cap(blk.rows.spans)*int(unsafe.Sizeof(span{})) + cap(blk.rows.stats)*int(unsafe.Sizeof(sym.Stats{}))
			b.ReportMetric(float64(rowBytes)/float64(len(blk.ids)), "row-B/member")
		})
	}
}

// TestSymbolPlaneIsPointerFree keeps the symbol records and the
// pre-filter's rows out of the collector's mark phase: sym.Stats is a
// 16-byte record without a pointer, and neither element type of rows
// holds one, so a block's rows are two flat arrays the collector never
// scans.
func TestSymbolPlaneIsPointerFree(t *testing.T) {
	if size := unsafe.Sizeof(sym.Stats{}); size != 16 {
		t.Fatalf("sym.Stats is %d bytes, want 16", size)
	}
	var r rows
	for _, elem := range []reflect.Type{reflect.TypeOf(sym.Stats{}), reflect.TypeOf(r.stats).Elem(), reflect.TypeOf(r.spans).Elem()} {
		if hasPointers(elem) {
			t.Fatalf("%v holds a pointer", elem)
		}
	}
}

// TestExactTierReadsGramsWhileInterning: only the exact tier reads gram
// multisets, and it reads them from the symbol table, which other
// goroutines keep growing. Admit and a block scan whose pairs reach the
// exact tier must decide exactly as a sequential run does while fresh
// values are interned into the same tables (run under -race in CI).
func TestExactTierReadsGramsWhileInterning(t *testing.T) {
	cfg, xs := hotTuples(t, 64, 0.25, 3)
	pf, pairs := hotBlock(t, 64, 0.25)
	idxCfg, idxXs := hotTuples(t, 65, 0, 3)
	idx, blk, n := hotBlockIndex(t, 64, 3)
	admits := func() []bool {
		out := make([]bool, len(pairs))
		for i, p := range pairs {
			out[i] = pf.Admit(p)
		}
		return out
	}
	scans := func() [][]int {
		out := make([][]int, n+1)
		for x := range out {
			idx.filter.admitRows(&blk.rows, x, func(i int) bool { out[x] = append(out[x], i); return true })
		}
		return out
	}
	// hotTuples is deterministic: cfg and xs hold the tuples hotBlock
	// summarized, idxCfg and idxXs those the index holds.
	exactPairs, exactRows := 0, 0
	for x := range xs {
		for i := range x {
			if !referenceQuickRejects(cfg, xs[i], xs[x]) {
				exactPairs++
			}
		}
	}
	for x := range n + 1 {
		for i := range x {
			if !referenceQuickRejects(idxCfg, idxXs[i], idxXs[x]) {
				exactRows++
			}
		}
	}
	if exactPairs == 0 || exactRows == 0 {
		t.Fatalf("fixture is vacuous: %d pairs and %d block candidates reach the exact tier", exactPairs, exactRows)
	}
	wantAdmits, wantScans := admits(), scans()
	symbols := pf.table.Len()

	stop := make(chan struct{})
	var interning, checking sync.WaitGroup
	interning.Add(1)
	go func() {
		defer interning.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			v := fmt.Sprintf("fresh-value-%d", i)
			pf.table.Intern(v)
			idx.filter.table.Intern(v)
		}
	}()
	const rounds = 20
	checking.Add(2)
	go func() {
		defer checking.Done()
		for range rounds {
			if got := admits(); !slices.Equal(got, wantAdmits) {
				t.Error("Admit decided differently while the table grew")
				return
			}
		}
	}()
	go func() {
		defer checking.Done()
		for range rounds {
			if got := scans(); !slices.EqualFunc(got, wantScans, slices.Equal[[]int]) {
				t.Error("the block scan decided differently while the table grew")
				return
			}
		}
	}()
	checking.Wait()
	close(stop)
	interning.Wait()
	if pf.table.Len() == symbols {
		t.Fatal("the interning goroutine added no value")
	}
}
