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
	"probdedup/internal/xmatch"
)

// blockAdmit drives two BlockingCertain indexes through the same
// operations: scan holds a PreFilter and admits each arrival against
// its whole block (IncrementalFiltered), ref is the plain index whose
// adds are asked one by one through perPair.Admit — a second filter
// with the same configuration, the path every other reduction takes.
// After every operation both must have yielded the same deltas in the
// same order, and the two filters must hold the same counters.
type blockAdmit struct {
	t             testing.TB
	rng           *rand.Rand
	tab           *sym.Table
	width         int
	scanF, pairF  *PreFilter
	scan, ref     *blockingCertainIndex
	fresh         int
	removed       []string
	hi            []float64
	batches, rems int
}

func newBlockAdmit(t testing.TB, seed int64, width int) *blockAdmit {
	tab := sym.NewTable(2)
	funcs := []strsim.Func{strsim.Levenshtein, strsim.JaroWinkler, strsim.DamerauLevenshtein, strsim.Exact, strsim.LongestCommonSubstring}
	cfg := PreFilterConfig{
		Table:  tab,
		Funcs:  make([]strsim.Func, width),
		Model:  decision.WeightedSumModel{Weights: decision.EqualWeights(width), T: decision.Thresholds{Lambda: 0.7, Mu: 0.9}},
		Derive: xmatch.SimilarityBased{Conditioned: true},
		Lambda: 0.7,
		Nulls:  avm.PaperNulls,
	}
	for k := range cfg.Funcs {
		cfg.Funcs[k] = funcs[k%len(funcs)]
	}
	scanF, err := NewPreFilter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pairF, err := NewPreFilter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	method := BlockingCertain{Key: keys.NewDef(keys.Part{Attr: 0, Prefix: 1})}
	scan, ok := IncrementalFiltered(method, scanF).(*blockingCertainIndex)
	if !ok {
		t.Fatal("IncrementalFiltered(BlockingCertain) did not take the filter")
	}
	return &blockAdmit{
		t: t, rng: rand.New(rand.NewSource(seed)), tab: tab, width: width,
		scanF: scanF, pairF: pairF, scan: scan, ref: method.incremental(nil),
		hi: make([]float64, width),
	}
}

// word draws a short string over a small alphabet, so that some pairs
// are near duplicates and most are not.
func (h *blockAdmit) word() string {
	b := make([]byte, 3+h.rng.Intn(6))
	for i := range b {
		b[i] = "abcde"[h.rng.Intn(5)]
	}
	return string(b)
}

// dist draws one attribute distribution: certain, one value with ⊥
// mass, or two values with or without ⊥ mass.
func (h *blockAdmit) dist() pdb.Dist {
	v := func(p float64) pdb.Alternative { return pdb.Alternative{Value: pdb.V(h.word()), P: p} }
	switch h.rng.Intn(6) {
	case 0:
		return pdb.MustDist(v(0.6))
	case 1:
		return pdb.MustDist(v(0.5), v(0.5))
	case 2:
		return pdb.MustDist(v(0.4), v(0.3))
	default:
		return pdb.MustDist(v(1))
	}
}

// tuple builds an interned x-tuple of one to three alternatives — a
// maybe-tuple one time in four — whose first attribute starts with the
// block letter.
func (h *blockAdmit) tuple(id, block string) *pdb.XTuple {
	n := 1 + h.rng.Intn(3)
	mass := 1.0
	if h.rng.Intn(4) == 0 {
		mass = 0.8
	}
	alts := make([]pdb.Alt, n)
	for a := range alts {
		ds := make([]pdb.Dist, h.width)
		ds[0] = pdb.Certain(block + h.word())
		for k := 1; k < h.width; k++ {
			ds[k] = h.dist()
		}
		alts[a] = pdb.NewAltDists(mass/float64(n), ds...)
	}
	x := pdb.NewXTuple(id, alts...)
	prepare.InternXTuple(h.tab, x)
	return x
}

// next returns a new tuple: a re-add of a removed ID one time in three,
// else a fresh ID.
func (h *blockAdmit) next(block string) *pdb.XTuple {
	if len(h.removed) > 0 && h.rng.Intn(3) == 0 {
		i := h.rng.Intn(len(h.removed))
		id := h.removed[i]
		h.removed = slices.Delete(h.removed, i, i+1)
		return h.tuple(id, block)
	}
	h.fresh++
	return h.tuple(fmt.Sprintf("t%04d", h.fresh), block)
}

// insert files x on both sides; stopAfter > 0 ends delivery after that
// many adds, so the counters of an early-stopped scan are checked too.
func (h *blockAdmit) insert(x *pdb.XTuple, stopAfter int) {
	h.t.Helper()
	var got, want []PairDelta
	h.scan.Insert(x, func(d PairDelta) bool { got = append(got, d); return stopAfter == 0 || len(got) < stopAfter })
	h.pairF.Insert(x)
	h.ref.Insert(x, func(d PairDelta) bool {
		if d.Dropped || h.pairF.Admit(d.Pair) {
			want = append(want, d)
		}
		return stopAfter == 0 || len(want) < stopAfter
	})
	if !slices.Equal(got, want) {
		h.t.Fatalf("insert %s: block scan yields %v, per-pair Admit %v", x.ID, got, want)
	}
}

func (h *blockAdmit) insertBatch(xs []*pdb.XTuple) {
	h.t.Helper()
	for _, x := range xs {
		h.pairF.Insert(x)
	}
	got := InsertBatch(h.scan, xs, nil)
	want := InsertBatch(h.ref, xs, h.pairF.Admit)
	if !slices.Equal(got, want) {
		h.t.Fatalf("batch of %d: block scan yields %v, per-pair Admit %v", len(xs), got, want)
	}
	h.batches++
}

// remove drops the member at the front, middle or back of one block.
func (h *blockAdmit) remove(pick, where int) {
	h.t.Helper()
	ks := h.blockKeys()
	if len(ks) == 0 {
		return
	}
	k := ks[pick%len(ks)]
	ids := h.ref.blocks[k].ids
	id := ids[[]int{0, len(ids) / 2, len(ids) - 1}[where%3]]
	var got, want []PairDelta
	h.scan.Remove(id, func(d PairDelta) bool { got = append(got, d); return true })
	h.ref.Remove(id, func(d PairDelta) bool { want = append(want, d); return true })
	h.pairF.Remove(id)
	if !slices.Equal(got, want) {
		h.t.Fatalf("remove %s: block index yields %v, plain index %v", id, got, want)
	}
	h.removed = append(h.removed, id)
	h.rems++
	h.checkRows(k)
}

// blockKeys lists the current block keys in order.
func (h *blockAdmit) blockKeys() []string {
	ks := make([]string, 0, len(h.ref.blocks))
	for k := range h.ref.blocks {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

// check compares the two sides' state after every operation: same
// blocks and members, one span per member-attribute, equal counters,
// and no signature stored twice.
func (h *blockAdmit) check() {
	h.t.Helper()
	if h.scanF.Len() != 0 {
		h.t.Fatalf("the block index's filter holds %d per-ID signatures, want none", h.scanF.Len())
	}
	if len(h.scan.blocks) != len(h.ref.blocks) || h.scan.Len() != h.ref.Len() {
		h.t.Fatalf("%d blocks / %d residents, plain index %d / %d", len(h.scan.blocks), h.scan.Len(), len(h.ref.blocks), h.ref.Len())
	}
	for k, blk := range h.scan.blocks {
		if !slices.Equal(blk.ids, h.ref.blocks[k].ids) {
			h.t.Fatalf("block %q: members %v, plain index %v", k, blk.ids, h.ref.blocks[k].ids)
		}
		if len(blk.rows.spans) != h.width*len(blk.ids) || int(blk.rows.spans[len(blk.rows.spans)-1].end) != len(blk.rows.stats) {
			h.t.Fatalf("block %q: %d spans, %d stats for %d members", k, len(blk.rows.spans), len(blk.rows.stats), len(blk.ids))
		}
	}
	if got, want := h.scanF.Stats(), h.pairF.Stats(); got != want {
		h.t.Fatalf("block scan counters %+v, per-pair Admit counters %+v", got, want)
	}
}

// checkRows asks the cascade about every pair of one block twice — on
// the block's packed rows and on the per-ID map's rows — and requires
// the same answer: after the removals' shifts every row still decodes
// to its own tuple's signature.
func (h *blockAdmit) checkRows(k string) {
	h.t.Helper()
	blk := h.scan.blocks[k]
	for j := range blk.ids {
		for i := range j {
			rj, ri := h.pairF.sigs[blk.ids[j]], h.pairF.sigs[blk.ids[i]]
			if got, want := rowRejects(h.scanF, &blk.rows, j, &blk.rows, i, h.hi), rowRejects(h.pairF, &rj, 0, &ri, 0, h.hi); got != want {
				h.t.Fatalf("block %q rows %d,%d: packed rows reject=%v, per-ID rows reject=%v", k, i, j, got, want)
			}
		}
	}
}

// rowRejects runs the kernel on row i of a, as the probe, against row j
// of b.
func rowRejects(f *PreFilter, a *rows, i int, b *rows, j int, hi []float64) bool {
	p, member := f.probe(a, i), f.probe(b, j)
	return f.rejects(&p, member.spans, b.stats, member.base, hi)
}

// run applies one operation per byte: inserts into one of three blocks
// (some stopped after their first add), batches of two to five tuples
// (most into one block), and removals.
func (h *blockAdmit) run(ops []byte) {
	h.t.Helper()
	for i, b := range ops {
		arg := int(b >> 2)
		switch b % 4 {
		case 0, 1:
			h.insert(h.next(string(rune('a'+arg%3))), arg/3%4/3) // one insert in four stops early
		case 2:
			h.remove(arg, i)
		case 3:
			xs := make([]*pdb.XTuple, 2+arg%4)
			for j := range xs {
				block := "a"
				if j == len(xs)-1 {
					block = string(rune('a' + arg%3))
				}
				xs[j] = h.next(block)
			}
			h.insertBatch(xs)
		}
		h.check()
	}
	for _, k := range h.blockKeys() {
		h.checkRows(k)
	}
}

// TestBlockAdmitEquivalesPerPairAdmit is the property behind the block
// scan: on random relations with multi-alternative values, ⊥ mass and
// maybe-tuples, at a schema width that fits the stack scratch and one
// that does not, through inserts, batches, removals from the front,
// middle and back of a block and re-adds of removed IDs, admitting an
// arrival against its block in one scan over packed rows yields exactly
// the adds that one Admit per pair keeps, in the same order, with the
// same counters.
func TestBlockAdmitEquivalesPerPairAdmit(t *testing.T) {
	for _, width := range []int{3, stackAttrs + 2} {
		for seed := int64(1); seed <= 4; seed++ {
			h := newBlockAdmit(t, seed, width)
			ops := make([]byte, 100)
			h.rng.Read(ops)
			h.run(ops)
			st := h.scanF.Stats()
			if st.Filtered == 0 || st.Filtered == st.Enumerated || h.batches == 0 || h.rems == 0 {
				t.Fatalf("width %d seed %d is vacuous: %+v, %d batches, %d removals", width, seed, st, h.batches, h.rems)
			}
		}
	}
}

// FuzzBlockAdmit lets the fuzzer pick the operation sequence (and the
// random relation, through the seed) that breaks block-scan ≡ per-pair
// admission.
func FuzzBlockAdmit(f *testing.F) {
	f.Add(int64(1), []byte{0, 4, 8, 1, 3, 2, 6, 10, 7, 0})
	f.Add(int64(2), []byte{3, 7, 11, 15, 2, 2, 2, 2, 0, 0})
	f.Add(int64(3), []byte{0, 0, 0, 2, 6, 10, 0, 0, 3, 2, 6})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		width := 3
		if seed%2 == 0 {
			width = stackAttrs + 1
		}
		newBlockAdmit(t, seed, width).run(ops)
	})
}

// TestBlockScanDoesNotAllocate pins the cost model of the scan: a
// rejected candidate costs no allocation (no pair, no lock, no lookup).
// A schema wider than the stack scratch pays one allocation per scan,
// the bound vector, and still none per candidate.
func TestBlockScanDoesNotAllocate(t *testing.T) {
	for _, tc := range []struct{ width, allocs int }{{3, 0}, {stackAttrs + 2, 1}} {
		t.Run(fmt.Sprintf("width=%d", tc.width), func(t *testing.T) {
			idx, blk, n := hotBlockIndex(t, 62, tc.width) // the arrival is a planted near-duplicate
			admitted := 0
			scan := func() { idx.filter.admitRows(&blk.rows, n, func(int) bool { admitted++; return true }) }
			scan()
			if admitted == 0 || admitted == n {
				t.Fatalf("fixture is vacuous: %d of %d candidates admitted", admitted, n)
			}
			if avg := testing.AllocsPerRun(20, scan); avg > float64(tc.allocs) {
				t.Fatalf("a scan over %d candidates allocates %v times, want at most %d", n, avg, tc.allocs)
			}
		})
	}
}

// TestIncrementalFilteredTakesBlockingCertainOnly: the filter goes to a
// BlockingCertain index only; every other method, and a nil filter,
// leave the caller to build IncrementalOf and ask per pair. A zero-width
// schema still files and removes members.
func TestIncrementalFilteredTakesBlockingCertainOnly(t *testing.T) {
	pf, _ := filterFixture(t, 0.7)
	for _, m := range []Method{nil, CrossProduct{}, BlockingAlternatives{}, SNMCertain{Window: 3}, NewFilter(BlockingCertain{}, Pruning{})} {
		if idx := IncrementalFiltered(m, pf); idx != nil {
			t.Fatalf("%T took the filter", m)
		}
	}
	if IncrementalFiltered(BlockingCertain{}, nil) != nil {
		t.Fatal("an index was built around a nil filter")
	}

	empty, err := NewPreFilter(PreFilterConfig{Table: sym.NewTable(2), Model: decision.WeightedSumModel{}, Derive: xmatch.SimilarityBased{}})
	if err != nil {
		t.Fatal(err)
	}
	idx := IncrementalFiltered(BlockingCertain{}, empty)
	for _, id := range []string{"a", "b", "c"} {
		idx.Insert(pdb.NewXTuple(id, pdb.NewAlt(1)), func(PairDelta) bool { return true })
	}
	drops := 0
	idx.Remove("b", func(PairDelta) bool { drops++; return true })
	if idx.Len() != 2 || drops != 2 {
		t.Fatalf("zero-width schema: %d residents, %d drops, want 2 and 2", idx.Len(), drops)
	}
}
