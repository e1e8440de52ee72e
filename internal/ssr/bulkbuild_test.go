package ssr

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"probdedup/internal/keys"
	"probdedup/internal/pdb"
	"probdedup/internal/verify"
)

// bulkTuple draws a one-attribute tuple of one to three alternatives.
// Most keys come from a pool of four, so key runs are long and ties
// frequent; the rest are the tuple's own, which sort side by side, so
// one tuple's entries are often adjacent (SNMAlternatives omits all but
// the first of them).
func bulkTuple(rng *rand.Rand, id int) *pdb.XTuple {
	var alts []pdb.Alt
	for j := range 1 + rng.Intn(3) {
		v := fmt.Sprintf("k%d", rng.Intn(4))
		if rng.Intn(3) == 0 {
			v = fmt.Sprintf("o%03d.%d", id, j)
		}
		alts = append(alts, pdb.NewAlt(0.3, v))
	}
	return pdb.NewXTuple(fmt.Sprintf("t%03d", id), alts...)
}

// bulkSet renders one operation's deltas as pair → dropped, failing on a
// pair delivered twice.
func bulkSet(t *testing.T, ds []PairDelta) map[verify.Pair]bool {
	t.Helper()
	out := make(map[verify.Pair]bool, len(ds))
	for _, d := range ds {
		if _, dup := out[d.Pair]; dup {
			t.Fatalf("pair %v delivered twice in one operation", d.Pair)
		}
		out[d.Pair] = d.Dropped
	}
	return out
}

// bulkRun drives a bulk-built index and a reference built one Insert at
// a time through the same operations: each must yield the same delta set
// (the reference's netted by brute force), both the same Len, and the
// bulk-built index's maintained set the batch candidates of the residents
// in arrival order.
type bulkRun struct {
	t         *testing.T
	m         Method
	idx, ref  IncrementalIndex
	residents []*pdb.XTuple // arrival order
	held      verify.PairSet
}

// refNet nets the reference's deltas over ops: per pair, an odd count
// survives as its first delta's kind.
func (r *bulkRun) refNet(ops func(yield func(PairDelta) bool)) map[verify.Pair]bool {
	first, odd := map[verify.Pair]bool{}, map[verify.Pair]bool{}
	ops(func(d PairDelta) bool {
		if _, ok := first[d.Pair]; !ok {
			first[d.Pair] = d.Dropped
		}
		odd[d.Pair] = !odd[d.Pair]
		return true
	})
	out := map[verify.Pair]bool{}
	for p, o := range odd {
		if o {
			out[p] = first[p]
		}
	}
	return out
}

// check compares one operation's deltas with the reference's and folds
// them into the maintained set.
func (r *bulkRun) check(op string, got []PairDelta, want map[verify.Pair]bool) {
	r.t.Helper()
	if g := bulkSet(r.t, got); !maps.Equal(g, want) {
		r.t.Fatalf("%s: deltas %v, one Insert at a time %v", op, g, want)
	}
	for _, d := range got {
		applyDelta(r.t, r.held, d)
	}
	if r.idx.Len() != len(r.residents) || r.ref.Len() != len(r.residents) {
		r.t.Fatalf("%s: Len %d and %d, want %d", op, r.idx.Len(), r.ref.Len(), len(r.residents))
	}
	xr := &pdb.XRelation{Schema: []string{"name"}, Tuples: r.residents}
	if d := diffSets(r.held, Candidates(r.m, xr)); len(d) != 0 {
		r.t.Fatalf("%s: maintained set diverges from the batch candidates: %v", op, d[:min(len(d), 8)])
	}
	if alts, ok := r.idx.(*snmAltsIndex); ok {
		checkLedger(r.t, alts, r.held)
	}
}

// batch files xs with one InsertBatch. On an empty index that is the bulk
// build: its adds come in the batch stream's order, each attributed to
// the later batch position of its two tuples, and every chunk of its
// sequences holds 1..cap entries.
func (r *bulkRun) batch(xs []*pdb.XTuple) {
	r.t.Helper()
	empty := r.idx.Len() == 0
	got := InsertBatch(r.idx, xs, nil)
	want := r.refNet(func(yield func(PairDelta) bool) {
		for _, x := range xs {
			r.ref.Insert(x, yield)
		}
	})
	r.residents = append(r.residents, xs...)
	at := map[string]int{}
	for i, x := range xs {
		at[x.ID] = i
	}
	pds := make([]PairDelta, len(got))
	for i, d := range got {
		pds[i] = d.PairDelta
		if d.Source < 0 || d.Source >= len(xs) {
			r.t.Fatalf("batch of %d: delta %v attributed to position %d", len(xs), d.Pair, d.Source)
		}
		if empty && d.Source != max(at[d.Pair.A], at[d.Pair.B]) {
			r.t.Fatalf("bulk build: pair %v attributed to position %d, want the later of %d and %d",
				d.Pair, d.Source, at[d.Pair.A], at[d.Pair.B])
		}
	}
	if empty {
		var order []PairDelta
		r.m.EnumeratePairs(&pdb.XRelation{Schema: []string{"name"}, Tuples: xs}, func(p verify.Pair) bool {
			order = append(order, PairDelta{Pair: p})
			return true
		})
		if !slices.Equal(pds, order) {
			r.t.Fatalf("bulk build of %d: adds %v, batch stream order %v", len(xs), pds, order)
		}
		switch x := r.idx.(type) {
		case *snmAltsIndex:
			checkChunks(r.t, &x.entries)
			checkChunks(r.t, &x.kept.chunkSeq)
		case *snmCertainIndex:
			checkChunks(r.t, &x.seq.chunkSeq)
		}
	}
	r.check(fmt.Sprintf("batch of %d", len(xs)), pds, want)
}

func (r *bulkRun) insert(x *pdb.XTuple) {
	r.t.Helper()
	var got []PairDelta
	r.idx.Insert(x, func(d PairDelta) bool { got = append(got, d); return true })
	want := r.refNet(func(yield func(PairDelta) bool) { r.ref.Insert(x, yield) })
	r.residents = append(r.residents, x)
	r.check("insert "+x.ID, got, want)
}

func (r *bulkRun) remove(id string) {
	r.t.Helper()
	var got []PairDelta
	r.idx.Remove(id, func(d PairDelta) bool { got = append(got, d); return true })
	want := r.refNet(func(yield func(PairDelta) bool) { r.ref.Remove(id, yield) })
	r.residents = slices.DeleteFunc(r.residents, func(x *pdb.XTuple) bool { return x.ID == id })
	r.check("remove "+id, got, want)
}

// checkBulkBuild bulk-builds an index of m over n random tuples and drives
// it and a one-Insert-at-a-time reference through a random tail of
// Insert, Remove (of residents and of unknown IDs) and InsertBatch; now
// and then the tail empties the index, so the next batch is a bulk build
// again, over handles taken from the free list, with IDs re-inserted.
func checkBulkBuild(t *testing.T, m Method, chunk int, seed int64, n, tail int) {
	rng := rand.New(rand.NewSource(seed))
	r := &bulkRun{t: t, m: m, held: verify.PairSet{},
		idx: rechunk(mustIncremental(t, m), chunk), ref: rechunk(mustIncremental(t, m), chunk)}
	if _, ok := r.idx.(bulkBuild); !ok {
		t.Fatalf("%s has no bulk build", m.Name())
	}
	id := 0
	fresh := func(k int) []*pdb.XTuple {
		xs := make([]*pdb.XTuple, k)
		for i := range xs {
			xs[i], id = bulkTuple(rng, id), id+1
		}
		return xs
	}
	var gone []*pdb.XTuple // removed, to be re-inserted
	r.batch(fresh(n))
	for range tail {
		switch op := rng.Intn(20); {
		case op < 6:
			r.insert(fresh(1)[0])
		case op < 12 && len(r.residents) > 0:
			x := r.residents[rng.Intn(len(r.residents))]
			gone = append(gone, x)
			r.remove(x.ID)
		case op < 13:
			r.remove("absent")
		case op < 19:
			r.batch(fresh(rng.Intn(5)))
		default:
			for len(r.residents) > 0 {
				x := r.residents[len(r.residents)-1]
				gone = append(gone, x)
				r.remove(x.ID)
			}
			k := rng.Intn(len(gone) + 1)
			r.batch(append(fresh(rng.Intn(n+1)), gone[:k]...))
			gone = slices.Delete(gone, 0, k)
		}
	}
}

// bulkMethods returns SNMAlternatives and SNMCertain over the fixture's
// one attribute.
func bulkMethods(t testing.TB, window int) []Method {
	def, err := keys.ParseDef("name", []string{"name"})
	if err != nil {
		t.Fatal(err)
	}
	return []Method{SNMAlternatives{Key: def, Window: window}, SNMCertain{Key: def, Window: window}}
}

// TestBulkBuildEquivalesInserts: an empty window index filed by one
// InsertBatch (the bulk build) is the index one Insert at a time builds —
// the same adds, in the batch stream's order, and the same deltas for
// every later operation — at windows 2, 3, 6 and one larger than the
// batch, and at the sequence tests' tiny chunk capacities.
func TestBulkBuildEquivalesInserts(t *testing.T) {
	const n = 40
	for _, window := range []int{2, 3, 6, n + 1} {
		for _, m := range bulkMethods(t, window) {
			for _, chunk := range testChunks {
				t.Run(fmt.Sprintf("%s/w=%d/chunk=%d", m.Name(), window, chunk), func(t *testing.T) {
					checkBulkBuild(t, m, chunk, int64(window*10+chunk), n, 60)
				})
			}
		}
	}
}

// FuzzBulkBuild runs checkBulkBuild's equivalence on fuzzed seeds, sizes,
// windows and chunk capacities.
func FuzzBulkBuild(f *testing.F) {
	f.Add(int64(1), true, uint8(2), uint8(0), uint8(12), uint8(20))
	f.Add(int64(7), false, uint8(5), uint8(1), uint8(30), uint8(40))
	f.Add(int64(3), true, uint8(40), uint8(2), uint8(9), uint8(30))
	f.Fuzz(func(t *testing.T, seed int64, alts bool, window, chunk, n, tail uint8) {
		ms := bulkMethods(t, 2+int(window%48))
		m := ms[1]
		if alts {
			m = ms[0]
		}
		checkBulkBuild(t, m, 2+int(chunk%4), seed, int(n%64), int(tail%64))
	})
}
