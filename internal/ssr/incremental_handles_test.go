package ssr

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"probdedup/internal/keys"
	"probdedup/internal/pdb"
	"probdedup/internal/verify"
)

// checkHandleTable fails unless the table holds exactly the residents:
// each resident's handle maps back to its ID, every other handle is on
// the free list once and holds no ID. It returns how many handles the
// table has ever handed out.
func checkHandleTable[V any](t *testing.T, tab *handleTable[V], residents []*pdb.XTuple) int {
	t.Helper()
	if len(tab.of) != len(residents) {
		t.Fatalf("%d handles held, %d residents", len(tab.of), len(residents))
	}
	for _, x := range residents {
		if h, ok := tab.of[x.ID]; !ok || tab.ids[h] != x.ID {
			t.Fatalf("resident %s: handle %d (held %v) maps back to %q", x.ID, h, ok, tab.ids[h])
		}
	}
	free := map[uint32]bool{}
	for _, h := range tab.free {
		if free[h] || tab.ids[h] != "" {
			t.Fatalf("free handle %d listed twice or still holding %q", h, tab.ids[h])
		}
		free[h] = true
	}
	if len(tab.of)+len(free) != len(tab.ids) || len(tab.vals) != len(tab.ids) {
		t.Fatalf("%d held + %d free handles, table of %d IDs and %d values", len(tab.of), len(free), len(tab.ids), len(tab.vals))
	}
	return len(tab.ids)
}

// checkLedger fails unless the ledger's counts hold exactly the pairs of
// resident handles (the smaller in the high half) that two or more window
// position pairs of the kept sequence cover, at those counts — no count of
// 1 or less, no stale or missing one — and the maintained set is exactly
// the pairs covered at all.
func checkLedger(t *testing.T, idx *snmAltsIndex, maintained verify.PairSet) {
	t.Helper()
	cover := streamCover(seqIDs(&idx.kept.chunkSeq, idx.res.ids), idx.kept.window)
	want := map[uint64]int32{}
	for p, n := range cover {
		if n >= 2 {
			want[handlePair(idx.res.of[p.A], idx.res.of[p.B])] = int32(n)
		}
	}
	for k, n := range idx.ledger.multi {
		hi, lo := uint32(k>>32), uint32(k)
		if n <= 1 || hi >= lo || idx.res.ids[hi] == "" || idx.res.ids[lo] == "" {
			t.Fatalf("ledger count %d for handles (%d, %d), IDs %q and %q", n, hi, lo, idx.res.ids[hi], idx.res.ids[lo])
		}
	}
	if !maps.Equal(idx.ledger.multi, want) {
		t.Fatalf("ledger %v, kept window covers twice or more %v", idx.ledger.multi, want)
	}
	if len(cover) != len(maintained) {
		t.Fatalf("kept window covers %d pairs, %d maintained", len(cover), len(maintained))
	}
	for p := range cover {
		if !maintained[p] {
			t.Fatalf("pair %v covered but not maintained", p)
		}
	}
}

// TestWindowIndexesReuseHandles runs every handle-keeping window index
// through a random schedule of inserts, removals, re-inserts of removed
// tuples and fresh tuples that take freed handles. After every operation
// the maintained set must equal the batch candidates of the residents in
// arrival order, the handle table must hold exactly the residents and
// SNMAlternatives' ledger exactly the kept window's coverage. Some handle
// must have been handed out twice.
func TestWindowIndexesReuseHandles(t *testing.T) {
	def, err := keys.ParseDef("name", []string{"name"})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{
		SNMCertain{Key: def, Window: 3},
		SNMAlternatives{Key: def, Window: 3},
		SNMRanked{Key: def, Window: 3},
		SNMRanked{Key: def, Window: 3, Strategy: MedianKey},
		SNMRanked{Key: def, Window: 3, Strategy: ModeKey},
	} {
		t.Run(m.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(39))
			idx := rechunk(mustIncremental(t, m), equivalenceChunk)
			maintained := verify.PairSet{}
			on := func(d PairDelta) bool {
				applyDelta(t, maintained, d)
				return true
			}
			var residents, removed []*pdb.XTuple // residents in arrival order
			inserts, reinserts, handed := 0, 0, 0
			for op := 0; op < 400; op++ {
				switch {
				case len(residents) == 0 || (len(residents) < 30 && rng.Intn(2) == 0):
					var x *pdb.XTuple
					if len(removed) > 0 && rng.Intn(2) == 0 {
						i := rng.Intn(len(removed))
						x = removed[i]
						removed = slices.Delete(removed, i, i+1)
						reinserts++
					} else {
						var alts []pdb.Alt
						base := rng.Intn(40)
						for range 1 + rng.Intn(3) {
							alts = append(alts, pdb.NewAlt(0.3, fmt.Sprintf("k%03d", base+rng.Intn(3))))
						}
						x = pdb.NewXTuple(fmt.Sprintf("t%03d", op), alts...)
					}
					idx.Insert(x, on)
					residents = append(residents, x)
					inserts++
				default:
					i := rng.Intn(len(residents))
					idx.Remove(residents[i].ID, on)
					removed = append(removed, residents[i])
					residents = slices.Delete(residents, i, i+1)
				}

				rel := pdb.NewXRelation("r", "name")
				for _, x := range residents {
					rel.Append(x)
				}
				if d := diffSets(maintained, Candidates(m, rel)); len(d) != 0 {
					t.Fatalf("op %d: maintained set diverges from batch: %v", op, d[:min(len(d), 8)])
				}
				switch x := idx.(type) {
				case *snmCertainIndex:
					handed = checkHandleTable(t, &x.res, residents)
				case *snmAltsIndex:
					handed = checkHandleTable(t, &x.res, residents)
					checkLedger(t, x, maintained)
				case *snmRankedIndex:
					handed = checkHandleTable(t, &x.res, residents)
				}
			}
			if reinserts == 0 || handed >= inserts {
				t.Fatalf("%d inserts (%d re-inserts) took %d handles: no handle was reused", inserts, reinserts, handed)
			}
		})
	}
}

// hasPointers reports whether a value of type t holds a pointer the
// garbage collector must scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	default: // pointer, string, slice, map, chan, func, interface
		return true
	}
}

// TestPairLedgerCountsArePointerFree keeps the ledger's map of pairs
// covered more than once out of the collector's mark phase: neither its key nor its value may hold a
// pointer, the rule the Detector's pair table keeps for its live pairs.
func TestPairLedgerCountsArePointerFree(t *testing.T) {
	if !hasPointers(reflect.TypeOf(struct{ s string }{})) || !hasPointers(reflect.TypeOf([1]*int{})) || hasPointers(reflect.TypeOf([2]uint64{})) {
		t.Fatal("hasPointers misjudges its own fixtures")
	}
	counts := reflect.TypeOf(newPairLedger().multi)
	if hasPointers(counts.Key()) || hasPointers(counts.Elem()) {
		t.Fatalf("ledger counts %v hold a pointer", counts)
	}
}

// ledgerStep is one operation of TestPairLedgerTransitions: insert a tuple
// of the given keys (one alternative each) or, with no keys, remove it,
// and the cover count its pair must move from and to.
type ledgerStep struct {
	id       string
	keys     []string
	pair     [2]string
	from, to int
	one      bool // the step splices one kept entry
	far      bool // a cover of the pair lies more than 2w−2 positions from another
}

// TestPairLedgerTransitions drives an SNMAlternatives index (window 3)
// through a fixed schedule in which every coverage transition of a pair
// occurs: 0→1, 0→2 in one splice (an entry lands beside two kept entries
// of one tuple), 1→2, 2→3, 3→2, 2→1, 1→0 and 2→0 in one splice, and a
// 1→2 whose second cover lies more than 2w−2 positions from the first,
// between two tuples of several keys each. Each step must move its pair's
// cover count over the kept sequence as stated, a step of a one-key tuple
// must splice exactly one kept entry, and after every step the ledger
// must hold exactly the pairs covered twice or more (checkLedger).
func TestPairLedgerTransitions(t *testing.T) {
	const w = 3
	def, err := keys.ParseDef("name", []string{"name"})
	if err != nil {
		t.Fatal(err)
	}
	steps := []ledgerStep{
		{id: "Y", keys: []string{"b", "e"}},
		{id: "F1", keys: []string{"c"}},
		{id: "F2", keys: []string{"d"}},
		// b(Y) c(F1) d(F2) d5(X) e(Y): X pairs with Y's e only.
		{id: "X", keys: []string{"d5"}, pair: [2]string{"X", "Y"}, from: 0, to: 1, one: true},
		// b(Y) c(F1) d5(X) e(Y): b re-enters X's window, a pair the ledger
		// has no count for and gains one.
		{id: "F2", pair: [2]string{"X", "Y"}, from: 1, to: 2, one: true},
		// b(Y) c(F1) c5(G) d5(X) e(Y): b leaves it again.
		{id: "G", keys: []string{"c5"}, pair: [2]string{"X", "Y"}, from: 2, to: 1, one: true},
		{id: "X", pair: [2]string{"X", "Y"}, from: 1, to: 0, one: true},
		{id: "G"},
		// b(Y) c(F1) d(X3) e(Y): one splice, both of Y's entries.
		{id: "X3", keys: []string{"d"}, pair: [2]string{"X3", "Y"}, from: 0, to: 2, one: true},
		{id: "X3", pair: [2]string{"X3", "Y"}, from: 2, to: 0, one: true},
		{id: "Z", keys: []string{"f"}},
		// b(Y) c(F1) d(X4) e(Y) f(Z) g(X4): three covers.
		{id: "X4", keys: []string{"d", "g"}, pair: [2]string{"X4", "Y"}, from: 0, to: 3},
		// ... e(Y) e5(W) f(Z) g(X4): W pushes g out of e's window.
		{id: "W", keys: []string{"e5"}, pair: [2]string{"X4", "Y"}, from: 3, to: 2, one: true},
		{id: "W", pair: [2]string{"X4", "Y"}, from: 2, to: 3, one: true},
		// a(P) a5(Q) b(Y) ... s(P) t(R1) t5(R2) u(Q): P and Q meet at a
		// only, until R2 leaves and s and u meet at the far end too.
		{id: "P", keys: []string{"a", "s"}},
		{id: "R1", keys: []string{"t"}},
		{id: "R2", keys: []string{"t5"}},
		{id: "Q", keys: []string{"a5", "u"}, pair: [2]string{"P", "Q"}, from: 0, to: 1},
		{id: "R2", pair: [2]string{"P", "Q"}, from: 1, to: 2, one: true, far: true},
		{id: "Q", pair: [2]string{"P", "Q"}, from: 2, to: 0},
	}
	want := []string{"0→1", "0→2", "1→2", "2→3", "3→2", "2→1", "1→0", "2→0"}
	for _, chunk := range []int{2, 3, seqChunkCap} {
		t.Run(fmt.Sprintf("chunk=%d", chunk), func(t *testing.T) {
			idx := rechunk(mustIncremental(t, SNMAlternatives{Key: def, Window: w}), chunk).(*snmAltsIndex)
			maintained := verify.PairSet{}
			on := func(d PairDelta) bool {
				applyDelta(t, maintained, d)
				return true
			}
			seen, far := map[string]bool{}, false
			for i, s := range steps {
				before, n := streamCover(seqIDs(&idx.kept.chunkSeq, idx.res.ids), w), idx.kept.n
				if s.keys == nil {
					idx.Remove(s.id, on)
				} else {
					var alts []pdb.Alt
					for _, k := range s.keys {
						alts = append(alts, pdb.NewAlt(1/float64(len(s.keys)), k))
					}
					idx.Insert(pdb.NewXTuple(s.id, alts...), on)
				}
				kept := seqIDs(&idx.kept.chunkSeq, idx.res.ids)
				after := streamCover(kept, w)
				checkLedger(t, idx, maintained)
				if d := idx.kept.n - n; s.one && d != 1 && d != -1 {
					t.Fatalf("step %d (%s): kept entries %d → %d, want one splice", i, s.id, n, idx.kept.n)
				}
				if s.pair[0] == "" {
					continue
				}
				p := verify.NewPair(s.pair[0], s.pair[1])
				if before[p] != s.from || after[p] != s.to {
					t.Fatalf("step %d (%s) over %v: pair %v covered %d → %d, want %d → %d", i, s.id, kept, p, before[p], after[p], s.from, s.to)
				}
				seen[fmt.Sprintf("%d→%d", s.from, s.to)] = true
				if s.far {
					var at []int // left positions of the pair's covers
					for j := range kept {
						for k := j + 1; k < min(j+w, len(kept)); k++ {
							if verify.NewPair(kept[j], kept[k]) == p {
								at = append(at, j)
							}
						}
					}
					if far = len(at) == 2 && at[1]-at[0] > 2*w-2; !far {
						t.Fatalf("step %d (%s) over %v: covers of %v at %v, want two more than %d apart", i, s.id, kept, p, at, 2*w-2)
					}
				}
			}
			for _, tr := range want {
				if !seen[tr] {
					t.Fatalf("transition %s never occurred", tr)
				}
			}
			if !far {
				t.Fatal("no far second cover occurred")
			}
		})
	}
}

// FuzzPairLedger drives an SNMAlternatives index through Insert, Remove
// and InsertBatch of tuples of one to four keys drawn from a pool of 64,
// at a fuzzed window and chunk capacity, and after every operation checks
// the ledger and the maintained set against the kept sequence's window
// coverage (checkLedger).
func FuzzPairLedger(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(0), []byte{0, 0, 0, 1, 0, 2, 2, 1, 0, 3})
	f.Add(int64(5), uint8(4), uint8(1), []byte{2, 2, 0, 0, 1, 1, 0, 2, 1, 1, 1})
	f.Add(int64(9), uint8(0), uint8(2), []byte{0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2})
	def, err := keys.ParseDef("name", []string{"name"})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, seed int64, window, chunk uint8, ops []byte) {
		rng := rand.New(rand.NewSource(seed))
		idx := rechunk(mustIncremental(t, SNMAlternatives{Key: def, Window: 2 + int(window%8)}), 2+int(chunk%4)).(*snmAltsIndex)
		maintained := verify.PairSet{}
		on := func(d PairDelta) bool {
			applyDelta(t, maintained, d)
			return true
		}
		var residents []string
		id := 0
		fresh := func() *pdb.XTuple {
			var alts []pdb.Alt
			for range 1 + rng.Intn(4) {
				alts = append(alts, pdb.NewAlt(0.25, fmt.Sprintf("k%02d", rng.Intn(64))))
			}
			id++
			residents = append(residents, fmt.Sprintf("t%03d", id))
			return pdb.NewXTuple(residents[len(residents)-1], alts...)
		}
		for _, op := range ops[:min(len(ops), 200)] {
			switch {
			case op%3 == 1 && len(residents) > 0:
				i := rng.Intn(len(residents))
				idx.Remove(residents[i], on)
				residents = slices.Delete(residents, i, i+1)
			case op%3 == 2:
				xs := make([]*pdb.XTuple, rng.Intn(6))
				for i := range xs {
					xs[i] = fresh()
				}
				for _, d := range InsertBatch(idx, xs, nil) {
					applyDelta(t, maintained, d.PairDelta)
				}
			default:
				idx.Insert(fresh(), on)
			}
			checkLedger(t, idx, maintained)
		}
	})
}

// TestPairLedgerManyKeys runs tuples of more than 64 keys through the bulk
// build and through random inserts and removals beside one-key tuples,
// checking the ledger after every operation. The bulk-built one keeps only
// its least probable key, the last of its distinct keys, and a tuple that
// takes a freed handle then lands beside it, so its cover is counted from
// that entry.
func TestPairLedgerManyKeys(t *testing.T) {
	def, err := keys.ParseDef("name", []string{"name"})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(70))
	idx := rechunk(mustIncremental(t, SNMAlternatives{Key: def, Window: 3}), 4).(*snmAltsIndex)
	maintained := verify.PairSet{}
	on := func(d PairDelta) bool {
		applyDelta(t, maintained, d)
		return true
	}
	alts := []pdb.Alt{pdb.NewAlt(0.01, "a00")}
	for k := 1; k <= 64; k++ {
		alts = append(alts, pdb.NewAlt(0.015, fmt.Sprintf("a%02d", k)))
	}
	for _, d := range InsertBatch(idx, []*pdb.XTuple{pdb.NewXTuple("A", pdb.NewAlt(1, "m")), pdb.NewXTuple("T", alts...)}, nil) {
		applyDelta(t, maintained, d.PairDelta)
	}
	checkLedger(t, idx, maintained)
	if h := idx.res.of["T"]; idx.res.vals[h][64] != "a00" {
		t.Fatalf("T's distinct keys %v, want a00 last", idx.res.vals[h])
	}
	idx.Remove("A", on)
	checkLedger(t, idx, maintained)
	idx.Insert(pdb.NewXTuple("X", pdb.NewAlt(1, "zz")), on)
	checkLedger(t, idx, maintained)
	if !maintained[verify.NewPair("T", "X")] || idx.res.of["X"] != 0 {
		t.Fatalf("X holds handle %d, pair (T, X) maintained %v", idx.res.of["X"], maintained[verify.NewPair("T", "X")])
	}
	idx.Remove("T", on)
	idx.Remove("X", on)
	var residents []string
	wide := 0 // inserts of more than 64 keys
	for op := range 120 {
		if len(residents) > 0 && rng.Intn(3) == 0 {
			i := rng.Intn(len(residents))
			idx.Remove(residents[i], on)
			residents = slices.Delete(residents, i, i+1)
		} else {
			var alts []pdb.Alt
			n := 1
			if rng.Intn(4) == 0 {
				n, wide = 65+rng.Intn(8), wide+1
			}
			for _, k := range rng.Perm(200)[:n] {
				alts = append(alts, pdb.NewAlt(1/float64(n), fmt.Sprintf("k%03d", k)))
			}
			residents = append(residents, fmt.Sprintf("t%03d", op))
			idx.Insert(pdb.NewXTuple(residents[len(residents)-1], alts...), on)
		}
		checkLedger(t, idx, maintained)
	}
	if wide == 0 || len(idx.ledger.multi) == 0 {
		t.Fatalf("%d inserts of more than 64 keys, %d pairs covered twice or more", wide, len(idx.ledger.multi))
	}
}
