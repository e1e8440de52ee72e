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

// checkLedger fails unless the ledger counts, per pair of resident
// handles (the smaller in the high half), exactly the window position
// pairs of the kept sequence covering it — no zero, stale or missing
// count — and so holds one count per maintained pair.
func checkLedger(t *testing.T, idx *snmAltsIndex, maintained verify.PairSet) {
	t.Helper()
	want := map[uint64]int32{}
	for p, n := range streamCover(seqIDs(&idx.kept.chunkSeq, idx.res.ids), idx.kept.window) {
		want[handlePair(idx.res.of[p.A], idx.res.of[p.B])] = int32(n)
	}
	for k, n := range idx.ledger.counts {
		hi, lo := uint32(k>>32), uint32(k)
		if n <= 0 || hi >= lo || idx.res.ids[hi] == "" || idx.res.ids[lo] == "" {
			t.Fatalf("ledger count %d for handles (%d, %d), IDs %q and %q", n, hi, lo, idx.res.ids[hi], idx.res.ids[lo])
		}
	}
	if !maps.Equal(idx.ledger.counts, want) {
		t.Fatalf("ledger %v, kept window covers %v", idx.ledger.counts, want)
	}
	if len(idx.ledger.counts) != len(maintained) {
		t.Fatalf("ledger counts %d pairs, %d maintained", len(idx.ledger.counts), len(maintained))
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

// TestPairLedgerCountsArePointerFree keeps the ledger's map out of the
// collector's mark phase: neither its key nor its value may hold a
// pointer, the rule the Detector's pair table keeps for its live pairs.
func TestPairLedgerCountsArePointerFree(t *testing.T) {
	if !hasPointers(reflect.TypeOf(struct{ s string }{})) || !hasPointers(reflect.TypeOf([1]*int{})) || hasPointers(reflect.TypeOf([2]uint64{})) {
		t.Fatal("hasPointers misjudges its own fixtures")
	}
	counts := reflect.TypeOf(newPairLedger().counts)
	if hasPointers(counts.Key()) || hasPointers(counts.Elem()) {
		t.Fatalf("ledger counts %v hold a pointer", counts)
	}
}
