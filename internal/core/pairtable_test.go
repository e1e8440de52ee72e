package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"probdedup/internal/decision"
	"probdedup/internal/keys"
	"probdedup/internal/pdb"
	"probdedup/internal/ssr"
	"probdedup/internal/verify"
)

// tableStep is one operation on a pairTable: "admit" or "release" a
// resident, "put" or "remove" the live pair (a, b).
type tableStep struct {
	op   string
	a, b string
	c    decision.Class
}

// tableModel is what a pairTable must hold: the residents and the live
// pairs with their classes.
type tableModel struct {
	residents map[string]bool
	pairs     map[verify.Pair]decision.Class
	// seen holds every ID ever admitted, so lookups of removed IDs are
	// checked too.
	seen map[string]bool
}

// apply runs one step on the table and the model alike. release pins
// the resident and retracts its pairs through its partner list first,
// as Detector.Remove does, checking the table while it is pinned.
func (m *tableModel) apply(t *testing.T, tab *pairTable, st tableStep) {
	t.Helper()
	switch st.op {
	case "admit":
		tab.admit(pdb.NewXTuple(st.a, pdb.NewAlt(1, st.a)))
		m.residents[st.a] = true
		m.seen[st.a] = true
	case "release":
		s := tab.slotOf[st.a]
		tab.pinRemoving(s)
		m.check(t, tab)
		for l := tab.slots[s].head; l != noLink; l = tab.slots[s].head {
			tab.remove(l.pair())
		}
		tab.release(s)
		delete(m.residents, st.a)
		for p := range m.pairs {
			if p.A == st.a || p.B == st.a {
				delete(m.pairs, p)
			}
		}
	case "put":
		a, b, ok := tab.ends(verify.Pair{A: st.a, B: st.b})
		if !ok {
			t.Fatalf("put %s-%s: not resident", st.a, st.b)
		}
		tab.put(a, b, float64(len(st.a)+len(st.b))/10, st.c)
		m.pairs[verify.Pair{A: st.a, B: st.b}] = st.c
	case "remove":
		p := verify.Pair{A: st.a, B: st.b}
		i, ok := tab.lookup(p)
		if !ok {
			t.Fatalf("remove %v: not live", p)
		}
		if got := tab.remove(i); got.Pair != p || got.Class != m.pairs[p] {
			t.Fatalf("remove %v returned %+v, want class %v", p, got, m.pairs[p])
		}
		delete(m.pairs, p)
	default:
		t.Fatalf("unknown step %q", st.op)
	}
}

// check fails unless the table holds exactly the model: slots and
// free list agree, every index entry names its record, every partner
// list is well linked and lists exactly the resident's pairs, and the
// class counters match.
func (m *tableModel) check(t *testing.T, tab *pairTable) {
	t.Helper()
	if len(tab.slotOf) != len(m.residents) {
		t.Fatalf("%d residents, want %d", len(tab.slotOf), len(m.residents))
	}
	free := map[uint32]bool{}
	for _, s := range tab.free {
		free[s] = true
	}
	for s, sl := range tab.slots {
		if sl.x == nil {
			if !free[uint32(s)] || sl.head != noLink {
				t.Fatalf("empty slot %d: free=%t head=%d", s, free[uint32(s)], sl.head)
			}
			continue
		}
		if free[uint32(s)] || tab.slotOf[sl.x.ID] != uint32(s) || !m.residents[sl.x.ID] {
			t.Fatalf("slot %d holds %q: free=%t slotOf=%d", s, sl.x.ID, free[uint32(s)], tab.slotOf[sl.x.ID])
		}
	}
	if len(tab.pairs) != len(m.pairs) || len(tab.index) != len(m.pairs) {
		t.Fatalf("%d pairs, %d index entries, want %d", len(tab.pairs), len(tab.index), len(m.pairs))
	}
	matches, possible := 0, 0
	for i := range tab.pairs {
		got := tab.match(int32(i))
		c, ok := m.pairs[got.Pair]
		if !ok || c != got.Class {
			t.Fatalf("position %d holds %+v, model class %v (live %t)", i, got, c, ok)
		}
		if j, ok := tab.find(tab.pairs[i].ends[0], tab.pairs[i].ends[1]); !ok || j != int32(i) {
			t.Fatalf("index names position %d for the pair at %d", j, i)
		}
		switch c {
		case decision.M:
			matches++
		case decision.P:
			possible++
		}
	}
	if tab.matches != matches || tab.possible != possible {
		t.Fatalf("counters M=%d P=%d, want %d/%d", tab.matches, tab.possible, matches, possible)
	}
	for x := range m.seen {
		for y := range m.seen {
			p := verify.Pair{A: x, B: y}
			_, want := m.pairs[p]
			i, ok := tab.lookup(p)
			if ok != want || ok && tab.match(i).Pair != p {
				t.Fatalf("lookup(%v) = %d, %t; live in the model: %t", p, i, ok, want)
			}
		}
	}
	for id := range m.residents {
		s := tab.slotOf[id]
		var got []string
		prev := noLink
		for l := tab.slots[s].head; l != noLink; l = tab.pairs[l.pair()].next[l.end()] {
			p := &tab.pairs[l.pair()]
			if p.ends[l.end()] != s || p.prev[l.end()] != prev {
				t.Fatalf("list of %q: link %d names slot %d, prev %d (want %d)", id, l, p.ends[l.end()], p.prev[l.end()], prev)
			}
			got = append(got, tab.slots[p.ends[1-l.end()]].x.ID)
			prev = l
		}
		var want []string
		for p := range m.pairs {
			if p.A == id {
				want = append(want, p.B)
			}
			if p.B == id {
				want = append(want, p.A)
			}
		}
		sort.Strings(got)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("partner list of %q = %v, want %v", id, got, want)
		}
		for _, c := range []decision.Class{decision.M, decision.P, decision.U} {
			got := tab.partners(nil, s, c)
			var want []string
			for p, pc := range m.pairs {
				if pc == c && p.A == id {
					want = append(want, p.B)
				}
				if pc == c && p.B == id {
					want = append(want, p.A)
				}
			}
			sort.Strings(got)
			sort.Strings(want)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("partners(%q, %v) = %v, want %v", id, c, got, want)
			}
		}
	}
}

// TestPairTable runs scripted and random operation sequences against
// the table, checking it against a map model after every step.
func TestPairTable(t *testing.T) {
	admit := func(ids ...string) []tableStep {
		var out []tableStep
		for _, id := range ids {
			out = append(out, tableStep{op: "admit", a: id})
		}
		return out
	}
	cat := func(parts ...[]tableStep) []tableStep {
		var out []tableStep
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	star := cat(admit("a", "b", "c", "d"), []tableStep{
		{op: "put", a: "a", b: "b", c: decision.M},
		{op: "put", a: "a", b: "c", c: decision.P},
		{op: "put", a: "a", b: "d", c: decision.U},
		{op: "put", a: "b", b: "c", c: decision.M},
	})
	tests := []struct {
		name  string
		steps []tableStep
		// slot, when set, names a resident and the slot it must occupy
		// at the end.
		slot map[string]uint32
	}{
		{name: "remove the last position moves nothing", steps: cat(star, []tableStep{{op: "remove", a: "b", b: "c"}})},
		{name: "remove the first position moves the last record", steps: cat(star, []tableStep{{op: "remove", a: "a", b: "b"}})},
		{name: "remove a list head", steps: cat(star, []tableStep{{op: "remove", a: "a", b: "d"}})},
		{name: "remove a list middle", steps: cat(star, []tableStep{{op: "remove", a: "a", b: "c"}})},
		{name: "remove every pair", steps: cat(star, []tableStep{
			{op: "remove", a: "a", b: "c"}, {op: "remove", a: "b", b: "c"},
			{op: "remove", a: "a", b: "b"}, {op: "remove", a: "a", b: "d"},
		})},
		{name: "release the hub", steps: cat(star, []tableStep{{op: "release", a: "a"}})},
		{
			name:  "a released slot serves the next arrival with no partners",
			steps: cat(star, []tableStep{{op: "release", a: "b"}, {op: "admit", a: "e"}, {op: "put", a: "c", b: "e", c: decision.P}}),
			slot:  map[string]uint32{"e": 1},
		},
		{
			name:  "released slots are reused last-released first",
			steps: cat(admit("a", "b", "c"), []tableStep{{op: "release", a: "a"}, {op: "release", a: "b"}, {op: "admit", a: "x"}, {op: "admit", a: "y"}}),
			slot:  map[string]uint32{"x": 1, "y": 0},
		},
		{name: "self pair", steps: cat(admit("a", "b"), []tableStep{
			{op: "put", a: "a", b: "b", c: decision.U},
			{op: "put", a: "a", b: "a", c: decision.M},
			{op: "remove", a: "a", b: "b"},
			{op: "put", a: "a", b: "b", c: decision.P},
			{op: "release", a: "a"},
		})},
	}
	// A random schedule over a few IDs exercises moves between lists of
	// every shape.
	rng := rand.New(rand.NewSource(7))
	ids := []string{"a", "b", "c", "d", "e", "f", "g"}
	resident := map[string]bool{}
	live := map[verify.Pair]bool{}
	var random []tableStep
	for len(random) < 3000 {
		id, other := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
		p := verify.NewPair(id, other)
		switch r := rng.Intn(10); {
		case !resident[id]:
			random = append(random, tableStep{op: "admit", a: id})
			resident[id] = true
		case r == 0:
			random = append(random, tableStep{op: "release", a: id})
			delete(resident, id)
			for q := range live {
				if q.A == id || q.B == id {
					delete(live, q)
				}
			}
		case id == other || !resident[other]:
		case live[p]:
			random = append(random, tableStep{op: "remove", a: p.A, b: p.B})
			delete(live, p)
		default:
			random = append(random, tableStep{op: "put", a: p.A, b: p.B, c: decision.Class(rng.Intn(3))})
			live[p] = true
		}
	}
	tests = append(tests, struct {
		name  string
		steps []tableStep
		slot  map[string]uint32
	}{name: "random", steps: random})

	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			tab := newPairTable()
			m := &tableModel{residents: map[string]bool{}, pairs: map[verify.Pair]decision.Class{}, seen: map[string]bool{}}
			for i, st := range tc.steps {
				m.apply(t, &tab, st)
				if t.Failed() {
					t.Fatalf("after step %d %+v", i, st)
				}
				m.check(t, &tab)
			}
			for id, s := range tc.slot {
				if tab.slotOf[id] != s {
					t.Fatalf("%q in slot %d, want %d", id, tab.slotOf[id], s)
				}
			}
		})
	}
}

// TestDetectorHandlesNeverOrderOutput feeds two detectors the same
// operations, one of them after decoy tuples have come and gone so
// that every real arrival lands in a recycled slot, in the reverse of
// the other detector's slot order. Slots must not show: the delta
// streams, Flush, the snapshot's residents and pairs, and every
// partner set are identical.
func TestDetectorHandlesNeverOrderOutput(t *testing.T) {
	u := shuffledUnion(t, 40, 21)
	decoys := shuffledUnion(t, 30, 22).Tuples
	def, err := keys.ParseDef("name:3+job:2", u.Schema)
	if err != nil {
		t.Fatal(err)
	}
	for name, red := range map[string]ssr.Method{
		"snm-certain":      ssr.SNMCertain{Key: def, Window: 4},
		"blocking-certain": ssr.BlockingCertain{Key: def},
	} {
		t.Run(name, func(t *testing.T) {
			opts := incrementalOpts(red)
			opts.Workers = 1
			run := func(decoys []*pdb.XTuple) (*Detector, []MatchDelta) {
				var stream []MatchDelta
				recording := false
				det, err := NewDetector(u.Schema, opts, func(md MatchDelta) bool {
					if recording {
						stream = append(stream, md)
					}
					return true
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, x := range decoys {
					y := x.Clone()
					y.ID = "decoy-" + y.ID
					if err := det.Add(y); err != nil {
						t.Fatal(err)
					}
				}
				for _, x := range decoys {
					if err := det.Remove("decoy-" + x.ID); err != nil {
						t.Fatal(err)
					}
				}
				recording = true
				for i, x := range u.Tuples {
					if err := det.Add(x); err != nil {
						t.Fatal(err)
					}
					if i%3 == 2 {
						if err := det.Remove(u.Tuples[i-1].ID); err != nil {
							t.Fatal(err)
						}
					}
				}
				return det, stream
			}
			plain, plainStream := run(nil)
			recycled, recycledStream := run(decoys)
			if recycled.live.slotOf[u.Tuples[0].ID] == plain.live.slotOf[u.Tuples[0].ID] {
				t.Fatal("the decoys did not move the first arrival's slot")
			}
			if len(plainStream) == 0 || plain.Stats().Dropped == 0 {
				t.Fatal("the schedule yields no deltas or no drops")
			}
			if !reflect.DeepEqual(recycledStream, plainStream) {
				t.Fatalf("delta streams differ (%d against %d deltas)", len(recycledStream), len(plainStream))
			}
			got, want := recycled.Flush(), plain.Flush()
			sameResult(t, got, want)
			if !reflect.DeepEqual(got.Compared, want.Compared) {
				t.Fatal("Flush orders the compared pairs differently")
			}
			gs, ws := recycled.SnapshotState(), plain.SnapshotState()
			ids := func(xs []*pdb.XTuple) []string {
				out := make([]string, len(xs))
				for i, x := range xs {
					out[i] = x.ID
				}
				return out
			}
			if !reflect.DeepEqual(ids(gs.Residents), ids(ws.Residents)) || !reflect.DeepEqual(gs.Pairs, ws.Pairs) {
				t.Fatal("snapshots list residents or pairs differently")
			}
			for _, id := range plain.ResidentIDs() {
				for _, c := range []decision.Class{decision.M, decision.P, decision.U} {
					g, w := Partners(recycled, nil, id, c), Partners(plain, nil, id, c)
					sort.Strings(g)
					sort.Strings(w)
					if !reflect.DeepEqual(g, w) {
						t.Fatalf("partners(%q, %v) = %v, want %v", id, c, g, w)
					}
				}
			}
		})
	}
}
