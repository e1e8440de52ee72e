package ssr

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"probdedup/internal/keys"
	"probdedup/internal/pdb"
	"probdedup/internal/verify"
)

// foldCover folds a splice's deltas, as pairs of the handles' IDs, into
// per-pair coverage counts the way pairLedger does (same-ID pairs skipped,
// zero counts deleted).
func foldCover(counts map[verify.Pair]int, ds []seqDelta, ids []string) {
	for _, sd := range ds {
		d := sd.pair(ids)
		if d.Pair.A == d.Pair.B {
			continue
		}
		if d.Dropped {
			counts[d.Pair]--
		} else {
			counts[d.Pair]++
		}
		if counts[d.Pair] == 0 {
			delete(counts, d.Pair)
		}
	}
}

// seqIDs returns the IDs of a sequence's handles, in order.
func seqIDs(s *chunkSeq, ids []string) []string {
	out := make([]string, 0, s.n)
	for e := range s.from(0) {
		out = append(out, ids[e.h])
	}
	return out
}

// streamCover counts how often windowStream yields each pair over ids.
func streamCover(ids []string, window int) map[verify.Pair]int {
	counts := map[verify.Pair]int{}
	windowStream(ids, window, func(p verify.Pair) bool {
		counts[p]++
		return true
	})
	return counts
}

// testChunks are the chunk capacities the sequence tests run at: tiny, so
// a sequence of ~200 entries crosses every split, empty-chunk removal and
// chunk boundary. Every other test runs at seqChunkCap.
var testChunks = []int{2, 3, 4}

// checkChunks fails unless every chunk of s is non-empty, within capacity
// and counts its kept entries, and the chunks sum to len.
func checkChunks(t *testing.T, s *chunkSeq) {
	t.Helper()
	n := 0
	for c, ch := range s.chunks {
		kept := countKept(ch.entries)
		if len(ch.entries) == 0 || len(ch.entries) > s.cap || ch.kept != kept {
			t.Fatalf("chunk %d of %d: %d entries (capacity %d), kept count %d, want %d", c, len(s.chunks), len(ch.entries), s.cap, ch.kept, kept)
		}
		n += len(ch.entries)
	}
	if n != s.n {
		t.Fatalf("chunks hold %d entries, n = %d", n, s.n)
	}
}

// windowSeqModel drives a windowSeq against a []string model: after every
// splice the sequence equals the model and the folded deltas equal the
// window stream of it. An ID holds one handle while it occurs in the
// sequence; the handle is released with its last occurrence, and the next
// absent ID to arrive takes it.
type windowSeqModel struct {
	t      *testing.T
	seq    windowSeq
	res    handleTable[int] // occurrences in the sequence
	model  []string
	counts map[verify.Pair]int
	ds     []seqDelta
}

func newWindowSeqModel(t *testing.T, window, chunk int) *windowSeqModel {
	return &windowSeqModel{t: t, seq: newWindowSeq(window, chunk), res: newHandleTable[int](), counts: map[verify.Pair]int{}}
}

func (m *windowSeqModel) insert(p int, id string) {
	h, ok := m.res.of[id]
	if !ok {
		h = m.res.add(id, 0)
	}
	m.res.vals[h]++
	m.ds = m.seq.insertAt(p, seqEntry{h: h}, m.ds[:0])
	m.model = slices.Insert(m.model, p, id)
	m.check()
}

func (m *windowSeqModel) remove(p int) {
	h := m.res.of[m.model[p]]
	m.ds = m.seq.removeAt(p, m.ds[:0])
	m.model = slices.Delete(m.model, p, p+1)
	m.check()
	if m.res.vals[h]--; m.res.vals[h] == 0 {
		m.res.release(h)
	}
}

func (m *windowSeqModel) check() {
	m.t.Helper()
	foldCover(m.counts, m.ds, m.res.ids)
	checkChunks(m.t, &m.seq.chunkSeq)
	if got := seqIDs(&m.seq.chunkSeq, m.res.ids); !slices.Equal(got, m.model) {
		m.t.Fatalf("sequence %v, want %v", got, m.model)
	}
	if want := streamCover(m.model, m.seq.window); !maps.Equal(m.counts, want) {
		m.t.Fatalf("over %v: folded deltas %v, window stream %v", m.model, m.counts, want)
	}
}

// checkRebuilt compares the model's sequence with one built from scratch
// over the same ID order, with handles handed out afresh: the same IDs in
// the same order, and the same folded coverage.
func (m *windowSeqModel) checkRebuilt() {
	m.t.Helper()
	fresh := newWindowSeqModel(m.t, m.seq.window, m.seq.cap)
	for p, id := range m.model {
		fresh.insert(p, id)
	}
	if got, want := seqIDs(&m.seq.chunkSeq, m.res.ids), seqIDs(&fresh.seq.chunkSeq, fresh.res.ids); !slices.Equal(got, want) {
		m.t.Fatalf("sequence %v, rebuilt %v", got, want)
	}
	if !maps.Equal(m.counts, fresh.counts) {
		m.t.Fatalf("over %v: folded deltas %v, rebuilt %v", m.model, m.counts, fresh.counts)
	}
}

// TestWindowSeqFoldEqualsWindowStream is the contract of the one window
// arithmetic: after every random insertAt/removeAt, the folded deltas equal
// the window stream of the current sequence — as multisets of position
// pairs, so it holds with an ID recurring inside one window too (the pool
// is smaller than the sequence).
func TestWindowSeqFoldEqualsWindowStream(t *testing.T) {
	for window := 1; window <= 6; window++ {
		for _, pool := range []int{3, 8, 1000} { // heavy, some and no duplication
			t.Run(fmt.Sprintf("w=%d/pool=%d", window, pool), func(t *testing.T) {
				for _, chunk := range testChunks {
					t.Run(fmt.Sprintf("chunk=%d", chunk), func(t *testing.T) {
						rng := rand.New(rand.NewSource(int64(100*window + pool)))
						m := newWindowSeqModel(t, window, chunk)
						for op := 0; op < 500; op++ {
							if len(m.model) == 0 || (len(m.model) < 200 && rng.Intn(5) > 0) {
								m.insert(rng.Intn(len(m.model)+1), fmt.Sprintf("t%d", rng.Intn(pool)))
							} else {
								m.remove(rng.Intn(len(m.model)))
							}
						}
					})
				}
			})
		}
	}
}

// FuzzWindowSeq lets the fuzzer pick the window, a tiny chunk capacity and
// up to 127 splices: each pair of bytes is an insert or remove position
// and an ID from a pool of eight. An ID's handle is freed with its last
// occurrence, so re-inserted and fresh IDs take freed handles; after every
// splice the sequence must equal one rebuilt from scratch.
func FuzzWindowSeq(f *testing.F) {
	f.Add([]byte{3, 0, 0, 1, 2, 3, 4, 5, 0, 7, 2, 9, 0, 1})
	f.Add([]byte{5, 1, 0, 0, 2, 2, 4, 4, 6, 6, 1, 1, 3, 3, 0, 0, 0, 0})
	f.Add([]byte{2, 2, 0, 1, 0, 2, 1, 0, 0, 3, 2, 4, 1, 0, 1, 0, 0, 1, 2, 5, 3, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) < 2 {
			return
		}
		ops = ops[:min(len(ops), 256)]
		m := newWindowSeqModel(t, 1+int(ops[0]%6), 2+int(ops[1]%3))
		for ops = ops[2:]; len(ops) >= 2; ops = ops[2:] {
			if p := int(ops[0] >> 1); ops[0]&1 == 0 || len(m.model) == 0 {
				m.insert(p%(len(m.model)+1), fmt.Sprintf("t%d", ops[1]%8))
			} else {
				m.remove(p % len(m.model))
			}
			m.checkRebuilt()
		}
	})
}

// TestKeyedSeqMatchesStableSort drives keyedSeq.insert/remove with few
// distinct keys (long tie runs): the order must be the stable sort of the
// surviving arrivals by key, the folded deltas the window stream of it, and
// removing an absent entry must change nothing.
func TestKeyedSeqMatchesStableSort(t *testing.T) {
	for window := 1; window <= 6; window++ {
		t.Run(fmt.Sprintf("w=%d", window), func(t *testing.T) {
			for _, chunk := range testChunks {
				t.Run(fmt.Sprintf("chunk=%d", chunk), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(window)))
					seq := keyedSeq{newWindowSeq(window, chunk)}
					res := newHandleTable[string]()
					var arrivals []KeyEntry // survivors in arrival order
					counts := map[verify.Pair]int{}
					for op := 0; op < 500; op++ {
						var ds []seqDelta
						switch {
						case len(arrivals) == 0 || (len(arrivals) < 200 && rng.Intn(5) > 0):
							e := KeyEntry{Key: fmt.Sprintf("k%d", rng.Intn(5)), ID: fmt.Sprintf("t%d", op)}
							ds = seq.insert(e.Key, res.add(e.ID, e.Key), nil)
							arrivals = append(arrivals, e)
						case rng.Intn(8) == 0:
							if ds = seq.remove("k2", math.MaxUint32, nil); len(ds) != 0 {
								t.Fatalf("op %d: removing an absent entry yielded %v", op, ds)
							}
						default:
							i := rng.Intn(len(arrivals))
							h := res.of[arrivals[i].ID]
							foldCover(counts, seq.remove(arrivals[i].Key, h, nil), res.ids)
							res.release(h) // the next arrival takes h
							arrivals = append(arrivals[:i], arrivals[i+1:]...)
						}
						foldCover(counts, ds, res.ids)
						checkChunks(t, &seq.chunkSeq)
						want := sortEntryIDs(append([]KeyEntry(nil), arrivals...))
						if got := seqIDs(&seq.chunkSeq, res.ids); !slices.Equal(got, want) {
							t.Fatalf("op %d: order %v, want stable sort %v", op, got, want)
						}
						var ks []string
						for e := range seq.from(0) {
							ks = append(ks, e.key)
						}
						if !sort.StringsAreSorted(ks) {
							t.Fatalf("op %d: keys %v out of order", op, ks)
						}
						if wantCover := streamCover(want, window); !maps.Equal(counts, wantCover) {
							t.Fatalf("op %d: folded deltas %v, window stream %v", op, counts, wantCover)
						}
					}
				})
			}
		})
	}
}

// TestSNMAltsEntriesMatchFlatModel drives SNMAlternatives' index at tiny
// chunk capacities with tuples of one to three nearby alternative keys, so
// key runs are short and one tuple's entries often sit side by side.
// After every Insert and Remove the flattened entries must be the stable
// sort of the residents' entries, each kept flag the batch rule (the
// predecessor references another tuple), each chunk's kept count and
// keptIndexOf(i) for every i a flat recount, and the kept sequence the
// kept entries' IDs.
func TestSNMAltsEntriesMatchFlatModel(t *testing.T) {
	def, err := keys.ParseDef("name", []string{"name"})
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range testChunks {
		t.Run(fmt.Sprintf("chunk=%d", chunk), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(chunk)))
			idx := rechunk(mustIncremental(t, SNMAlternatives{Key: def, Window: 3}), chunk).(*snmAltsIndex)
			var residents []string // arrival order
			omitted := 0
			for op := 0; op < 400; op++ {
				if len(residents) == 0 || (len(residents) < 80 && rng.Intn(4) > 0) {
					id, base := fmt.Sprintf("t%d", op), rng.Intn(60)
					var alts []pdb.Alt
					for range 1 + rng.Intn(3) {
						alts = append(alts, pdb.NewAlt(0.3, fmt.Sprintf("k%03d", base+rng.Intn(3))))
					}
					idx.Insert(pdb.NewXTuple(id, alts...), func(PairDelta) bool { return true })
					residents = append(residents, id)
				} else {
					i := rng.Intn(len(residents))
					idx.Remove(residents[i], func(PairDelta) bool { return true })
					residents = slices.Delete(residents, i, i+1)
				}

				var want []seqEntry
				for _, id := range residents {
					h := idx.res.of[id]
					for _, k := range idx.res.vals[h] {
						want = append(want, seqEntry{key: k, h: h})
					}
				}
				sort.SliceStable(want, func(a, b int) bool { return want[a].key < want[b].key })
				var keptIDs []string
				for i := range want {
					if want[i].kept = i == 0 || want[i-1].h != want[i].h; want[i].kept {
						keptIDs = append(keptIDs, idx.res.ids[want[i].h])
					} else {
						omitted++
					}
				}
				if got := slices.Collect(idx.entries.from(0)); !slices.Equal(got, want) {
					t.Fatalf("op %d: entries %v, want %v", op, got, want)
				}
				checkChunks(t, &idx.entries)
				checkChunks(t, &idx.kept.chunkSeq)
				for i, n := 0, 0; i <= len(want); i++ {
					if got := idx.entries.keptIndexOf(i); got != n {
						t.Fatalf("op %d: keptIndexOf(%d) = %d, want %d", op, i, got, n)
					}
					if i < len(want) && want[i].kept {
						n++
					}
				}
				if got := seqIDs(&idx.kept.chunkSeq, idx.res.ids); !slices.Equal(got, keptIDs) {
					t.Fatalf("op %d: kept sequence %v, want %v", op, got, keptIDs)
				}
			}
			if omitted == 0 {
				t.Fatal("no entry was ever omitted: the fixture does not reach the kept rule")
			}
		})
	}
}

// TestPairNetMatchesBruteForce nets random add/drop strings over a small
// pair universe and compares with a count per pair: odd counts survive, as
// the first delta's kind, in first-affected order, stamped with the source
// of their last delta. One net serves every round, and a round whose
// delivery is cut short must still leave it empty.
func TestPairNetMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var net pairNet[verify.Pair]
	for round := 0; round < 300; round++ {
		type tally struct {
			first  PairDelta
			count  int
			source int
		}
		var order []verify.Pair
		seen := map[verify.Pair]*tally{}
		for i, n := 0, rng.Intn(40); i < n; i++ {
			d := PairDelta{
				Pair:    verify.NewPair(fmt.Sprintf("a%d", rng.Intn(4)), fmt.Sprintf("b%d", rng.Intn(4))),
				Dropped: rng.Intn(2) == 0,
			}
			net.source = rng.Intn(5)
			net.add(d.Pair, d.Dropped)
			if seen[d.Pair] == nil {
				seen[d.Pair] = &tally{first: d}
				order = append(order, d.Pair)
			}
			seen[d.Pair].count++
			seen[d.Pair].source = net.source
		}
		var want []BatchDelta
		for _, p := range order {
			if c := seen[p]; c.count%2 == 1 {
				want = append(want, BatchDelta{PairDelta: c.first, Source: c.source})
			}
		}
		stopAfter := len(want) + 1
		if round%3 == 0 && len(want) > 0 {
			stopAfter = 1 + rng.Intn(len(want))
			want = want[:stopAfter]
		}
		var got []BatchDelta
		ok := net.drain(samePair, func(d BatchDelta) bool {
			got = append(got, d)
			return len(got) < stopAfter
		})
		if ok != (stopAfter > len(want)) {
			t.Fatalf("round %d: drain returned %v with %d of %d delivered", round, ok, len(got), len(want))
		}
		if !slices.Equal(got, want) {
			t.Fatalf("round %d: netted %v, brute force %v", round, got, want)
		}
		if len(net.entries) != 0 || len(net.at) != 0 {
			t.Fatalf("round %d: net not empty after drain: %d entries, %d keys", round, len(net.entries), len(net.at))
		}
	}
}
