package ssr

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"probdedup/internal/verify"
)

// foldCover folds a splice's deltas into per-pair coverage counts the way
// pairLedger does (same-ID pairs skipped, zero counts deleted).
func foldCover(counts map[verify.Pair]int, ds []PairDelta) {
	for _, d := range ds {
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

// streamCover counts how often windowStream yields each pair over ids.
func streamCover(ids []string, window int) map[verify.Pair]int {
	counts := map[verify.Pair]int{}
	windowStream(ids, window, func(p verify.Pair) bool {
		counts[p]++
		return true
	})
	return counts
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
				rng := rand.New(rand.NewSource(int64(100*window + pool)))
				seq := newWindowSeq(window)
				var model []string
				counts := map[verify.Pair]int{}
				var scratch []PairDelta
				for op := 0; op < 400; op++ {
					if len(model) == 0 || (len(model) < 24 && rng.Intn(3) > 0) {
						p, id := rng.Intn(len(model)+1), fmt.Sprintf("t%d", rng.Intn(pool))
						scratch = seq.insertAt(p, id, scratch[:0])
						model = slices.Insert(model, p, id)
					} else {
						p := rng.Intn(len(model))
						scratch = seq.removeAt(p, scratch[:0])
						model = slices.Delete(model, p, p+1)
					}
					foldCover(counts, scratch)
					if !slices.Equal(seq.ids, model) {
						t.Fatalf("op %d: sequence %v, want %v", op, seq.ids, model)
					}
					if want := streamCover(model, window); !maps.Equal(counts, want) {
						t.Fatalf("op %d over %v: folded deltas %v, window stream %v", op, model, counts, want)
					}
				}
			})
		}
	}
}

// TestKeyedSeqMatchesStableSort drives keyedSeq.insert/remove with few
// distinct keys (long tie runs): the order must be the stable sort of the
// surviving arrivals by key, the folded deltas the window stream of it, and
// removing an absent entry must change nothing.
func TestKeyedSeqMatchesStableSort(t *testing.T) {
	for window := 1; window <= 6; window++ {
		t.Run(fmt.Sprintf("w=%d", window), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(window)))
			seq := keyedSeq{windowSeq: newWindowSeq(window)}
			var arrivals []KeyEntry // survivors in arrival order
			counts := map[verify.Pair]int{}
			for op := 0; op < 400; op++ {
				var ds []PairDelta
				switch {
				case len(arrivals) == 0 || (len(arrivals) < 24 && rng.Intn(3) > 0):
					e := KeyEntry{Key: fmt.Sprintf("k%d", rng.Intn(5)), ID: fmt.Sprintf("t%d", op)}
					ds = seq.insert(e.Key, e.ID, nil)
					arrivals = append(arrivals, e)
				case rng.Intn(8) == 0:
					if ds = seq.remove("k2", "absent", nil); len(ds) != 0 {
						t.Fatalf("op %d: removing an absent entry yielded %v", op, ds)
					}
				default:
					i := rng.Intn(len(arrivals))
					ds = seq.remove(arrivals[i].Key, arrivals[i].ID, nil)
					arrivals = append(arrivals[:i], arrivals[i+1:]...)
				}
				foldCover(counts, ds)
				want := sortEntryIDs(append([]KeyEntry(nil), arrivals...))
				if !slices.Equal(seq.ids, want) {
					t.Fatalf("op %d: order %v, want stable sort %v", op, seq.ids, want)
				}
				if !sort.StringsAreSorted(seq.keys) || len(seq.keys) != len(seq.ids) {
					t.Fatalf("op %d: keys %v out of step with ids %v", op, seq.keys, seq.ids)
				}
				if wantCover := streamCover(want, window); !maps.Equal(counts, wantCover) {
					t.Fatalf("op %d: folded deltas %v, window stream %v", op, counts, wantCover)
				}
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
	var net pairNet
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
			net.add(d)
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
		ok := net.drain(func(d BatchDelta) bool {
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
