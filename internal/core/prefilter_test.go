package core

import (
	"fmt"
	"strings"
	"testing"

	"probdedup/internal/avm"
	"probdedup/internal/decision"
	"probdedup/internal/keys"
	"probdedup/internal/pdb"
	"probdedup/internal/ssr"
	"probdedup/internal/strsim"
	"probdedup/internal/verify"
	"probdedup/internal/xmatch"
)

// TestPreFilterEquivalence is the soundness proof of the candidate
// pre-filter at the engine level: over a shuffled synthetic relation,
// for every incremental-capable reduction and for Workers ∈ {1, 4},
// a filtered run must declare exactly the M and P sets of the
// unfiltered run — same pairs, same similarities, same classes — and
// may differ only by verifying fewer pairs. Every pair the filter
// skipped is re-checked against the unfiltered run's full
// verification: it must have been classified U (below Tλ), i.e. the
// filter only ever discards provable non-matches. The counter
// contract Enumerated = Compared + Filtered is pinned alongside.
func TestPreFilterEquivalence(t *testing.T) {
	u := shuffledUnion(t, 40, 11)
	for name, reduction := range incrementalReductions(t, u.Schema) {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				opts := incrementalOpts(reduction)
				opts.Workers = workers
				plain, plainStats, err := DetectWithStats(u, opts)
				if err != nil {
					t.Fatal(err)
				}
				opts.PreFilter = true
				filtered, filtStats, err := DetectWithStats(u, opts)
				if err != nil {
					t.Fatal(err)
				}

				if !filtStats.FilterActive {
					t.Fatal("FilterActive = false; the default configuration must be boundable")
				}
				if plainStats.FilterActive || plainStats.Filtered != 0 {
					t.Fatalf("unfiltered run reports filter work: %+v", plainStats)
				}
				if filtStats.Enumerated != filtStats.Compared+filtStats.Filtered {
					t.Fatalf("Enumerated %d != Compared %d + Filtered %d",
						filtStats.Enumerated, filtStats.Compared, filtStats.Filtered)
				}
				if plainStats.Enumerated != plainStats.Compared {
					t.Fatalf("unfiltered Enumerated %d != Compared %d", plainStats.Enumerated, plainStats.Compared)
				}

				// The declared sets are bit-identical.
				samePairSet(t, "M", filtered.Matches, plain.Matches)
				samePairSet(t, "P", filtered.Possible, plain.Possible)
				// Every verified pair agrees exactly with the unfiltered run.
				for p, fm := range filtered.ByPair {
					pm, ok := plain.ByPair[p]
					if !ok {
						t.Fatalf("pair %v verified only with the filter on", p)
					}
					if fm.Sim != pm.Sim || fm.Class != pm.Class {
						t.Fatalf("pair %v: filtered (%v,%v), unfiltered (%v,%v)",
							p, fm.Sim, fm.Class, pm.Sim, pm.Class)
					}
				}
				// Every skipped pair was a provable non-match: the
				// unfiltered run's full (slow) verification classified it U.
				skipped := 0
				for p, pm := range plain.ByPair {
					if _, ok := filtered.ByPair[p]; ok {
						continue
					}
					skipped++
					if pm.Class != decision.U {
						t.Fatalf("filter skipped pair %v with class %v (sim %v)", p, pm.Class, pm.Sim)
					}
					if pm.Sim >= opts.Final.Lambda {
						t.Fatalf("filter skipped pair %v with sim %v >= Tλ %v", p, pm.Sim, opts.Final.Lambda)
					}
				}
				if skipped != filtStats.Filtered {
					t.Fatalf("skipped %d pairs but Filtered = %d", skipped, filtStats.Filtered)
				}
			})
		}
	}
}

// samePairSet fails unless the two pair sets are identical.
func samePairSet(t *testing.T, what string, got, want verify.PairSet) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", what, len(got), len(want))
	}
	for p := range want {
		if !got[p] {
			t.Fatalf("%s: pair %v missing", what, p)
		}
	}
}

// TestPreFilterDetectorEquivalesBatch proves the incremental path of
// the filter: a Detector with PreFilter on, fed the shuffled relation
// in batches (parallel verification), must Flush exactly the M and P
// pairs of the unfiltered batch Detect — the filter state is
// maintained under Insert and the Admit decisions match the batch
// run's. Since a U pair is no online state, the filter is neutral on
// everything a Detector shows: the filtered and unfiltered detectors
// emit the identical delta stream and Flush the identical result. The
// counter contract of DetectorStats.Enumerated rides along: every add
// the index presents is either filtered or compared, so blocking and
// the cross product conserve Enumerated = Compared + Filtered, and a
// windowed batch — where a pair can enter and leave the window inside
// the one AddBatch, admitted but never compared — keeps Enumerated ≥
// Compared + Filtered.
func TestPreFilterDetectorEquivalesBatch(t *testing.T) {
	u := shuffledUnion(t, 35, 19)
	for name, reduction := range incrementalReductions(t, u.Schema) {
		t.Run(name, func(t *testing.T) {
			opts := incrementalOpts(reduction)
			plain, err := Detect(u, opts)
			if err != nil {
				t.Fatal(err)
			}
			run := func(opts Options) (*Detector, []MatchDelta) {
				var deltas []MatchDelta
				det, err := NewDetector(u.Schema, opts, func(md MatchDelta) bool {
					deltas = append(deltas, md)
					return true
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := det.AddBatch(u.Tuples); err != nil {
					t.Fatal(err)
				}
				return det, deltas
			}
			unfiltered, plainDeltas := run(opts)
			opts.PreFilter = true
			det, deltas := run(opts)
			res := det.Flush()
			sameResult(t, res, liveOnly(plain))
			sameResult(t, res, unfiltered.Flush())
			if len(deltas) != len(plainDeltas) {
				t.Fatalf("filtered detector emitted %d deltas, unfiltered %d", len(deltas), len(plainDeltas))
			}
			for i := range deltas {
				if deltas[i] != plainDeltas[i] {
					t.Fatalf("delta %d: filtered %+v, unfiltered %+v", i, deltas[i], plainDeltas[i])
				}
			}
			st := det.Stats()
			if !st.FilterActive {
				t.Fatal("FilterActive = false")
			}
			if st.Enumerated < st.Filtered {
				t.Fatalf("Enumerated %d < Filtered %d", st.Enumerated, st.Filtered)
			}
			windowed := strings.HasPrefix(name, "snm-")
			if sum := st.Compared + st.Filtered; st.Enumerated < sum || (!windowed && st.Enumerated != sum) {
				t.Fatalf("Enumerated %d, Compared %d + Filtered %d (windowed=%t)",
					st.Enumerated, st.Compared, st.Filtered, windowed)
			}
		})
	}
}

// TestPreFilterRemoveKeepsStateConsistent exercises the filter's
// Remove path: retiring and re-adding tuples must leave the Detector's
// declared sets exactly where a batch run of the final resident
// relation lands them, with the filter consulted throughout.
func TestPreFilterRemoveKeepsStateConsistent(t *testing.T) {
	u := shuffledUnion(t, 25, 7)
	opts := incrementalOpts(nil)
	opts.PreFilter = true
	det, err := NewDetector(u.Schema, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.AddBatch(u.Tuples); err != nil {
		t.Fatal(err)
	}
	// Retire every third tuple, then re-add it.
	for i := 0; i < len(u.Tuples); i += 3 {
		if err := det.Remove(u.Tuples[i].ID); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < len(u.Tuples); i += 3 {
		if err := det.Add(u.Tuples[i].Clone()); err != nil {
			t.Fatal(err)
		}
	}
	plain, err := Detect(u, incrementalOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	res := det.Flush()
	samePairSet(t, "M", res.Matches, plain.Matches)
	samePairSet(t, "P", res.Possible, plain.Possible)
}

// TestPreFilterInertOnOpaqueModel pins the graceful degradation
// contract: with an AltModel the bound machinery cannot see through,
// PreFilter must stay silently inert (FilterActive false, nothing
// filtered) and the result must be untouched.
func TestPreFilterInertOnOpaqueModel(t *testing.T) {
	u := shuffledUnion(t, 15, 3)
	opts := incrementalOpts(nil)
	opts.AltModel = decision.SimpleModel{
		Phi: func(v avm.Vector) float64 {
			s := 0.0
			for _, x := range v {
				s += x
			}
			return s / float64(len(v))
		},
		T: decision.Thresholds{Lambda: 0.6, Mu: 0.8},
	}
	plain, err := Detect(u, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.PreFilter = true
	filtered, stats, err := DetectWithStats(u, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FilterActive || stats.Filtered != 0 {
		t.Fatalf("filter should be inert on an opaque model: %+v", stats)
	}
	sameResult(t, filtered, plain)
}

// TestPreFilterQGramSizes sweeps FilterQ: every gram size must keep
// the declared sets bit-identical (larger sizes may just filter less,
// and sizes above sym.MaxExactQ exercise the hashed-gram fallback).
func TestPreFilterQGramSizes(t *testing.T) {
	u := shuffledUnion(t, 30, 5)
	opts := incrementalOpts(nil)
	plain, err := Detect(u, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []int{1, 2, 3, 4, 5} {
		opts.PreFilter = true
		opts.FilterQ = q
		filtered, stats, err := DetectWithStats(u, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !stats.FilterActive {
			t.Fatalf("q=%d: filter inactive", q)
		}
		samePairSet(t, "M", filtered.Matches, plain.Matches)
		samePairSet(t, "P", filtered.Possible, plain.Possible)
	}
}

// TestPreFilterMassTolerance: pdb admits a value distribution, and an
// x-tuple's alternatives, whose mass exceeds 1 by up to pdb.Eps, so
// Eq. 5 can exceed its largest term, and an unconditioned derivation
// its largest cell, by a factor (1+Eps)². Two one-attribute tuples that
// carry "abc" with such masses score above 1; with Tλ just below that
// score the pair is P, and the pre-filter must not reject it, in batch
// or online.
func TestPreFilterMassTolerance(t *testing.T) {
	for _, tc := range []struct {
		name         string
		valueP, altP float64
		derive       xmatch.Derivation
		lambda       float64
	}{
		{"value mass", 1 + 0.9e-9, 1, nil, 1 + 1e-9},
		{"alternative mass", 1 + 0.9e-9, 1 + 0.9e-9, xmatch.SimilarityBased{}, 1 + 3e-9},
		{"weighted max-sim", 1 + 0.9e-9, 1 + 0.9e-9, xmatch.MaxSim{Weighted: true}, 1 + 3e-9},
	} {
		xr := pdb.NewXRelation("X", "name")
		for _, id := range []string{"t1", "t2"} {
			d := pdb.MustDist(pdb.Alternative{Value: pdb.V("abc"), P: tc.valueP})
			xr.Append(pdb.NewXTuple(id, pdb.NewAltDists(tc.altP, d)))
		}
		opts := Options{
			Compare:    []strsim.Func{strsim.Levenshtein},
			Derivation: tc.derive,
			Final:      decision.Thresholds{Lambda: tc.lambda, Mu: 2},
		}
		pair := verify.NewPair("t1", "t2")
		for _, filter := range []bool{false, true} {
			opts.PreFilter = filter
			opts.Reduction = nil
			res, stats, err := DetectWithStats(xr, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Possible[pair] {
				t.Fatalf("%s prefilter=%t: pair not P (stats %+v)", tc.name, filter, stats)
			}
			for _, red := range []ssr.Method{nil, ssr.BlockingCertain{Key: keys.NewDef(keys.Part{Attr: 0, Prefix: 1})}} {
				opts.Reduction = red
				det, err := NewDetector(xr.Schema, opts, nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := det.AddBatch(xr.Tuples); err != nil {
					t.Fatal(err)
				}
				if !det.Flush().Possible[pair] {
					t.Fatalf("%s prefilter=%t %T: Detector lost the P pair", tc.name, filter, red)
				}
			}
		}
	}
}
