package wal

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"probdedup/internal/core"
	"probdedup/internal/dataset"
	"probdedup/internal/decision"
	"probdedup/internal/keys"
	"probdedup/internal/pdb"
	"probdedup/internal/resolve"
	"probdedup/internal/ssr"
	"probdedup/internal/strsim"
)

// testOp is one operation of a generated schedule.
type testOp struct {
	op Op
	x  *pdb.XTuple
	xs []*pdb.XTuple
	id string
}

// genSchedule builds a deterministic random operation schedule over a
// synthetic corpus: mostly arrivals (single and batched), with removals
// of residents mixed in. The same seed
// always yields the same schedule, so crashed and never-crashed runs
// fold the same operations.
func genSchedule(tb testing.TB, seed int64, n int) ([]string, []testOp) {
	tb.Helper()
	d := dataset.Generate(dataset.DefaultConfig(n, seed))
	u := d.Union()
	rng := rand.New(rand.NewSource(seed*101 + 7))
	rng.Shuffle(len(u.Tuples), func(i, j int) {
		u.Tuples[i], u.Tuples[j] = u.Tuples[j], u.Tuples[i]
	})
	var (
		ops      []testOp
		resident []string
		next     int
	)
	for len(ops) < n && next < len(u.Tuples) {
		// A draw of 9 appends nothing, so each seed keeps the schedule
		// the seeded checkpoint and crash tests were sized against.
		switch k := rng.Intn(10); {
		case k < 6 || len(resident) == 0:
			x := u.Tuples[next]
			next++
			resident = append(resident, x.ID)
			ops = append(ops, testOp{op: OpAdd, x: x})
		case k < 8:
			m := 1 + rng.Intn(3)
			if m > len(u.Tuples)-next {
				m = len(u.Tuples) - next
			}
			batch := u.Tuples[next : next+m]
			next += m
			for _, x := range batch {
				resident = append(resident, x.ID)
			}
			ops = append(ops, testOp{op: OpAddBatch, xs: batch})
		case k == 8:
			j := rng.Intn(len(resident))
			id := resident[j]
			resident = append(resident[:j], resident[j+1:]...)
			ops = append(ops, testOp{op: OpRemove, id: id})
		}
	}
	return u.Schema, ops
}

// applyOp feeds one schedule operation to an engine.
func applyOp(eng core.Engine, op testOp) error {
	switch op.op {
	case OpAdd:
		return eng.Add(op.x)
	case OpAddBatch:
		return eng.AddBatch(op.xs)
	default:
		return eng.Remove(op.id)
	}
}

// testOptions is the engine configuration shared by the durability
// tests (the synthetic corpus has a 3-attribute schema).
func testOptions(red ssr.Method) core.Options {
	return core.Options{
		Compare:   []strsim.Func{strsim.Levenshtein, strsim.Levenshtein, strsim.Levenshtein},
		Reduction: red,
		Final:     decision.Thresholds{Lambda: 0.6, Mu: 0.8},
	}
}

// crashReductions are the reduction tiers under crash test: two exact
// tiers and the bounded-staleness epoch tier (BlockingCluster), whose
// index state is persisted rather than re-derived.
func crashReductions(tb testing.TB, schema []string) map[string]ssr.Method {
	tb.Helper()
	def, err := keys.ParseDef("name:3+job:2", schema)
	if err != nil {
		tb.Fatal(err)
	}
	return map[string]ssr.Method{
		"blocking-certain": ssr.BlockingCertain{Key: def},
		"snm-certain":      ssr.SNMCertain{Key: def, Window: 4},
		"blocking-cluster": ssr.BlockingCluster{Key: def, K: 3, Seed: 1},
	}
}

// resultFingerprint canonicalizes a detector Flush bit-exactly: every
// classified pair with raw similarity bits and class, plus the M/P/
// total counts. Two engines in identical state produce identical
// fingerprints; any drifted bit shows up in the diff.
func resultFingerprint(r *core.Result, st core.DetectorStats) string {
	pairs := make([]string, 0, len(r.ByPair))
	for p, m := range r.ByPair {
		pairs = append(pairs, fmt.Sprintf("%s|%s|%016x|%d", p.A, p.B, math.Float64bits(m.Sim), int(m.Class)))
	}
	sort.Strings(pairs)
	return fmt.Sprintf("%s\ntotal=%d m=%d p=%d compared=%d dropped=%d residents=%d\n",
		strings.Join(pairs, "\n"), r.TotalPairs, len(r.Matches), len(r.Possible),
		st.Compared, st.Dropped, st.Residents)
}

// tupleBytes encodes a tuple through the snapshot codec's binary plane
// — symbol-annotation-free and bit-exact, so fused tuples compare
// across engines whose symbol tables numbered differently.
func tupleBytes(x *pdb.XTuple) string {
	e := &encoder{}
	e.xtuple(x)
	return fmt.Sprintf("%x", e.buf)
}

// resolutionFingerprint canonicalizes an integrator Flush: the entity
// partition with fused representations, and the uncertain duplicates
// with calibrated probability bits and merged representations.
func resolutionFingerprint(r *resolve.Resolution) string {
	var b strings.Builder
	for _, e := range r.Entities {
		fmt.Fprintf(&b, "entity %s members=%v tuple=%s\n", e.ID, e.Members, tupleBytes(e.Tuple))
	}
	for _, ud := range r.Uncertain {
		fmt.Fprintf(&b, "uncertain %s|%s sym=%s p=%016x merged=%s\n",
			ud.A, ud.B, ud.Sym, math.Float64bits(ud.P), tupleBytes(ud.Merged))
	}
	fmt.Fprintf(&b, "tuples=%d\n", len(r.Tuples))
	return b.String()
}

// cleanDetectorFingerprint folds a schedule prefix through a fresh
// (never-crashed, non-durable) Detector and fingerprints its Flush.
func cleanDetectorFingerprint(tb testing.TB, schema []string, opts core.Options, ops []testOp) string {
	tb.Helper()
	det, err := core.NewDetector(schema, opts, nil)
	if err != nil {
		tb.Fatal(err)
	}
	for _, op := range ops {
		if err := applyOp(det, op); err != nil {
			tb.Fatalf("clean detector: %v", err)
		}
	}
	return resultFingerprint(det.Flush(), det.Stats())
}

// cleanIntegratorFingerprint is cleanDetectorFingerprint one layer up.
func cleanIntegratorFingerprint(tb testing.TB, schema []string, opts core.Options, ops []testOp) string {
	tb.Helper()
	ig, err := resolve.NewIntegrator(schema, opts, nil)
	if err != nil {
		tb.Fatal(err)
	}
	for _, op := range ops {
		if err := applyOp(ig, op); err != nil {
			tb.Fatalf("clean integrator: %v", err)
		}
	}
	r, err := ig.Flush()
	if err != nil {
		tb.Fatal(err)
	}
	return resolutionFingerprint(r)
}
