package wal

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"probdedup/internal/core"
	"probdedup/internal/decision"
	"probdedup/internal/keys"
	"probdedup/internal/pdb"
	"probdedup/internal/ssr"
	"probdedup/internal/strsim"
)

// realFloor is the checkpoint floor the durable engines run at.
const realFloor = 1 << 20

// wideSchedule is a churn-like stream of wide tuples: 60 % arrivals of
// ~2 KB tuples (blocked in pairs on their name) and 40 % removals of a
// random resident, so a few thousand operations write several
// megabytes of log while the resident state stays around a megabyte.
func wideSchedule(tb testing.TB, n int) ([]string, core.Options, []testOp) {
	tb.Helper()
	schema := []string{"name", "job", "note"}
	def, err := keys.ParseDef("name:8", schema)
	if err != nil {
		tb.Fatal(err)
	}
	opts := core.Options{
		Compare:   []strsim.Func{strsim.Levenshtein, strsim.Levenshtein, strsim.NormalizedHamming},
		Reduction: ssr.BlockingCertain{Key: def},
		Final:     decision.Thresholds{Lambda: 0.6, Mu: 0.8},
		// One fsync per checkpoint: the test is about log bytes, not
		// group commit.
		Durability: core.Durability{FsyncEvery: 1 << 20},
	}
	rng := rand.New(rand.NewSource(41))
	var (
		ops      []testOp
		resident []string
		next     int
	)
	for len(ops) < n {
		if len(resident) > 0 && rng.Intn(10) < 4 {
			i := rng.Intn(len(resident))
			ops = append(ops, testOp{op: OpRemove, id: resident[i]})
			resident = append(resident[:i], resident[i+1:]...)
			continue
		}
		id := fmt.Sprintf("w%05d", next)
		x := pdb.NewXTuple(id,
			pdb.NewAlt(0.7, fmt.Sprintf("n%07d", next/2), "clerk", strings.Repeat(fmt.Sprintf("%06d", next), 170)),
			pdb.NewAlt(0.3, fmt.Sprintf("n%07d", next/2), "cleric", strings.Repeat(fmt.Sprintf("%06d", next+1), 170)))
		next++
		resident = append(resident, id)
		ops = append(ops, testOp{op: OpAdd, x: x})
	}
	return schema, opts, ops
}

// recordSize is the framed size of op's WAL record.
func recordSize(tb testing.TB, op testOp) int64 {
	tb.Helper()
	buf, err := appendRecord(nil, &Record{Op: op.op, Tuple: op.x, Batch: op.xs, ID: op.id})
	if err != nil {
		tb.Fatal(err)
	}
	return int64(len(buf))
}

// logState reads what a reopen of dir would read: the size of the
// newest snapshot (0 without one), the size of the live (newest) WAL
// segment, and the size of every segment together.
func logState(tb testing.TB, dir string) (snap, live, all int64) {
	tb.Helper()
	size := func(path string) int64 {
		fi, err := os.Stat(path)
		if err != nil {
			tb.Fatal(err)
		}
		return fi.Size()
	}
	if snaps, _ := filepath.Glob(filepath.Join(dir, "snapshot-*.snap")); len(snaps) > 0 {
		snap = size(snaps[len(snaps)-1]) // fixed-width hex names sort by sequence
	}
	segs := walSegments(tb, dir)
	for _, seg := range segs {
		all += size(seg)
	}
	if len(segs) > 0 {
		live = size(segs[len(segs)-1])
	}
	return snap, live, all
}

// TestDurableLogStaysBounded is invariant 13 at the real floor and with
// zero-value checkpoint settings: after every operation of a
// multi-megabyte churn stream, the live WAL segment holds at most
// max(newest snapshot, 1 MiB) plus the record just appended, and a
// reopen after Abort reads only that tail and lands on the
// never-crashed fold.
func TestDurableLogStaysBounded(t *testing.T) {
	schema, opts, ops := wideSchedule(t, 3000)
	dir := t.TempDir()
	h := mustOpenHandle(t, "detector", dir, schema, opts)
	var logged int64
	for i, op := range ops {
		if err := applyOp(h.ops, op); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		rec := recordSize(t, op)
		logged += rec
		snap, live, _ := logState(t, dir)
		if bound := max(snap, realFloor) + rec; live > bound {
			t.Fatalf("op %d: live segment holds %d B, above max(snapshot %d B, %d B) + record %d B",
				i, live, snap, realFloor, rec)
		}
	}
	if logged < 3*realFloor {
		t.Fatalf("schedule logged only %d B; it must cross the floor several times", logged)
	}
	seq := h.d.Seq()
	if err := h.d.Abort(); err != nil {
		t.Fatal(err)
	}
	snap, _, all := logState(t, dir)
	if bound := max(snap, realFloor) + recordSize(t, ops[len(ops)-1]); all > bound {
		t.Fatalf("reopen would read %d B of log, above max(snapshot %d B, %d B) + one record", all, snap, realFloor)
	}
	h2 := mustOpenHandle(t, "detector", dir, schema, opts)
	defer h2.d.Abort()
	if got := h2.d.Seq(); got != seq {
		t.Fatalf("reopen recovered seq %d, want %d", got, seq)
	}
	if got, want := h2.fp(t), cleanFingerprint(t, "detector", schema, opts, ops); got != want {
		t.Fatalf("reopen diverges from the never-crashed fold\n--- recovered ---\n%s--- want ---\n%s", got, want)
	}
}
