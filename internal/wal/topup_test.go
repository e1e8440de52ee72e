package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"probdedup/internal/core"
	"probdedup/internal/decision"
	"probdedup/internal/pdb"
	"probdedup/internal/resolve"
	"probdedup/internal/verify"
)

// TestDecodeSnapshotErrorPaths: every structural failure of the
// snapshot codec is a loud error, never a panic or a silently wrong
// state.
func TestDecodeSnapshotErrorPaths(t *testing.T) {
	schema, ops := genSchedule(t, 3, 10)
	opts := testOptions(crashReductions(t, schema)["blocking-certain"])
	det, err := core.NewDetector(schema, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if err := applyOp(det, op); err != nil {
			t.Fatal(err)
		}
	}
	good := EncodeSnapshot(det.SnapshotState(), 10)

	cases := []struct {
		name   string
		mangle func([]byte) []byte
		errSub string
	}{
		{"too short", func(b []byte) []byte { return b[:8] }, "too short"},
		{"bad magic", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[0] ^= 0xff
			return c
		}, "magic"},
		{"crc flip", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)/2] ^= 0x01
			return c
		}, "CRC"},
		{"truncated body", func(b []byte) []byte {
			// Keep the frame valid: cut the body, recompute nothing — the
			// CRC no longer matches, which is the loud path for torn
			// snapshot files.
			return b[:len(b)-12]
		}, "CRC"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, _, err := DecodeSnapshot(c.mangle(good))
			if err == nil {
				t.Fatal("mangled snapshot accepted")
			}
			if !strings.Contains(err.Error(), c.errSub) {
				t.Fatalf("error %q does not mention %q", err, c.errSub)
			}
		})
	}

	// Round trip stays exact for the good bytes.
	st, seq, err := DecodeSnapshot(good)
	if err != nil || seq != 10 {
		t.Fatalf("good snapshot: %v (seq %d)", err, seq)
	}
	if len(st.Schema) != len(schema) {
		t.Fatalf("schema %v", st.Schema)
	}
}

// TestDecodeSnapshotVersions pins what each snapshot version may hold:
// a version 2 snapshot lists M and P pairs only, so a U record in it is
// refused; a version 1 snapshot (written when U pairs were live state)
// decodes with its U records dropped and everything else kept.
func TestDecodeSnapshotVersions(t *testing.T) {
	x := pdb.NewXTuple("a", pdb.NewAlt(1, "Tim"))
	y := pdb.NewXTuple("b", pdb.NewAlt(1, "Tom"))
	z := pdb.NewXTuple("c", pdb.NewAlt(1, "Tam"))
	st := &core.DetectorState{
		Schema:    []string{"name"},
		Residents: []*pdb.XTuple{x, y, z},
		Pairs: []core.Match{
			{Pair: verify.Pair{A: "a", B: "b"}, Sim: 0.9, Class: decision.M},
			{Pair: verify.Pair{A: "a", B: "c"}, Sim: 0.1, Class: decision.U},
			{Pair: verify.Pair{A: "b", B: "c"}, Sim: 0.6, Class: decision.P},
		},
		Compared: 3,
		Dropped:  1,
	}
	v2 := EncodeSnapshot(st, 7)
	if _, _, err := DecodeSnapshot(v2); err == nil || !strings.Contains(err.Error(), "class 0") {
		t.Fatalf("version 2 snapshot with a U pair: err = %v, want a refusal naming the class", err)
	}

	v1 := append([]byte(snapMagicV1), v2[len(snapMagic):len(v2)-4]...)
	v1 = binary.LittleEndian.AppendUint32(v1, crc32.ChecksumIEEE(v1))
	got, seq, err := DecodeSnapshot(v1)
	if err != nil {
		t.Fatalf("version 1 snapshot: %v", err)
	}
	want := []core.Match{st.Pairs[0], st.Pairs[2]}
	if seq != 7 || len(got.Residents) != 3 || got.Compared != 3 || got.Dropped != 1 || len(got.Pairs) != len(want) {
		t.Fatalf("version 1 decode: seq %d, %d residents, counters %d/%d, pairs %+v", seq, len(got.Residents), got.Compared, got.Dropped, got.Pairs)
	}
	for i := range want {
		if got.Pairs[i] != want[i] {
			t.Fatalf("version 1 pair %d = %+v, want %+v", i, got.Pairs[i], want[i])
		}
	}
	if _, err := core.RestoreDetector(core.Options{Final: decision.Thresholds{Lambda: 0.5, Mu: 0.8}}, nil, got); err != nil {
		t.Fatalf("restore of a decoded version 1 snapshot: %v", err)
	}
}

// TestCorruptRecordErrorString pins the diagnostic format operators
// grep for after a refused recovery.
func TestCorruptRecordErrorString(t *testing.T) {
	e := &CorruptRecordError{Offset: 1234, Reason: "CRC mismatch"}
	if s := e.Error(); !strings.Contains(s, "1234") || !strings.Contains(s, "CRC mismatch") {
		t.Fatalf("Error() = %q", s)
	}
}

// TestFaultFileAccessors: the fault-injection wrapper reports its
// write count and crash state.
func TestFaultFileAccessors(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "fault")
	if err != nil {
		t.Fatal(err)
	}
	ff := &FaultFile{F: f, FailAt: 2}
	if ff.Dead() || ff.Writes() != 0 {
		t.Fatalf("fresh fault file: dead=%t writes=%d", ff.Dead(), ff.Writes())
	}
	if _, err := ff.Write([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	if _, err := ff.Write([]byte("boom")); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("second write: %v", err)
	}
	if !ff.Dead() || ff.Writes() != 2 {
		t.Fatalf("after crash: dead=%t writes=%d", ff.Dead(), ff.Writes())
	}
	if err := ff.Sync(); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("sync on dead file: %v", err)
	}
	if err := ff.Close(); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("close on dead file: %v", err)
	}
}

// TestStateDirPathAndGC: Path round-trips, and RemoveObsolete sweeps
// every snapshot and fully-covered segment below the checkpoint.
func TestStateDirPathAndGC(t *testing.T) {
	dir := t.TempDir()
	sd, err := OpenStateDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer sd.Close()
	if sd.Path() != dir {
		t.Fatalf("Path() = %q, want %q", sd.Path(), dir)
	}
	for _, seq := range []uint64{0, 5, 9} {
		if err := sd.WriteSnapshot(seq, EncodeSnapshot(&core.DetectorState{Schema: []string{"a"}}, seq)); err != nil {
			t.Fatal(err)
		}
		f, err := sd.CreateWAL(seq)
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	if err := sd.RemoveObsolete(9); err != nil {
		t.Fatal(err)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snapshot-*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 || !strings.Contains(snaps[0], "0000000000000009") {
		t.Fatalf("snapshots after GC: %v", snaps)
	}
	segs, err := sd.WALSegments()
	if err != nil {
		t.Fatal(err)
	}
	// The segment at 5 holds records in (5,9], all covered by the
	// snapshot at 9, so only the live segment survives.
	if len(segs) != 1 || segs[0].StartSeq != 9 {
		t.Fatalf("segments after GC: %+v", segs)
	}
}

// TestDurableNilTuplePaths: nil tuples are rejected by the engine
// without a WAL append, and a nil inside a batch logs only the prefix
// before it — replay rebuilds the identical partial-apply state.
func TestDurableNilTuplePaths(t *testing.T) {
	schema, ops := genSchedule(t, 5, 8)
	opts := testOptions(crashReductions(t, schema)["blocking-certain"])
	dir := t.TempDir()
	dd, err := OpenDurable(dir, schema, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	seqBefore := dd.Seq()
	if err := dd.Add(nil); err == nil {
		t.Fatal("nil tuple accepted")
	}
	if dd.Seq() != seqBefore {
		t.Fatal("nil tuple reached the WAL")
	}

	var batch []*pdb.XTuple
	for _, op := range ops {
		if op.op == OpAdd {
			batch = append(batch, op.x)
		}
		if len(batch) == 2 {
			break
		}
	}
	_, more := genSchedule(t, 55, 6)
	for _, op := range more {
		if op.op == OpAdd {
			batch = append(batch, nil, op.x)
			break
		}
	}
	err = dd.AddBatch(batch)
	if err == nil {
		t.Fatal("batch with nil tuple accepted")
	}
	var be *core.BatchError
	if !errors.As(err, &be) || be.Index != 2 {
		t.Fatalf("batch error: %v", err)
	}
	fpLive := resultFingerprint(dd.Flush(), dd.Stats())
	if err := dd.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDurable(dir, schema, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if fp := resultFingerprint(re.Flush(), re.Stats()); fp != fpLive {
		t.Fatalf("partial-apply state diverges after recovery:\n%s\nvs\n%s", fp, fpLive)
	}
}

// TestDurablePassthroughs: the thin accessor surface both wrappers
// forward to their engines.
func TestDurablePassthroughs(t *testing.T) {
	schema, ops := genSchedule(t, 6, 10)
	opts := testOptions(crashReductions(t, schema)["blocking-certain"])

	dd, err := OpenDurable(t.TempDir(), schema, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer dd.Close()
	var someID string
	for _, op := range ops {
		if err := applyOp(dd, op); err != nil {
			t.Fatal(err)
		}
		if op.op == OpAdd && someID == "" {
			someID = op.x.ID
		}
	}
	if dd.Len() == 0 {
		t.Fatal("Len() = 0 after schedule")
	}
	if _, ok := dd.Resident(someID); !ok {
		t.Fatalf("Resident(%q) missing", someID)
	}

	di, err := OpenDurableIntegrator(t.TempDir(), schema, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer di.Close()
	for _, op := range ops {
		if err := applyOp(di, op); err != nil {
			t.Fatal(err)
		}
	}
	if di.Len() != dd.Len() {
		t.Fatalf("integrator Len %d, detector Len %d", di.Len(), dd.Len())
	}
	if r := di.FlushResult(); len(r.ByPair) != len(dd.Flush().ByPair) {
		t.Fatal("FlushResult diverges from the detector view")
	}
	if st := di.Stats(); st.Detector.Residents != di.Len() {
		t.Fatalf("Stats residents %d, Len %d", st.Detector.Residents, di.Len())
	}
}

// TestEmitGateDelivery: deltas flow before a crash, recovery replays
// silently, and post-recovery operations emit again — on both engine
// flavors.
func TestEmitGateDelivery(t *testing.T) {
	schema, all := genSchedule(t, 7, 44)
	ops, extra := all[:40], all[40:]
	opts := testOptions(crashReductions(t, schema)["blocking-certain"])
	dir := t.TempDir()

	var live int
	dd, err := OpenDurable(dir, schema, opts, func(core.MatchDelta) bool { live++; return true })
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if err := applyOp(dd, op); err != nil {
			t.Fatal(err)
		}
	}
	if live == 0 {
		t.Fatal("no match deltas before the crash")
	}
	dd.Abort() // simulated crash: no checkpoint

	var replayed int
	re, err := OpenDurable(dir, schema, opts, func(core.MatchDelta) bool { replayed++; return true })
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if replayed != 0 {
		t.Fatalf("recovery re-emitted %d deltas", replayed)
	}
	for _, op := range extra {
		if err := applyOp(re, op); err != nil {
			t.Fatal(err)
		}
	}
	// Removing a resident that participates in a live pair must emit
	// its drop delta — the gate is open again after recovery.
	for p := range re.Flush().ByPair {
		if err := re.Remove(p.A); err != nil {
			t.Fatal(err)
		}
		break
	}
	if replayed == 0 {
		t.Fatal("post-recovery operations emitted nothing")
	}

	// Integrator flavor: same gate, entity deltas.
	idir := t.TempDir()
	var ientity int
	di, err := OpenDurableIntegrator(idir, schema, opts, func(resolve.EntityDelta) bool { ientity++; return true })
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if err := applyOp(di, op); err != nil {
			t.Fatal(err)
		}
	}
	if ientity == 0 {
		t.Fatal("no entity deltas before the crash")
	}
	di.Abort()
	var ireplayed int
	ri, err := OpenDurableIntegrator(idir, schema, opts, func(resolve.EntityDelta) bool { ireplayed++; return true })
	if err != nil {
		t.Fatal(err)
	}
	defer ri.Close()
	if ireplayed != 0 {
		t.Fatalf("integrator recovery re-emitted %d entity deltas", ireplayed)
	}
}

// TestDecodePayloadErrorPaths drives every decoder failure branch the
// replay CRC check normally hides: truncated fixed-width fields, bad
// varints, hostile counts, invalid distributions, unknown ops and
// trailing bytes.
func TestDecodePayloadErrorPaths(t *testing.T) {
	schema, ops := genSchedule(t, 9, 6)
	var tuple *pdb.XTuple
	for _, op := range ops {
		if op.op == OpAdd {
			tuple = op.x
			break
		}
	}
	good, err := encodePayload(nil, &Record{Seq: 1, Op: OpAdd, Tuple: tuple})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		payload []byte
		errSub  string
	}{
		{"empty", nil, "truncated"},
		{"seq only", good[:8], "truncated"},
		{"unknown op", append(append([]byte(nil), good[:8]...), 0xee), "unknown op"},
		{"truncated tuple", good[:len(good)-3], "truncated"},
		{"trailing bytes", append(append([]byte(nil), good...), 0x00), "trailing"},
	}
	// A hostile collection count: claim 2^40 batch elements.
	hostile := append([]byte(nil), good[:8]...)
	hostile = append(hostile, byte(OpAddBatch))
	hostile = append(hostile, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01)
	cases = append(cases, struct {
		name    string
		payload []byte
		errSub  string
	}{"hostile count", hostile, "count"})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := decodePayload(c.payload, len(schema))
			if err == nil {
				t.Fatal("bad payload accepted")
			}
			if !strings.Contains(err.Error(), c.errSub) {
				t.Fatalf("error %q does not mention %q", err, c.errSub)
			}
		})
	}
	// The good payload round-trips.
	rec, err := decodePayload(good, len(schema))
	if err != nil || rec.Seq != 1 || rec.Op != OpAdd || rec.Tuple.ID != tuple.ID {
		t.Fatalf("good payload: %+v, %v", rec, err)
	}
}
