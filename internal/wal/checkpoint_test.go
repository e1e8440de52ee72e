package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"probdedup/internal/core"
	"probdedup/internal/keys"
	"probdedup/internal/ssr"
)

// TestRecoverAtEveryBoundary is the checkpoint-placement property: for
// every operation boundary k, recovery must be bit-identical to a
// never-crashed engine fed ops[:k] regardless of where (or whether) a
// snapshot was taken — tail-only, snapshot-only, or snapshot+tail.
func TestRecoverAtEveryBoundary(t *testing.T) {
	const nops = 12
	for _, engine := range []string{"detector", "integrator"} {
		for _, redName := range []string{"blocking-certain", "blocking-cluster"} {
			for seed := int64(0); seed < 2; seed++ {
				schema, ops := genSchedule(t, seed, nops)
				red := crashReductions(t, schema)[redName]
				t.Run(fmt.Sprintf("%s/%s/seed%d", engine, redName, seed), func(t *testing.T) {
					t.Parallel()
					opts := testOptions(red)
					opts.Durability = core.Durability{FsyncEvery: 1}
					for k := 0; k <= len(ops); k++ {
						want := cleanFingerprint(t, engine, schema, opts, ops[:k])
						for _, shape := range []string{"tail-only", "snapshot-only", "snapshot+tail"} {
							dir := t.TempDir()
							h := mustOpenHandle(t, engine, dir, schema, opts)
							split := k // checkpoint position; k == split means snapshot-only
							if shape == "snapshot+tail" {
								split = k / 2
							}
							for i, op := range ops[:k] {
								if err := applyOp(h.ops, op); err != nil {
									t.Fatalf("k=%d %s op %d: %v", k, shape, i, err)
								}
								if shape != "tail-only" && i+1 == split {
									if err := h.d.Checkpoint(); err != nil {
										t.Fatalf("k=%d %s: checkpoint: %v", k, shape, err)
									}
								}
							}
							if shape == "snapshot-only" {
								if err := h.d.Checkpoint(); err != nil {
									t.Fatalf("k=%d: final checkpoint: %v", k, err)
								}
							}
							if err := h.d.Abort(); err != nil {
								t.Fatalf("k=%d %s: abort: %v", k, shape, err)
							}
							h2 := mustOpenHandle(t, engine, dir, schema, opts)
							if got := h2.fp(t); got != want {
								t.Fatalf("k=%d %s: recovered state diverges\n--- recovered ---\n%s--- want ---\n%s",
									k, shape, got, want)
							}
							if err := h2.d.Abort(); err != nil {
								t.Fatalf("k=%d %s: abort after recovery: %v", k, shape, err)
							}
						}
					}
				})
			}
		}
	}
}

// setCheckpointFloor lowers (or raises) the log floor of the engines
// the calling test opens, restoring it when the test ends. Engines read
// the floor once, at open, so a test that calls this must not be
// parallel itself; its parallel subtests only read it.
func setCheckpointFloor(t *testing.T, n int64) {
	old := checkpointFloor
	checkpointFloor = n
	t.Cleanup(func() { checkpointFloor = old })
}

// TestAutoCheckpointEquivalence drives the log-size trigger: with the
// floor lowered so automatic checkpoints fire every few operations, a
// clean Close and reopen must be bit-identical to the never-crashed
// run, and the final WAL tail must be empty (a clean restart replays
// nothing).
func TestAutoCheckpointEquivalence(t *testing.T) {
	setCheckpointFloor(t, 512)
	schema, ops := genSchedule(t, 3, 20)
	red := crashReductions(t, schema)["blocking-cluster"]
	opts := testOptions(red)
	opts.Durability = core.Durability{FsyncEvery: 2}
	want := cleanFingerprint(t, "detector", schema, opts, ops)

	dir := t.TempDir()
	h := mustOpenHandle(t, "detector", dir, schema, opts)
	checkpoints := 0
	for i, op := range ops {
		before := h.d.snapSeq
		if err := applyOp(h.ops, op); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if h.d.snapSeq != before {
			checkpoints++
		}
	}
	if checkpoints < 3 {
		t.Fatalf("%d automatic checkpoints in %d ops; the lowered floor should fire at least 3", checkpoints, len(ops))
	}
	seq := h.d.Seq()
	if err := h.d.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	h2 := mustOpenHandle(t, "detector", dir, schema, opts)
	defer h2.d.Abort()
	if got := h2.d.Seq(); got != seq {
		t.Fatalf("sequence not preserved across clean restart: got %d want %d", got, seq)
	}
	if got := h2.fp(t); got != want {
		t.Fatalf("clean restart diverges\n--- recovered ---\n%s--- want ---\n%s", got, want)
	}
	// Close checkpointed, so the live WAL segment must hold no records.
	segs := walSegments(t, dir)
	if n := len(segs); n != 1 {
		t.Fatalf("expected exactly one WAL segment after checkpointed close, got %d", n)
	}
	if fi, err := os.Stat(segs[0]); err != nil || fi.Size() != 0 {
		t.Fatalf("WAL tail not empty after checkpointed close: %v size=%d", err, fi.Size())
	}
}

// walSegments lists the WAL segment paths in a state dir, oldest first.
func walSegments(tb testing.TB, dir string) []string {
	tb.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		tb.Fatal(err)
	}
	var segs []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".log") {
			segs = append(segs, filepath.Join(dir, e.Name()))
		}
	}
	return segs
}

// buildDetectorDir folds nops schedule ops into a fresh durable
// detector state dir and returns the dir, the schema, and the schedule.
func buildDetectorDir(tb testing.TB, seed int64, nops int, opts core.Options) (string, []string, []testOp) {
	tb.Helper()
	schema, ops := genSchedule(tb, seed, nops)
	dir := tb.TempDir()
	dd, err := OpenDurable(dir, schema, opts, nil)
	if err != nil {
		tb.Fatal(err)
	}
	for i, op := range ops {
		if err := applyOp(dd, op); err != nil {
			tb.Fatalf("op %d: %v", i, err)
		}
	}
	if err := dd.Abort(); err != nil {
		tb.Fatalf("abort: %v", err)
	}
	return dir, schema, ops
}

// TestTornFinalRecordSilent: a torn final record — trailing garbage or
// a half-written frame — is dropped silently on recovery, the file is
// truncated back to the intact prefix, and the state equals the intact
// prefix exactly.
func TestTornFinalRecordSilent(t *testing.T) {
	def := func(schema []string) ssr.Method {
		d, err := keys.ParseDef("name:3+job:2", schema)
		if err != nil {
			t.Fatal(err)
		}
		return ssr.BlockingCertain{Key: d}
	}
	for _, tc := range []struct {
		name string
		// mangle returns the bytes to write back and how many intact
		// records remain.
		mangle func(data []byte, frames []int) ([]byte, int)
	}{
		{"trailing-garbage", func(data []byte, frames []int) ([]byte, int) {
			return append(data, 0xde, 0xad, 0xbe), len(frames)
		}},
		{"half-header", func(data []byte, frames []int) ([]byte, int) {
			return data[:frames[len(frames)-1]+3], len(frames) - 1
		}},
		{"half-payload", func(data []byte, frames []int) ([]byte, int) {
			return data[:frames[len(frames)-1]+frameHeader+5], len(frames) - 1
		}},
		{"final-crc-flip", func(data []byte, frames []int) ([]byte, int) {
			data[frames[len(frames)-1]+frameHeader+2] ^= 0x40
			return data, len(frames) - 1
		}},
		{"zero-header", func(data []byte, frames []int) ([]byte, int) {
			return append(data, make([]byte, frameHeader)...), len(frames)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			schema, ops := genSchedule(t, 7, 8)
			opts := testOptions(def(schema))
			opts.Durability = core.Durability{FsyncEvery: 1}
			dir := t.TempDir()
			dd, err := OpenDurable(dir, schema, opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, op := range ops {
				if err := applyOp(dd, op); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			}
			if err := dd.Abort(); err != nil {
				t.Fatal(err)
			}
			seg := walSegments(t, dir)[0]
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			frames := frameOffsets(t, data)
			if len(frames) != len(ops) {
				t.Fatalf("expected %d frames, got %d", len(ops), len(frames))
			}
			mangled, intact := tc.mangle(append([]byte(nil), data...), frames)
			if err := os.WriteFile(seg, mangled, 0o644); err != nil {
				t.Fatal(err)
			}
			want := cleanDetectorFingerprint(t, schema, opts, ops[:intact])
			dd2, err := OpenDurable(dir, schema, opts, nil)
			if err != nil {
				t.Fatalf("recovery rejected torn tail: %v", err)
			}
			defer dd2.Abort()
			if got := resultFingerprint(dd2.Flush(), dd2.Stats()); got != want {
				t.Fatalf("recovered state does not match intact prefix of %d records\n--- recovered ---\n%s--- want ---\n%s",
					intact, got, want)
			}
			// The damaged tail must have been truncated away.
			fi, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			wantLen := int64(len(data))
			if intact < len(frames) {
				wantLen = int64(frames[intact])
			}
			if fi.Size() != wantLen {
				t.Fatalf("torn tail not truncated: size=%d want %d", fi.Size(), wantLen)
			}
		})
	}
}

// TestCorruptInteriorLoud: damage to any record that is NOT the final
// one is not crash debris — recovery must refuse with a
// *CorruptRecordError carrying the exact byte offset.
func TestCorruptInteriorLoud(t *testing.T) {
	schema, _ := genSchedule(t, 7, 8)
	def, err := keys.ParseDef("name:3+job:2", schema)
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions(ssr.BlockingCertain{Key: def})
	opts.Durability = core.Durability{FsyncEvery: 1}
	dir, _, _ := buildDetectorDir(t, 7, 8, opts)
	seg := walSegments(t, dir)[0]
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	frames := frameOffsets(t, data)
	if len(frames) < 3 {
		t.Fatalf("need at least 3 frames, got %d", len(frames))
	}
	target := frames[1] // corrupt the second record's payload
	data[target+frameHeader+2] ^= 0x08
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenDurable(dir, schema, opts, nil)
	if err == nil {
		t.Fatal("recovery accepted interior corruption")
	}
	var ce *CorruptRecordError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CorruptRecordError, got %T: %v", err, err)
	}
	if ce.Offset != int64(target) {
		t.Fatalf("corruption offset: got %d, want %d", ce.Offset, target)
	}
}

// TestUndecodableRecordLoud: a record whose CRC matches but which does
// not decode was written that way, not torn, so recovery refuses it
// wherever it sits and changes no file. Forced-reseal records (op 4),
// which older builds logged, name the removed op and the way out.
func TestUndecodableRecordLoud(t *testing.T) {
	// frame encodes a payload of just seq and op under a valid header.
	frame := func(op byte) []byte {
		payload := binary.LittleEndian.AppendUint64(nil, 1<<40)
		payload = append(payload, op)
		b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
		b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
		return append(b, payload...)
	}
	schema, _ := genSchedule(t, 7, 8)
	def, err := keys.ParseDef("name:3+job:2", schema)
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions(ssr.BlockingCertain{Key: def})
	opts.Durability = core.Durability{FsyncEvery: 1}
	for _, tc := range []struct {
		name   string
		op     byte
		mid    bool // insert before the third record instead of appending
		reason string
	}{
		{"unknown-op-final", 0xee, false, "unknown op 238"},
		{"reseal-mid", 4, true, "op 4 (reseal) was removed; close this state directory cleanly with the previous build first"},
		{"reseal-final", 4, false, "op 4 (reseal) was removed; close this state directory cleanly with the previous build first"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, _, _ := buildDetectorDir(t, 7, 8, opts)
			seg := walSegments(t, dir)[0]
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			at := len(data)
			if tc.mid {
				at = frameOffsets(t, data)[2]
			}
			data = append(data[:at:at], append(frame(tc.op), data[at:]...)...)
			if err := os.WriteFile(seg, data, 0o644); err != nil {
				t.Fatal(err)
			}
			before := dirContents(t, dir)
			_, err = OpenDurable(dir, schema, opts, nil)
			var ce *CorruptRecordError
			if !errors.As(err, &ce) {
				t.Fatalf("want *CorruptRecordError, got %T: %v", err, err)
			}
			if ce.Offset != int64(at) || !strings.Contains(ce.Reason, tc.reason) {
				t.Fatalf("got offset %d reason %q, want offset %d reason containing %q", ce.Offset, ce.Reason, at, tc.reason)
			}
			if after := dirContents(t, dir); after != before {
				t.Fatalf("the refused open changed the directory\n--- before ---\n%s--- after ---\n%s", before, after)
			}
		})
	}
}

// dirContents lists each file of dir with a digest of its bytes.
func dirContents(tb testing.TB, dir string) string {
	tb.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		tb.Fatal(err)
	}
	var b strings.Builder
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			tb.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %d %08x\n", e.Name(), len(data), crc32.ChecksumIEEE(data))
	}
	return b.String()
}

// frameOffsets walks the WAL framing and returns each record's start
// offset.
func frameOffsets(tb testing.TB, data []byte) []int {
	tb.Helper()
	var offs []int
	off := 0
	for off+frameHeader <= len(data) {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if off+frameHeader+n > len(data) {
			break
		}
		offs = append(offs, off)
		off += frameHeader + n
	}
	return offs
}

// TestStateDirLocked: a second open of a live state dir must fail with
// ErrStateLocked; after the first owner closes, the dir opens cleanly.
func TestStateDirLocked(t *testing.T) {
	schema, _ := genSchedule(t, 1, 4)
	def, err := keys.ParseDef("name:3+job:2", schema)
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions(ssr.BlockingCertain{Key: def})
	dir := t.TempDir()
	dd, err := OpenDurable(dir, schema, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurable(dir, schema, opts, nil); !errors.Is(err, ErrStateLocked) {
		t.Fatalf("second open: want ErrStateLocked, got %v", err)
	}
	if err := dd.Close(); err != nil {
		t.Fatal(err)
	}
	dd2, err := OpenDurable(dir, schema, opts, nil)
	if err != nil {
		t.Fatalf("open after close: %v", err)
	}
	if err := dd2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSchemaMismatchRejected: a state dir built under one schema must
// refuse to open under another, identifying both schemas.
func TestSchemaMismatchRejected(t *testing.T) {
	schema, ops := genSchedule(t, 2, 4)
	def, err := keys.ParseDef("name:3+job:2", schema)
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions(ssr.BlockingCertain{Key: def})
	dir := t.TempDir()
	dd, err := OpenDurable(dir, schema, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if err := applyOp(dd, op); err != nil {
			t.Fatal(err)
		}
	}
	if err := dd.Close(); err != nil {
		t.Fatal(err)
	}
	other := append(append([]string(nil), schema...), "extra")
	wideOpts := testOptions(ssr.BlockingCertain{Key: def})
	wideOpts.Compare = append(wideOpts.Compare, wideOpts.Compare[0])
	if _, err := OpenDurable(dir, other, wideOpts, nil); !errors.Is(err, ErrSchemaMismatch) {
		t.Fatalf("want ErrSchemaMismatch, got %v", err)
	}
	// Same arity, different attribute name: still a mismatch.
	renamed := append([]string(nil), schema...)
	renamed[len(renamed)-1] = "renamed"
	if _, err := OpenDurable(dir, renamed, opts, nil); !errors.Is(err, ErrSchemaMismatch) {
		t.Fatalf("renamed attr: want ErrSchemaMismatch, got %v", err)
	}
}

// TestDurableInheritedTailCheckpoints reopens, at the normal floor, a
// directory whose log tail already exceeds the checkpoint threshold —
// written with the floor raised, as by an engine that never
// checkpointed. The first operation after the reopen must checkpoint,
// rotate the WAL and garbage-collect the inherited segment, and the
// state must equal the never-crashed fold.
func TestDurableInheritedTailCheckpoints(t *testing.T) {
	floor := checkpointFloor
	setCheckpointFloor(t, 1<<40)
	schema, opts, ops := wideSchedule(t, 1200)
	head, last := ops[:len(ops)-1], ops[len(ops)-1]
	dir := t.TempDir()
	h := mustOpenHandle(t, "detector", dir, schema, opts)
	for i, op := range head {
		if err := applyOp(h.ops, op); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if err := h.d.Abort(); err != nil {
		t.Fatal(err)
	}
	inherited := walSegments(t, dir)
	if snap, live, _ := logState(t, dir); len(inherited) != 1 || live < max(snap, floor) {
		t.Fatalf("setup: %d segments, tail %d B against snapshot %d B; want one segment above the threshold",
			len(inherited), live, snap)
	}

	checkpointFloor = floor
	h2 := mustOpenHandle(t, "detector", dir, schema, opts)
	defer h2.d.Abort()
	if err := applyOp(h2.ops, last); err != nil {
		t.Fatal(err)
	}
	seq := h2.d.Seq()
	if _, err := os.Stat(h2.d.sd.snapshotPath(seq)); err != nil {
		t.Fatalf("first operation after the reopen took no checkpoint: %v", err)
	}
	if segs := walSegments(t, dir); len(segs) != 1 || segs[0] != h2.d.sd.walPath(seq) {
		t.Fatalf("WAL segments after the checkpoint: %v; want only %s", segs, h2.d.sd.walPath(seq))
	}
	if _, err := os.Stat(inherited[0]); !os.IsNotExist(err) {
		t.Fatalf("inherited segment %s not garbage-collected: %v", inherited[0], err)
	}
	if got, want := h2.fp(t), cleanFingerprint(t, "detector", schema, opts, ops); got != want {
		t.Fatalf("state after the checkpoint diverges from the never-crashed fold\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
