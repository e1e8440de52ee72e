package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"probdedup/internal/keys"
	"probdedup/internal/ssr"
)

// fuzzSnapshotSeeds builds a few structurally valid snapshots (empty,
// exact-tier state, epoch-tier state with centroids) for the fuzz
// corpus, alongside the committed testdata/fuzz seeds.
func fuzzSnapshotSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	var seeds [][]byte
	for _, n := range []int{0, 6, 12} {
		schema, ops := genSchedule(tb, int64(n), n)
		def, err := keys.ParseDef("name:3+job:2", schema)
		if err != nil {
			tb.Fatal(err)
		}
		var red ssr.Method = ssr.BlockingCertain{Key: def}
		if n == 12 {
			red = ssr.BlockingCluster{Key: def, K: 3, Seed: 1}
		}
		dir := tb.TempDir()
		dd, err := OpenDurable(dir, schema, testOptions(red), nil)
		if err != nil {
			tb.Fatal(err)
		}
		for _, op := range ops {
			if err := applyOp(dd, op); err != nil {
				tb.Fatal(err)
			}
		}
		seeds = append(seeds, EncodeSnapshot(dd.eng.SnapshotState(), uint64(n)))
		if err := dd.Abort(); err != nil {
			tb.Fatal(err)
		}
	}
	return seeds
}

// TestWriteFuzzSeedCorpus regenerates the committed seed corpora under
// testdata/fuzz/ when PDEDUP_WRITE_FUZZ_CORPUS=1 is set. The committed
// files give CI's fuzz smoke real snapshots and logs to mutate instead
// of starting from empty input.
func TestWriteFuzzSeedCorpus(t *testing.T) {
	if os.Getenv("PDEDUP_WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set PDEDUP_WRITE_FUZZ_CORPUS=1 to regenerate testdata/fuzz")
	}
	write := func(fuzzName string, seeds [][]byte) {
		dir := filepath.Join("testdata", "fuzz", fuzzName)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, s := range seeds {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(s)))
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%03d", i)), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	snaps := fuzzSnapshotSeeds(t)
	big := snaps[len(snaps)-1]
	flipped := append([]byte(nil), big...)
	flipped[len(flipped)/3] ^= 0x20
	write("FuzzDecodeSnapshot", append(snaps, big[:len(big)/2], flipped))
	logs := fuzzWALSeeds(t)
	corrupt := append([]byte(nil), logs[0]...)
	corrupt[frameHeader+4] ^= 0x01
	write("FuzzReplayWAL", append(logs, corrupt))
}

// FuzzDecodeSnapshot: arbitrary bytes either decode to a state whose
// re-encoding is a fixed point (encode∘decode idempotent), or fail with
// an error — never panic, never over-allocate on hostile counts.
func FuzzDecodeSnapshot(f *testing.F) {
	for _, s := range fuzzSnapshotSeeds(f) {
		f.Add(s)
		// Mutated variants steer the fuzzer into the interior of the
		// format rather than bouncing off the magic/CRC checks.
		if len(s) > 16 {
			trunc := s[:len(s)/2]
			f.Add(append([]byte(nil), trunc...))
			flip := append([]byte(nil), s...)
			flip[len(flip)/2] ^= 0x10
			f.Add(flip)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, seq, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		enc := EncodeSnapshot(st, seq)
		st2, seq2, err := DecodeSnapshot(enc)
		if err != nil {
			t.Fatalf("re-decode of re-encoded snapshot failed: %v", err)
		}
		if seq2 != seq {
			t.Fatalf("seq drifted through re-encode: %d -> %d", seq, seq2)
		}
		if enc2 := EncodeSnapshot(st2, seq2); !bytes.Equal(enc, enc2) {
			t.Fatalf("encode∘decode is not a fixed point:\n%x\nvs\n%x", enc, enc2)
		}
	})
}

// fuzzWALSeeds encodes a few real operation logs for the WAL fuzzer.
func fuzzWALSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	_, ops := genSchedule(tb, 5, 10)
	var buf []byte
	seq := uint64(0)
	for _, op := range ops {
		seq++
		rec := &Record{Seq: seq, Op: op.op, Tuple: op.x, Batch: op.xs, ID: op.id}
		b, err := appendRecord(nil, rec)
		if err != nil {
			tb.Fatal(err)
		}
		buf = append(buf, b...)
	}
	torn := append([]byte(nil), buf...)
	return [][]byte{buf, torn[:len(torn)-5]}
}

// FuzzReplayWAL: arbitrary bytes replay to a record prefix (with a
// possibly torn tail) or fail with an offset-tagged corruption error —
// never panic, never over-allocate. Replayed records re-encode and
// re-replay to the identical sequence.
func FuzzReplayWAL(f *testing.F) {
	for _, s := range fuzzWALSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		const nattrs = 3
		var recs []*Record
		tail, err := ReplayLog(data, nattrs, 0, func(rec *Record) error {
			recs = append(recs, rec)
			return nil
		})
		if err != nil {
			var ce *CorruptRecordError
			if !errors.As(err, &ce) {
				t.Fatalf("replay error is not a CorruptRecordError: %T %v", err, err)
			}
			if ce.Offset < 0 || ce.Offset > int64(len(data)) {
				t.Fatalf("corruption offset %d outside [0, %d]", ce.Offset, len(data))
			}
			return
		}
		if tail < 0 || tail > int64(len(data)) {
			t.Fatalf("tail %d outside [0, %d]", tail, len(data))
		}
		// Round trip: re-encode the accepted records and replay again.
		var buf []byte
		for _, rec := range recs {
			b, err := appendRecord(nil, rec)
			if err != nil {
				t.Fatalf("re-encode of accepted record: %v", err)
			}
			buf = append(buf, b...)
		}
		var recs2 []*Record
		tail2, err := ReplayLog(buf, nattrs, 0, func(rec *Record) error {
			recs2 = append(recs2, rec)
			return nil
		})
		if err != nil || tail2 != int64(len(buf)) {
			t.Fatalf("re-replay failed: tail=%d err=%v", tail2, err)
		}
		if len(recs2) != len(recs) {
			t.Fatalf("record count drifted: %d -> %d", len(recs), len(recs2))
		}
		for i := range recs {
			a, _ := appendRecord(nil, recs[i])
			b, _ := appendRecord(nil, recs2[i])
			if !bytes.Equal(a, b) {
				t.Fatalf("record %d drifted through re-encode", i)
			}
		}
	})
}
