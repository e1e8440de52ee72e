package wal

import (
	"fmt"
	"hash/crc32"
	"io"

	"probdedup/internal/pdb"
)

// Op identifies a logged engine operation.
type Op byte

const (
	// OpAdd logs a single tuple arrival.
	OpAdd Op = 1
	// OpAddBatch logs an atomic batch arrival.
	OpAddBatch Op = 2
	// OpRemove logs a tuple retraction by ID.
	OpRemove Op = 3
	// opReseal was a forced epoch seal. It is no longer written, and a
	// log that still holds one is refused rather than replayed without
	// it; the number is never reused.
	opReseal Op = 4
)

// Record is one logged operation. Exactly one of Tuple, Batch or ID is
// populated, matching Op.
type Record struct {
	Seq   uint64
	Op    Op
	Tuple *pdb.XTuple
	Batch []*pdb.XTuple
	ID    string
}

// CorruptRecordError reports a WAL record that fails its CRC or
// structural checks with bytes still following it — interior
// corruption, which recovery must refuse loudly. A damaged record at
// the very end of the log is a torn tail (an interrupted write) and is
// silently dropped instead.
type CorruptRecordError struct {
	Offset int64
	Reason string
}

func (e *CorruptRecordError) Error() string {
	return fmt.Sprintf("wal: corrupt record at offset %d: %s", e.Offset, e.Reason)
}

// Each record is framed as [u32 payload length][u32 CRC32(payload)]
// [payload], payload = u64 seq, u8 op, op-specific body. The frame CRC
// makes torn and corrupted writes distinguishable from valid data.
const frameHeader = 8

// maxRecordLen bounds a single record frame; a length prefix beyond it
// is treated as corruption rather than an allocation request. Batches
// larger than this must be split by the writer (appendRecord enforces
// the same bound on encode).
const maxRecordLen = 1 << 30

func encodePayload(buf []byte, rec *Record) ([]byte, error) {
	e := &encoder{buf: buf}
	e.u64(rec.Seq)
	e.u8(byte(rec.Op))
	switch rec.Op {
	case OpAdd:
		e.xtuple(rec.Tuple)
	case OpAddBatch:
		e.uvarint(uint64(len(rec.Batch)))
		for _, x := range rec.Batch {
			e.xtuple(x)
		}
	case OpRemove:
		e.str(rec.ID)
	default:
		return nil, fmt.Errorf("wal: unknown op %d", rec.Op)
	}
	return e.buf, nil
}

func decodePayload(payload []byte, nattrs int) (*Record, error) {
	d := &decoder{buf: payload}
	rec := &Record{Seq: d.u64(), Op: Op(d.u8())}
	switch rec.Op {
	case OpAdd:
		rec.Tuple = d.xtuple(nattrs)
	case OpAddBatch:
		n := d.count(2)
		for i := 0; i < n && d.err == nil; i++ {
			rec.Batch = append(rec.Batch, d.xtuple(nattrs))
		}
	case OpRemove:
		rec.ID = d.str()
	case opReseal:
		d.fail("op %d (reseal) was removed; close this state directory cleanly with the previous build first (a clean Close checkpoints and empties the log)", rec.Op)
	default:
		d.fail("unknown op %d", rec.Op)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(payload) {
		return nil, fmt.Errorf("wal: record has %d trailing payload bytes", len(payload)-d.off)
	}
	return rec, nil
}

// appendRecord frames and appends one record to buf.
func appendRecord(buf []byte, rec *Record) ([]byte, error) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // frame header placeholder
	buf, err := encodePayload(buf, rec)
	if err != nil {
		return nil, err
	}
	payload := buf[start+frameHeader:]
	if len(payload) > maxRecordLen {
		return nil, fmt.Errorf("wal: record payload %d bytes exceeds limit", len(payload))
	}
	e := &encoder{buf: buf[start:start:cap(buf)]}
	e.u32(uint32(len(payload)))
	e.u32(crc32.ChecksumIEEE(payload))
	return buf, nil
}

// ReplayLog walks one WAL segment, invoking apply for every intact
// record with Seq > skipSeq (records at or below skipSeq predate the
// snapshot being recovered and are decoded but not applied, which also
// verifies their integrity). It returns the byte offset of the end of
// the last intact record, so the caller can truncate a torn tail.
//
// A damaged frame that runs to the end of the data — a truncated
// header, a length prefix pointing past EOF, a CRC mismatch on the
// final record, or a final zero-length frame (zero fill) — is a torn
// tail: the crash interrupted that write, the operation was never
// acknowledged, and the record is silently dropped. The same damage
// with intact bytes after it cannot be explained by a torn write and
// surfaces as *CorruptRecordError, and so does a non-empty payload
// whose CRC matches but which does not decode, wherever it sits: a
// torn write does not produce a valid CRC.
func ReplayLog(data []byte, nattrs int, skipSeq uint64, apply func(*Record) error) (int64, error) {
	off := 0
	for off < len(data) {
		corrupt := func(reason string) (int64, error) {
			return int64(off), &CorruptRecordError{Offset: int64(off), Reason: reason}
		}
		if len(data)-off < frameHeader {
			return int64(off), nil // torn tail: partial frame header
		}
		d := &decoder{buf: data, off: off}
		length := int(d.u32())
		sum := d.u32()
		if length > maxRecordLen {
			// A length this large is never written; if it is not simply a
			// torn header at EOF we cannot even locate the next record.
			return corrupt(fmt.Sprintf("frame length %d exceeds limit", length))
		}
		end := off + frameHeader + length
		if end > len(data) {
			return int64(off), nil // torn tail: payload cut short
		}
		payload := data[off+frameHeader : end]
		if got := crc32.ChecksumIEEE(payload); got != sum {
			if end == len(data) {
				return int64(off), nil // torn tail: final record damaged
			}
			return corrupt(fmt.Sprintf("CRC mismatch (got %08x, want %08x)", got, sum))
		}
		rec, err := decodePayload(payload, nattrs)
		if err != nil {
			if length == 0 && end == len(data) {
				return int64(off), nil // torn tail: zero fill
			}
			return corrupt(err.Error())
		}
		if rec.Seq > skipSeq {
			if err := apply(rec); err != nil {
				return int64(off), err
			}
		}
		off = end
	}
	return int64(off), nil
}

// File is the sink a LogWriter appends to. *os.File satisfies it; the
// fault-injection harness substitutes a FaultFile that fails or tears
// writes at a chosen point.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// LogWriter appends framed records to a WAL segment with group commit:
// every record is a single Write call (so a crash tears at most the
// final record), and fsync is issued once per fsyncEvery appends rather
// than per record. Sync flushes any deferred batch explicitly —
// checkpoints and clean shutdown call it before relying on the log.
//
// The writer is fail-stop: the first failed Write or Sync is sticky and
// every later Append or Sync returns it. A failed write may have left
// half a frame behind, and appending past it would bury the damage
// mid-segment, where recovery must refuse it as corruption; stopping
// keeps it a torn tail. The segment accepts appends again only through
// a reopen, which truncates the tail.
type LogWriter struct {
	f          File
	nattrs     int
	fsyncEvery int
	pending    int
	written    int64 // bytes of the records written
	buf        []byte
	err        error // first Write/Sync failure
}

// NewLogWriter wraps an append-positioned file. fsyncEvery <= 1 syncs
// after every record.
func NewLogWriter(f File, nattrs, fsyncEvery int) *LogWriter {
	if fsyncEvery < 1 {
		fsyncEvery = 1
	}
	return &LogWriter{f: f, nattrs: nattrs, fsyncEvery: fsyncEvery}
}

// Append frames rec and writes it in one call. On error the record is
// not durable and the caller must not apply the operation — the
// log-then-apply protocol keeps memory and disk consistent.
func (w *LogWriter) Append(rec *Record) error {
	if w.err != nil {
		return w.err
	}
	buf, err := appendRecord(w.buf[:0], rec)
	if err != nil {
		return err
	}
	w.buf = buf[:0]
	if _, err := w.f.Write(buf); err != nil {
		w.err = fmt.Errorf("wal: append: %w", err)
		return w.err
	}
	w.written += int64(len(buf))
	w.pending++
	if w.pending >= w.fsyncEvery {
		return w.Sync()
	}
	return nil
}

// Sync flushes the current group-commit batch; a no-op when nothing is
// pending.
func (w *LogWriter) Sync() error {
	if w.err != nil {
		return w.err
	}
	if w.pending == 0 {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		w.err = fmt.Errorf("wal: fsync: %w", err)
		return w.err
	}
	w.pending = 0
	return nil
}

// Close syncs any pending batch and closes the underlying file (also
// after a sticky failure, which it returns).
func (w *LogWriter) Close() error {
	err := w.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}
