package wal

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"probdedup/internal/core"
	"probdedup/internal/pdb"
	"probdedup/internal/resolve"
)

// ErrClosed reports an operation on a closed durable engine.
var ErrClosed = errors.New("wal: durable engine is closed")

// ErrSchemaMismatch reports a state directory whose snapshot was taken
// under a different schema than the one the engine is being opened
// with. Recovering across a schema change would silently misinterpret
// every persisted distribution, so the open is refused.
var ErrSchemaMismatch = errors.New("wal: state directory schema does not match engine schema")

// snapshotEngine is what the durability layer logs, replays and
// checkpoints: the shared engine surface plus the state export. Both
// core.Detector and resolve.Integrator satisfy it.
type snapshotEngine interface {
	core.Engine
	SnapshotState() *core.DetectorState
}

// emitGate suppresses delta delivery while closed. Replaying the WAL
// re-runs operations whose deltas were already delivered before the
// crash; the gate swallows those duplicates and opens once recovery
// reaches the pre-crash state. Swallowed deltas return true — a false
// return would permanently stop delivery (the emit contract), which is
// not what suppression means.
type emitGate struct {
	open atomic.Bool
}

func gateEmit[T any](g *emitGate, emit func(T) bool) func(T) bool {
	if emit == nil {
		return nil
	}
	return func(v T) bool {
		if !g.open.Load() {
			return true
		}
		return emit(v)
	}
}

// checkpointFloor is the least log a durable engine lets grow behind
// its newest snapshot before it checkpoints: a small state still
// batches a megabyte of operations per snapshot. Tests lower it to put
// automatic checkpoints inside short schedules; an engine reads it once,
// when it opens.
var checkpointFloor int64 = 1 << 20

// durable is the shared durability mechanics under DurableDetector and
// DurableIntegrator: the log-then-apply protocol, checkpoint rotation
// and recovery. Operations first append a WAL record (a failed append
// rejects the operation with state unchanged), then apply it to the
// in-memory engine; engine-level failures are deliberately logged too,
// because replaying them fails identically, keeping recovery a pure
// fold over the log. Once the log behind the newest snapshot reaches
// max(snapshot size, floor) bytes, the operation that crossed it
// checkpoints, so recovery never reads more than that plus one record.
type durable struct {
	mu         sync.Mutex
	eng        snapshotEngine
	sd         *StateDir
	log        *LogWriter
	gate       *emitGate
	nattrs     int
	fsyncEvery int
	floor      int64  // checkpointFloor at open
	snapBytes  int64  // size of the newest snapshot
	seq        uint64 // last logged sequence number
	snapSeq    uint64 // sequence covered by the newest snapshot
	segStart   uint64 // start sequence of the live WAL segment
	closed     bool
}

// open locks the state directory, loads the newest snapshot (if any),
// rebuilds the engine through fresh or restored, replays every WAL
// segment with the emit gate closed, then opens the gate and positions
// the log for appending. Torn tails are truncated silently; interior
// corruption aborts the open loudly. fresh and restored are the plain
// engine's own constructors (core.NewDetector/core.RestoreDetector or
// their resolve counterparts).
func open[E snapshotEngine, D any](dir string, schema []string, opts core.Options, emit func(D) bool,
	fresh func([]string, core.Options, func(D) bool) (E, error),
	restored func(core.Options, func(D) bool, *core.DetectorState) (E, error),
) (*durable, E, error) {
	var eng E
	if dir == "" {
		return nil, eng, fmt.Errorf("wal: no state directory configured")
	}
	sd, err := OpenStateDir(dir)
	if err != nil {
		return nil, eng, err
	}
	gate := &emitGate{}
	gated := gateEmit(gate, emit)
	d, err := recoverInDir(sd, schema, opts.Durability, gate, func(st *core.DetectorState) (snapshotEngine, error) {
		var err error
		if st == nil {
			eng, err = fresh(schema, opts, gated)
		} else {
			eng, err = restored(opts, gated, st)
		}
		return eng, err
	})
	if err != nil {
		sd.Close()
		return nil, eng, err
	}
	return d, eng, nil
}

// recoverInDir runs recovery inside an already locked state directory;
// build makes the engine from the newest snapshot's state, or a fresh
// one when st is nil.
func recoverInDir(sd *StateDir, schema []string, dur core.Durability, gate *emitGate,
	build func(st *core.DetectorState) (snapshotEngine, error),
) (*durable, error) {
	d := &durable{
		sd:         sd,
		gate:       gate,
		nattrs:     len(schema),
		fsyncEvery: dur.FsyncEvery,
		floor:      checkpointFloor,
	}
	snapData, fileSeq, haveSnap, err := sd.LatestSnapshot()
	if err != nil {
		return nil, err
	}
	var st *core.DetectorState
	if haveSnap {
		var seq uint64
		st, seq, err = DecodeSnapshot(snapData)
		if err != nil {
			return nil, err
		}
		if seq != fileSeq {
			return nil, fmt.Errorf("wal: snapshot file for seq %d records seq %d", fileSeq, seq)
		}
		if !equalSchema(st.Schema, schema) {
			return nil, fmt.Errorf("%w: state has %q, engine has %q", ErrSchemaMismatch, st.Schema, schema)
		}
		d.snapSeq = seq
		d.snapBytes = int64(len(snapData))
	}
	if d.eng, err = build(st); err != nil {
		return nil, err
	}

	d.seq = d.snapSeq
	segs, err := sd.WALSegments()
	if err != nil {
		return nil, err
	}
	var logBytes int64 // every intact byte of log this recovery read
	for i, seg := range segs {
		data, err := os.ReadFile(seg.Path)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		tail, err := ReplayLog(data, d.nattrs, d.snapSeq, func(rec *Record) error {
			// Engine-level failures replay the failures that were logged
			// live; swallowing them keeps the fold deterministic.
			applyRecord(d.eng, rec)
			if rec.Seq > d.seq {
				d.seq = rec.Seq
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		logBytes += tail
		if tail < int64(len(data)) {
			if i != len(segs)-1 {
				// Only the segment being appended to at crash time can have
				// a torn tail; damage anywhere else is corruption.
				return nil, &CorruptRecordError{Offset: tail, Reason: "torn record in non-final WAL segment"}
			}
			if err := sd.TruncateWAL(seg, tail); err != nil {
				return nil, err
			}
		}
	}
	gate.open.Store(true)

	var f *os.File
	if len(segs) > 0 {
		f, err = sd.OpenWALAppend(segs[len(segs)-1])
		d.segStart = segs[len(segs)-1].StartSeq
	} else {
		f, err = sd.CreateWAL(d.seq)
		d.segStart = d.seq
	}
	if err != nil {
		return nil, err
	}
	d.log = NewLogWriter(f, d.nattrs, d.fsyncEvery)
	// The next reopen reads this log again (records the snapshot
	// covers included) until a checkpoint rotates it away, so all of it
	// counts toward the checkpoint threshold.
	d.log.written = logBytes
	return d, nil
}

func equalSchema(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func applyRecord(eng core.Engine, rec *Record) error {
	switch rec.Op {
	case OpAdd:
		return eng.Add(rec.Tuple)
	case OpAddBatch:
		return eng.AddBatch(rec.Batch)
	case OpRemove:
		return eng.Remove(rec.ID)
	default:
		return fmt.Errorf("wal: unknown op %d", rec.Op)
	}
}

// logThen runs the log-then-apply protocol for one operation: append
// the record (a failed append rejects the operation before any state
// change), apply it to the engine, and checkpoint once the log has
// outgrown the newest snapshot (or the floor, whichever is larger).
// apply defaults to replaying rec; AddBatch passes a wider application
// than it logs.
func (d *durable) logThen(rec *Record, apply func() error) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	rec.Seq = d.seq + 1
	if err := d.log.Append(rec); err != nil {
		return err // nothing applied; memory and disk still agree
	}
	d.seq++
	var err error
	if apply != nil {
		err = apply()
	} else {
		err = applyRecord(d.eng, rec)
	}
	if d.log.written >= max(d.snapBytes, d.floor) {
		if cerr := d.checkpointLocked(); err == nil {
			err = cerr
		}
	}
	return err
}

// Add durably inserts one tuple (see core.Detector.Add). A nil tuple
// is rejected by the engine without touching the log.
func (d *durable) Add(x *pdb.XTuple) error {
	if x == nil {
		return d.eng.Add(nil)
	}
	return d.logThen(&Record{Op: OpAdd, Tuple: x}, nil)
}

// AddBatch durably inserts a batch (see core.Detector.AddBatch). The
// logged record holds the prefix before the first nil tuple — the
// engine stops preparing the batch there anyway, so replaying the
// prefix rebuilds the identical partial-apply state.
func (d *durable) AddBatch(xs []*pdb.XTuple) error {
	logged := xs
	for i, x := range xs {
		if x == nil {
			logged = xs[:i]
			break
		}
	}
	return d.logThen(&Record{Op: OpAddBatch, Batch: logged}, func() error {
		return d.eng.AddBatch(xs)
	})
}

// Remove durably retracts a tuple by ID (see core.Detector.Remove).
func (d *durable) Remove(id string) error {
	return d.logThen(&Record{Op: OpRemove, ID: id}, nil)
}

// Checkpoint takes a snapshot of the full live state, installs it
// atomically, starts a fresh WAL segment and garbage-collects files
// the new snapshot makes redundant. After a checkpoint, recovery reads
// the snapshot plus an empty (or short) log tail.
func (d *durable) Checkpoint() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	return d.checkpointLocked()
}

func (d *durable) checkpointLocked() error {
	if err := d.log.Sync(); err != nil {
		return err
	}
	data := EncodeSnapshot(d.eng.SnapshotState(), d.seq)
	if err := d.sd.WriteSnapshot(d.seq, data); err != nil {
		return err
	}
	// Rotate only if records were appended since the live segment was
	// opened; otherwise the segment already starts at d.seq (holding no
	// durable records) and recreating it would collide.
	if d.segStart != d.seq {
		f, err := d.sd.CreateWAL(d.seq)
		if err != nil {
			// The snapshot is installed and the old segment still accepts
			// appends; the checkpoint is durable even though rotation failed.
			return err
		}
		old := d.log
		d.log = NewLogWriter(f, d.nattrs, d.fsyncEvery)
		d.segStart = d.seq
		old.Close()
	}
	d.snapSeq = d.seq
	d.snapBytes = int64(len(data))
	d.log.written = 0 // the live segment now starts at the snapshot
	// GC failures cost disk space, not correctness.
	_ = d.sd.RemoveObsolete(d.snapSeq)
	return nil
}

// Seq returns the sequence number of the last logged operation.
func (d *durable) Seq() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.seq
}

// Close checkpoints the final state and releases the directory. A
// cleanly closed engine reopens by loading one snapshot and replaying
// nothing.
func (d *durable) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	err := d.checkpointLocked()
	if cerr := d.log.Close(); err == nil {
		err = cerr
	}
	if cerr := d.sd.Close(); err == nil {
		err = cerr
	}
	return err
}

// Abort releases the directory without a final checkpoint, leaving
// recovery to the snapshot and log tail already on disk — the closest
// an in-process caller can get to being kill -9'd. The crash tests and
// the recovery benchmark use it; production code wants Close.
func (d *durable) Abort() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	err := d.log.Close()
	if cerr := d.sd.Close(); err == nil {
		err = cerr
	}
	return err
}

// detectorReads is the read-only view of a core.Detector that
// DurableDetector promotes. The mutators are deliberately absent — the
// engine itself is never embedded — so the only way to change durable
// state is through the logged operations of *durable.
type detectorReads interface {
	Flush() *core.Result
	Stats() core.DetectorStats
	Len() int
	Resident(id string) (*pdb.XTuple, bool)
	ResidentIDs() []string
}

// DurableDetector is a core.Detector whose state survives crashes: a
// write-ahead log makes every operation durable before it is applied,
// and a snapshot taken whenever the log outgrows the previous one
// bounds recovery time. Recovery is exact — reopening after a crash
// yields a detector whose Flush is bit-identical to one that never
// crashed (minus any final operations whose log records did not
// survive, which were never acknowledged).
// Flush, Stats, Len, Resident and ResidentIDs read the wrapped detector
// (see the core.Detector methods of the same names).
type DurableDetector struct {
	*durable
	detectorReads
}

// OpenDurable opens (or creates) the durable detector state in dir and
// recovers it: newest snapshot, then the WAL tail, replayed through the
// ordinary Detector fold. Deltas re-generated during replay are not
// re-emitted; emit sees only post-recovery changes. The open fails with
// ErrStateLocked if another process holds dir and ErrSchemaMismatch if
// the persisted state was built under a different schema.
func OpenDurable(dir string, schema []string, opts core.Options, emit func(core.MatchDelta) bool) (*DurableDetector, error) {
	d, det, err := open(dir, schema, opts, emit, core.NewDetector, core.RestoreDetector)
	if err != nil {
		return nil, err
	}
	return &DurableDetector{durable: d, detectorReads: det}, nil
}

// integratorReads is detectorReads for a resolve.Integrator.
type integratorReads interface {
	Flush() (*resolve.Resolution, error)
	FlushResult() *core.Result
	Stats() resolve.IntegratorStats
	Len() int
	ResidentIDs() []string
}

// DurableIntegrator is a resolve.Integrator with the same durability
// contract as DurableDetector: WAL-logged operations, snapshot
// checkpoints, and exact recovery of the live entity set. Flush,
// FlushResult, Stats, Len and ResidentIDs read the wrapped integrator
// (see the resolve.Integrator methods of the same names).
type DurableIntegrator struct {
	*durable
	integratorReads
}

// OpenDurableIntegrator opens (or creates) durable online-integration
// state in dir; see OpenDurable for the recovery and error contract.
func OpenDurableIntegrator(dir string, schema []string, opts core.Options, emit func(resolve.EntityDelta) bool) (*DurableIntegrator, error) {
	d, ig, err := open(dir, schema, opts, emit, resolve.NewIntegrator, resolve.RestoreIntegrator)
	if err != nil {
		return nil, err
	}
	return &DurableIntegrator{durable: d, integratorReads: ig}, nil
}
