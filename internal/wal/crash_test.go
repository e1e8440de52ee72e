package wal

import (
	"errors"
	"fmt"
	"testing"

	"probdedup/internal/core"
)

// handle wraps one open durable engine (detector or integrator) with a
// uniform fingerprint surface for the crash tests.
type handle struct {
	ops core.Engine
	d   *durable
	fp  func(tb testing.TB) string
}

func openHandle(tb testing.TB, engine, dir string, schema []string, opts core.Options) (*handle, error) {
	tb.Helper()
	switch engine {
	case "detector":
		dd, err := OpenDurable(dir, schema, opts, nil)
		if err != nil {
			return nil, err
		}
		return &handle{ops: dd, d: dd.durable, fp: func(tb testing.TB) string {
			tb.Helper()
			return resultFingerprint(dd.Flush(), dd.Stats())
		}}, nil
	case "integrator":
		dig, err := OpenDurableIntegrator(dir, schema, opts, nil)
		if err != nil {
			return nil, err
		}
		return &handle{ops: dig, d: dig.durable, fp: func(tb testing.TB) string {
			tb.Helper()
			r, err := dig.Flush()
			if err != nil {
				tb.Fatal(err)
			}
			return resolutionFingerprint(r)
		}}, nil
	}
	tb.Fatalf("unknown engine %q", engine)
	return nil, nil
}

func mustOpenHandle(tb testing.TB, engine, dir string, schema []string, opts core.Options) *handle {
	tb.Helper()
	h, err := openHandle(tb, engine, dir, schema, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return h
}

// cleanFingerprint folds a schedule prefix through a never-crashed
// plain engine and fingerprints its Flush.
func cleanFingerprint(tb testing.TB, engine string, schema []string, opts core.Options, ops []testOp) string {
	tb.Helper()
	if engine == "detector" {
		return cleanDetectorFingerprint(tb, schema, opts, ops)
	}
	return cleanIntegratorFingerprint(tb, schema, opts, ops)
}

// TestCrashAtEveryWritePoint is the headline durability proof: for
// both engines × three reduction tiers (including the bounded-
// staleness BlockingCluster) × five schedule seeds, a simulated crash
// is injected at EVERY WAL write — failing outright, tearing the
// record mid-frame, or persisting it fully before failing — and
// recovery from the surviving bytes must be bit-identical to a
// never-crashed engine fed the surviving operation prefix. The
// recovered engine then folds the remaining schedule (including the
// retried lost operation) and must land bit-identically on the
// never-crashed full run — recovery is exact both at the crash point
// and forever after.
func TestCrashAtEveryWritePoint(t *testing.T) {
	const nops = 18
	for _, engine := range []string{"detector", "integrator"} {
		for seed := int64(0); seed < 5; seed++ {
			schema, ops := genSchedule(t, seed, nops)
			for redName, red := range crashReductions(t, schema) {
				red := red
				t.Run(fmt.Sprintf("%s/%s/seed%d", engine, redName, seed), func(t *testing.T) {
					t.Parallel()
					opts := testOptions(red)
					opts.Durability = core.Durability{FsyncEvery: 1 + int(seed)%3}
					// Midpoint checkpoint on odd seeds: half the grid
					// recovers snapshot+tail, half tail-only.
					checkpointAt := -1
					if seed%2 == 1 {
						checkpointAt = len(ops) / 2
					}
					// Never-crashed references: one per surviving prefix
					// length, plus the full run.
					prefixFp := make([]string, len(ops)+1)
					for k := 0; k <= len(ops); k++ {
						prefixFp[k] = cleanFingerprint(t, engine, schema, opts, ops[:k])
					}
					for crash := 1; crash <= len(ops); crash++ {
						tear := 0
						expected := crash - 1
						switch crash % 3 {
						case 1: // torn: a prefix of the frame persists, then dropped
							tear = 4
						case 2: // fully persisted, then the write "fails"
							tear = 1 << 20
							expected = crash
						}
						runCrashCycle(t, engine, schema, opts, ops, crash, tear, expected,
							checkpointAt, prefixFp[expected], prefixFp[len(ops)])
					}
				})
			}
		}
	}
}

// runCrashCycle executes one crash/recover/compare cycle: apply the
// schedule with a FaultFile crashing at the crash-th WAL write, abort,
// reopen, and require the recovered state (and its continuation) to be
// bit-identical to the never-crashed references.
func runCrashCycle(t *testing.T, engine string, schema []string, opts core.Options, ops []testOp,
	crash, tear, expected, checkpointAt int, wantPrefix, wantFinal string) {
	t.Helper()
	dir := t.TempDir()
	h := mustOpenHandle(t, engine, dir, schema, opts)
	var injected *FaultFile
	attempts := 0
	// ensureFault (re-)wraps the current WAL file: a checkpoint rotates
	// the log, so the fault moves with it, with the crash budget reduced
	// by the write attempts already spent.
	ensureFault := func() {
		if cur, ok := h.d.log.f.(*FaultFile); ok && cur == injected {
			return
		}
		injected = &FaultFile{F: h.d.log.f, FailAt: crash - attempts, TearBytes: tear}
		h.d.log.f = injected
	}
	crashed := false
	for i, op := range ops {
		if i == checkpointAt {
			if err := h.d.Checkpoint(); err != nil {
				t.Fatalf("crash=%d: checkpoint: %v", crash, err)
			}
		}
		ensureFault()
		err := applyOp(h.ops, op)
		attempts++
		if err != nil {
			if !errors.Is(err, ErrInjectedFault) {
				t.Fatalf("crash=%d op %d: unexpected error %v", crash, i, err)
			}
			crashed = true
			break
		}
	}
	if !crashed {
		t.Fatalf("crash=%d: fault never fired (%d attempts)", crash, attempts)
	}
	h.d.Abort() // error expected: the file is "dead"

	h2 := mustOpenHandle(t, engine, dir, schema, opts)
	defer h2.d.Abort()
	if got := h2.fp(t); got != wantPrefix {
		t.Fatalf("crash=%d tear=%d: recovered state diverges from never-crashed prefix of %d ops\n--- recovered ---\n%s--- want ---\n%s",
			crash, tear, expected, got, wantPrefix)
	}
	// Continue the schedule (retrying the lost operation, if any): the
	// recovered engine must stay bit-identical to the never-crashed run.
	for i, op := range ops[expected:] {
		if err := applyOp(h2.ops, op); err != nil {
			t.Fatalf("crash=%d: continuation op %d: %v", crash, expected+i, err)
		}
	}
	if got := h2.fp(t); got != wantFinal {
		t.Fatalf("crash=%d tear=%d: continued run diverges from never-crashed full run\n--- recovered ---\n%s--- want ---\n%s",
			crash, tear, got, wantFinal)
	}
}

// TestCrashCycleSchedulesTouchEveryOp sanity-checks the generated
// schedules: across the crash-test seeds every operation kind occurs —
// otherwise the grid above would silently prove less than it claims.
func TestCrashCycleSchedulesTouchEveryOp(t *testing.T) {
	kinds := map[Op]int{}
	for seed := int64(0); seed < 5; seed++ {
		_, ops := genSchedule(t, seed, 18)
		if len(ops) == 0 {
			t.Fatalf("seed %d: empty schedule", seed)
		}
		for _, op := range ops {
			kinds[op.op]++
		}
	}
	for _, k := range []Op{OpAdd, OpAddBatch, OpRemove} {
		if kinds[k] == 0 {
			t.Fatalf("no schedule contains op %d; kinds=%v", k, kinds)
		}
	}
}

// transientFault fails exactly one call — the failAt-th Write (tearing
// it: half the frame persists) or the failAt-th Sync — and passes every
// other call through: a disk that was briefly full, not a dead process.
type transientFault struct {
	File
	failWrite, failSync int
	writes, syncs       int
	closed              bool
}

func (f *transientFault) Write(p []byte) (int, error) {
	if f.writes++; f.writes == f.failWrite {
		n, _ := f.File.Write(p[:len(p)/2])
		return n, ErrInjectedFault
	}
	return f.File.Write(p)
}

func (f *transientFault) Sync() error {
	if f.syncs++; f.syncs == f.failSync {
		return ErrInjectedFault
	}
	return f.File.Sync()
}

func (f *transientFault) Close() error {
	f.closed = true
	return f.File.Close()
}

// TestLogWriterFailStop is invariant 12: after the first failed write
// or fsync the WAL writer refuses everything, so a durable engine
// rejects further operations until reopened, the damage stays a torn
// tail, and recovery is bit-identical to the never-crashed engine on
// the acknowledged prefix. Appending past the half-written frame
// instead (the pre-fix behavior) buried it mid-segment and made the
// directory unrecoverable ("corrupt record ... CRC mismatch").
func TestLogWriterFailStop(t *testing.T) {
	const nops, failAt = 12, 5
	for _, engine := range []string{"detector", "integrator"} {
		for _, kind := range []string{"write", "sync"} {
			t.Run(engine+"/"+kind, func(t *testing.T) {
				schema, ops := genSchedule(t, 3, nops)
				opts := testOptions(crashReductions(t, schema)["blocking-certain"])
				dir := t.TempDir()
				h := mustOpenHandle(t, engine, dir, schema, opts)
				fault := &transientFault{File: h.d.log.f}
				// A torn write loses the failing record; a failed fsync
				// leaves it whole on disk, unacknowledged but replayable.
				survivors := failAt - 1
				if kind == "write" {
					fault.failWrite = failAt
				} else {
					fault.failSync = failAt
					survivors = failAt
				}
				h.d.log.f = fault
				for i, op := range ops {
					err := applyOp(h.ops, op)
					if i < failAt-1 && err != nil {
						t.Fatalf("op %d before the fault: %v", i, err)
					}
					if i >= failAt-1 && !errors.Is(err, ErrInjectedFault) {
						t.Fatalf("op %d at or after the fault: got %v, want the sticky fault", i, err)
					}
				}
				if err := h.d.Checkpoint(); !errors.Is(err, ErrInjectedFault) {
					t.Fatalf("checkpoint after the fault: got %v, want the sticky fault", err)
				}
				if got, want := h.fp(t), cleanFingerprint(t, engine, schema, opts, ops[:failAt-1]); got != want {
					t.Fatalf("live state moved past the acknowledged prefix\n--- got ---\n%s--- want ---\n%s", got, want)
				}
				if err := h.d.Abort(); !errors.Is(err, ErrInjectedFault) || !fault.closed {
					t.Fatalf("abort: err=%v closed=%t, want the sticky fault and a closed file", err, fault.closed)
				}

				h2 := mustOpenHandle(t, engine, dir, schema, opts)
				defer h2.d.Abort()
				if got, want := h2.fp(t), cleanFingerprint(t, engine, schema, opts, ops[:survivors]); got != want {
					t.Fatalf("recovered state diverges from the never-crashed prefix\n--- got ---\n%s--- want ---\n%s", got, want)
				}
				for i, op := range ops[survivors:] {
					if err := applyOp(h2.ops, op); err != nil {
						t.Fatalf("continuation op %d: %v", survivors+i, err)
					}
				}
				if got, want := h2.fp(t), cleanFingerprint(t, engine, schema, opts, ops); got != want {
					t.Fatalf("continued run diverges from the never-crashed full run\n--- got ---\n%s--- want ---\n%s", got, want)
				}
			})
		}
	}
}
