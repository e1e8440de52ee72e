// Package wal makes the online engines durable: it persists the state
// the paper's continuous pipeline accumulates (Sec. III's pipeline
// run incrementally — the resident x-relation, the live classified
// pair set of the decision model, and the bounded-staleness reduction
// index of Sec. IV) as a versioned binary snapshot plus a write-ahead
// log, so a crashed process recovers bit-identically to one that
// never crashed.
//
// The durability protocol is log-then-apply: every mutating operation
// (Add, AddBatch, Remove) first appends one CRC-framed record
// to the current WAL segment — a failed append rejects the operation
// with engine state unchanged — and only then reaches the in-memory
// engine. Recovery loads the newest intact snapshot and replays the
// tail of the log through the engine's own fold paths, which is what
// makes recovered state exact rather than approximate: replay re-runs
// the same deterministic code the live process ran. Deltas are gated
// during replay (they were already delivered before the crash) and
// flow again from the first post-recovery operation. A checkpoint
// (snapshot, WAL rotation, removal of the files it covers) follows any
// operation that leaves the log behind the newest snapshot at
// max(snapshot size, 1 MiB) bytes or more, so recovery reads one
// snapshot and a bounded tail however long the engine has run.
//
// On-disk layout, per state directory: a LOCK file held via flock
// (ErrStateLocked when another live process owns it),
// snapshot-<seq>.snap files installed atomically (write temp, fsync,
// rename, fsync directory), and wal-<seq>.log segments whose records
// are framed as [u32 length][u32 CRC32][payload]. A damaged record
// running to the end of the final segment is a torn tail — the crash
// interrupted an unacknowledged write — and is silently truncated;
// the same damage with intact bytes after it is interior corruption
// and recovery refuses loudly with the byte offset
// (*CorruptRecordError). A record whose CRC matches but which does not
// decode is never a torn tail and is refused wherever it sits — among
// them the forced-reseal records (op 4) older builds wrote, which this
// log no longer replays; such a directory must first be closed cleanly
// by the build that wrote it.
//
// DurableDetector and DurableIntegrator wrap core.Detector and
// resolve.Integrator with this contract. They have no Reseal: inside
// them the epoch tier (BlockingCluster) reseals in-band only, within a
// logged Add, AddBatch or Remove, so replay reproduces every reseal.
// FaultFile injects write
// failures at chosen points so the crash-recovery equivalence is
// provable at every write boundary rather than assumed.
package wal
