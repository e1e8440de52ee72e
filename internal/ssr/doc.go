// Package ssr implements the search-space reduction methods of Sec. V,
// adapted to probabilistic data. Every method consumes an x-relation (a
// dependency-free relation is lifted first) and enumerates, one at a
// time and each once, the candidate tuple pairs that the decision model
// should compare: Method is Name plus EnumeratePairs, and Candidates
// collects an enumeration into a set.
//
// Sorted neighborhood (Sec. V-A):
//
//  1. SNMMultiPass    — one pass per possible world (all, top-k probable, or
//     greedily dissimilar worlds), union of the per-world matchings.
//  2. SNMCertain      — certain key values via a conflict resolution
//     strategy (most probable alternative ≡ most probable world).
//  3. SNMAlternatives — one key value per tuple alternative; neighboring
//     same-tuple keys are omitted; an executed-matching matrix prevents
//     duplicate matchings (Figs. 11–12).
//  4. SNMRanked       — uncertain key values ranked with an expected-rank
//     function in O(n log n) (Fig. 13).
//
// Blocking (Sec. V-B):
//
//  5. BlockingCertain      — conflict-resolved certain keys, classical
//     blocking.
//  6. BlockingAlternatives — an x-tuple joins the block of every
//     alternative key value (Fig. 14).
//  7. BlockingCluster      — clustering of uncertain key values (UK-means).
//
// CrossProduct is the no-reduction baseline, and Filter stacks the
// length-filter heuristic Sec. III-B lists alongside SNM and blocking
// (configured by Pruning) on any of them, the cross product included.
//
// For continuous arrivals, IncrementalIndex maintains a method's
// candidate set online: inserting a tuple yields exactly the pairs it
// forms (and, for windowed methods, the straddling pairs pushed out of
// the window), removing one retracts its pairs (and re-admits window
// neighbors). Three sorted-neighborhood indexes (certain, per-alternative,
// ranked) are assembled from one set of pieces (incremental_window.go):
// handleTable, a uint32 handle per resident, reused through a free list;
// chunkSeq, the one order over handles, in chunks so a splice or position
// query costs O(chunks + chunk), not O(entries); windowSeq, the only copy
// of the window arithmetic over it, emitting handle pairs; keyedSeq, its
// form sorted by key; pairNet, the only delta netting, keyed by ID pair
// or by packed handle pair; and pairLedger, the refcounted union of
// several window passes, keyed by packed handle pairs, that counts only
// the pairs covered twice or more. A handle becomes an ID only where a
// pair leaves the index, and never orders anything.
// InsertBatch on an empty SNMCertain or SNMAlternatives index skips the
// splices: one sort, sequences laid out from it, one window pass.
// SNMMultiPass has no splice of its own: its world selection depends on
// the whole relation, so its index (recomputeIndex) re-runs the batch
// stream per operation and nets the old pairs against the new in a
// pairNet; Restore defers that to the next operation, as SNMRanked's
// Restore defers placing the restored residents to one sort. Every
// exact-tier index but SNMCertain and SNMAlternatives (which a restore
// bulk-builds) is a RestoringIndex. Every built-in
// method is incremental, on one of two tiers. On the exact tier
// — every method except BlockingCluster — the maintained set equals the
// batch candidate set over the resident tuples after every operation:
// insert-one-at-a-time ≡ Candidates.
// BlockingCluster is on the bounded-staleness tier (EpochIndex):
// between epoch reseals arrivals are placed by a cheap stale rule
// (nearest sealed centroid) and equality with Candidates is
// guaranteed only at epoch boundaries, while Staleness bounds how
// many residents a stale decision placed — crossing the bound, a
// constant quarter of the residents, triggers an in-band reseal whose
// net deltas ride the ordinary Insert/Remove yield stream. The tier's
// forced Reseal has one caller, core.Detector.Reseal; nothing above the
// Detector reaches it. Methods that implement neither
// IncrementalMethod tier fail IncrementalOf with an error wrapping
// ErrNotIncremental.
//
// PreFilter rejects candidate pairs that provably stay below Tλ, over
// one packed signature layout (rows) and one cascade, reached two ways:
// Admit asks about one pair of tuples summarized in the filter's per-ID
// map, and the BlockingCertain index built by IncrementalFiltered keeps
// its members' rows per block and admits each arrival against its whole
// block in one scan.
package ssr
