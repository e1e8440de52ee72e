// Package core orchestrates the complete duplicate detection pipeline for
// probabilistic data (Sec. III's five steps, adapted per Secs. IV and V):
//
//	data preparation → search space reduction → attribute value matching
//	→ decision model (with x-tuple derivation) → verification
//
// The pipeline operates on x-relations; dependency-free probabilistic
// relations are lifted losslessly (each tuple becomes a one-alternative
// x-tuple whose attribute values stay uncertain).
//
// The engine is streaming at its core: candidate pairs are enumerated
// one at a time by the reduction method (ssr.Method) into one bounded
// chunk, verified through the worker pool, and either emitted through
// a callback (DetectStream, memory proportional to the relation) or
// collected into an exact, deterministically ordered Result (Detect).
//
// Three entry points share the engine machinery:
//
//   - Detect / DetectRelations materialize the exact batch Result;
//   - DetectStream emits matches through a callback and retains no
//     per-pair state;
//   - Detector is the long-lived online engine: tuples arrive (Add,
//     AddBatch) and leave (Remove), each arrival is compared only
//     against the candidates produced by incremental index maintenance
//     (ssr.IncrementalIndex) — an operation's additions are verified
//     through the same worker pool, and deltas are emitted
//     outside the internal lock so the callback can re-enter — and
//     Flush materializes exactly the Result Detect would produce on
//     the resident relation, restricted to M ∪ P (a pair compared as
//     U is counted, never kept): the continuous-arrival workload of
//     the paper's Sec. III pipeline, without re-running it per tuple.
//
// All entry points validate options identically (thresholds, the
// comparison-function arity against the schema, the decision model's
// arity per decision.ValidateArity). No entry point memoizes value-pair
// similarities unless Options.CacheCapacity opts in to one bounded
// avm.Cache per run, shared by its workers and successive arrivals.
package core
