// Package probdedup is a library for duplicate detection in probabilistic
// data, implementing Panse, van Keulen, de Keijzer and Ritter: "Duplicate
// Detection in Probabilistic Data" (ICDE 2010 workshops).
//
// The library models probabilistic relations with uncertainty on tuple
// level (membership probability p(t)) and attribute value level (discrete
// distributions including non-existence ⊥), both with and without the
// Trio-style x-tuple concept, and provides:
//
//   - attribute value matching for uncertain values (expected similarity,
//     Eq. 4/5 of the paper),
//   - decision models: knowledge-based identification rules and the
//     probabilistic Fellegi–Sunter theory (with EM parameter estimation),
//   - x-tuple decision models: similarity-based, decision-based, and
//     expected-matching-result derivations (Fig. 6, Eq. 6–9),
//   - search-space reduction adapted to probabilistic data: four sorted
//     neighborhood variants and three blocking variants (Sec. V),
//   - verification metrics, a synthetic dataset generator, and a text
//     codec for probabilistic relations.
//
// Quickstart:
//
//	r1, r2 := ... // *probdedup.Relation with probabilistic values
//	res, err := probdedup.DetectRelations(r1, r2, probdedup.Options{
//	    Final: probdedup.Thresholds{Lambda: 0.4, Mu: 0.7},
//	})
//	for p := range res.Matches { fmt.Println(p.A, "duplicates", p.B) }
//
// Two entry points share one streaming engine. Detect materializes the
// exact result (every compared pair, deterministically ordered, with
// similarity and class), which costs memory proportional to the
// candidate pair count. DetectStream emits matches through a callback
// and retains nothing, so memory stays proportional to the relation
// for the blocking and single-pass sorted-neighborhood reductions —
// the right choice for large inputs:
//
//	stats, err := probdedup.DetectStream(u, opts, func(m probdedup.PairMatch) bool {
//	    if m.Class == probdedup.ClassM { fmt.Println(m.Pair.A, "duplicates", m.Pair.B) }
//	    return true // false stops the run early
//	})
//
// Options.Workers parallelizes matching through one worker pool in
// every engine. The worker count changes only throughput: never the
// classifications, DetectStream's emission order or stats (an opted-in
// memo's counters aside), or a Detector's delta stream.
//
// For continuously arriving data, NewDetector maintains the classified
// pair set online (Add/AddBatch/Remove) for every built-in reduction —
// exact at every prefix, except BlockingCluster which runs on a
// bounded-staleness tier (see EpochIndex) — and
// NewIntegrator layers the paper's Sec. VI integration on top: a live
// entity set with uncertain duplicates and lineage, maintained by
// component-local rebuilds and reported as typed EntityDelta events —
// Flush always equals batch Resolve over Detect on the residents.
//
// See the examples directory for complete programs and ARCHITECTURE.md /
// EXPERIMENTS.md for the mapping to the paper.
package probdedup

import (
	"probdedup/internal/avm"
	"probdedup/internal/cluster"
	"probdedup/internal/codec"
	"probdedup/internal/core"
	"probdedup/internal/dataset"
	"probdedup/internal/decision"
	"probdedup/internal/fusion"
	"probdedup/internal/keys"
	"probdedup/internal/lineage"
	"probdedup/internal/pdb"
	"probdedup/internal/prepare"
	"probdedup/internal/rank"
	"probdedup/internal/resolve"
	"probdedup/internal/ssr"
	"probdedup/internal/strsim"
	"probdedup/internal/verify"
	"probdedup/internal/wal"
	"probdedup/internal/worlds"
	"probdedup/internal/xmatch"
)

// ---- Probabilistic data model ----

type (
	// Value is a single domain value; the zero Value is ⊥ (non-existence).
	Value = pdb.Value
	// Alternative is one (value, probability) entry of a distribution.
	Alternative = pdb.Alternative
	// Dist is a discrete distribution over attribute values; unassigned
	// mass is ⊥.
	Dist = pdb.Dist
	// Tuple is a probabilistic tuple of the dependency-free model.
	Tuple = pdb.Tuple
	// Relation is a probabilistic relation of the dependency-free model.
	Relation = pdb.Relation
	// Alt is one alternative of an x-tuple.
	Alt = pdb.Alt
	// XTuple is a Trio-style x-tuple of mutually exclusive alternatives.
	XTuple = pdb.XTuple
	// XRelation is a relation of x-tuples.
	XRelation = pdb.XRelation
)

// Null is the non-existence marker ⊥.
var Null = pdb.Null

// V returns an existing domain value.
func V(s string) Value { return pdb.V(s) }

// NewDist builds a distribution from alternatives (remaining mass is ⊥).
func NewDist(alts ...Alternative) (Dist, error) { return pdb.NewDist(alts...) }

// MustDist is NewDist that panics on error; for literals.
func MustDist(alts ...Alternative) Dist { return pdb.MustDist(alts...) }

// Certain returns a distribution concentrated on one value.
func Certain(s string) Dist { return pdb.Certain(s) }

// CertainNull returns the certainly-⊥ distribution.
func CertainNull() Dist { return pdb.CertainNull() }

// Uniform returns a uniform distribution over the given values (the finite
// expansion of pattern values like the paper's 'mu*').
func Uniform(values ...string) Dist { return pdb.Uniform(values...) }

// NewTuple builds a probabilistic tuple with membership probability p.
func NewTuple(id string, p float64, attrs ...Dist) *Tuple { return pdb.NewTuple(id, p, attrs...) }

// NewRelation builds an empty relation with the given schema.
func NewRelation(name string, schema ...string) *Relation { return pdb.NewRelation(name, schema...) }

// NewAlt builds an x-tuple alternative from certain values.
func NewAlt(p float64, values ...string) Alt { return pdb.NewAlt(p, values...) }

// NewAltDists builds an x-tuple alternative with uncertain values.
func NewAltDists(p float64, values ...Dist) Alt { return pdb.NewAltDists(p, values...) }

// NewXTuple builds an x-tuple from alternatives.
func NewXTuple(id string, alts ...Alt) *XTuple { return pdb.NewXTuple(id, alts...) }

// NewXRelation builds an empty x-relation with the given schema.
func NewXRelation(name string, schema ...string) *XRelation {
	return pdb.NewXRelation(name, schema...)
}

// ---- Comparison functions (Sec. III-C) ----

type (
	// CompareFunc is a normalized similarity on certain strings.
	CompareFunc = strsim.Func
	// Glossary is a synonym-group ("semantic") comparison function.
	Glossary = strsim.Glossary
)

// Comparison functions re-exported from the strsim package.
var (
	Exact                  = strsim.Exact
	NormalizedHamming      = strsim.NormalizedHamming
	Levenshtein            = strsim.Levenshtein
	DamerauLevenshtein     = strsim.DamerauLevenshtein
	Jaro                   = strsim.Jaro
	JaroWinkler            = strsim.JaroWinkler
	LongestCommonSubstring = strsim.LongestCommonSubstring
	CommonPrefix           = strsim.CommonPrefix
	TokenJaccard           = strsim.TokenJaccard
	TokenCosine            = strsim.TokenCosine
	Soundex                = strsim.Soundex
)

// BandedLevenshtein returns a thresholded Levenshtein variant: pairs at
// least minSim similar get their exact similarity, more dissimilar pairs
// short-circuit to 0 through a banded early-exit edit distance. Use when
// everything below minSim classifies identically anyway (minSim ≤ Tλ).
func BandedLevenshtein(minSim float64) CompareFunc { return strsim.BandedLevenshtein(minSim) }

// LevenshteinWithin reports the edit distance of a and b when it is at
// most maxDist, computing only the diagonal band of the DP matrix.
func LevenshteinWithin(a, b string, maxDist int) (int, bool) {
	return strsim.LevenshteinWithin(a, b, maxDist)
}

// NumericAbs returns an absolute-difference numeric comparison function.
func NumericAbs(scale float64) CompareFunc { return strsim.NumericAbs(scale) }

// NumericRelative is the relative-difference numeric comparison function.
var NumericRelative = strsim.NumericRelative

// QGramDice returns the Dice q-gram comparison function.
func QGramDice(q int) CompareFunc { return strsim.QGramDice(q) }

// QGramJaccard returns the Jaccard q-gram comparison function.
func QGramJaccard(q int) CompareFunc { return strsim.QGramJaccard(q) }

// MongeElkan returns the token-level Monge–Elkan composition of inner.
func MongeElkan(inner CompareFunc) CompareFunc { return strsim.MongeElkan(inner) }

// NewGlossary builds a semantic comparison function from synonym groups.
func NewGlossary(fallback CompareFunc, groups ...[]string) *Glossary {
	return strsim.NewGlossary(fallback, groups...)
}

// ---- Attribute value matching (Sec. IV-A) ----

// AttrSim computes the expected similarity of two uncertain attribute
// values (Eq. 5), with sim(⊥,⊥)=1 and sim(a,⊥)=0.
func AttrSim(f CompareFunc, a1, a2 Dist) float64 { return avm.Sim(f, a1, a2) }

// EqualitySim computes the probability that two uncertain values are equal
// (Eq. 4).
func EqualitySim(a1, a2 Dist) float64 { return avm.EqualitySim(a1, a2) }

// ---- Decision models (Sec. III-D) ----

type (
	// Class is the matching value η ∈ {m,p,u}.
	Class = decision.Class
	// Thresholds separate similarities into M, P, U.
	Thresholds = decision.Thresholds
	// Model is a two-step decision model (combination + classification).
	Model = decision.Model
	// SimpleModel pairs a combination function with thresholds.
	SimpleModel = decision.SimpleModel
	// WeightedSumModel is the weighted-sum model in explicit form:
	// bit-identical to SimpleModel{Phi: WeightedSum(w...)} but
	// introspectable, so the candidate pre-filter (Options.PreFilter)
	// can bound it. The engine's default model when AltModel is nil.
	WeightedSumModel = decision.WeightedSumModel
	// Rule is a knowledge-based identification rule.
	Rule = decision.Rule
	// RuleModel is the knowledge-based decision model.
	RuleModel = decision.RuleModel
	// FellegiSunter is the probabilistic decision model.
	FellegiSunter = decision.FellegiSunter
	// Combine is a combination function φ.
	Combine = decision.Combine
	// Pattern is a binary agreement pattern.
	Pattern = decision.Pattern
	// EMResult is the outcome of EM parameter estimation.
	EMResult = decision.EMResult
)

// Matching classes.
const (
	ClassU = decision.U
	ClassP = decision.P
	ClassM = decision.M
)

// WeightedSum returns φ(c⃗) = Σ wᵢcᵢ.
func WeightedSum(weights ...float64) Combine { return decision.WeightedSum(weights...) }

// ParseRules parses identification rules in the paper's IF-THEN syntax.
func ParseRules(src string, schema []string) ([]Rule, error) {
	return decision.ParseRules(src, schema)
}

// NewFellegiSunter builds a Fellegi–Sunter model from m/u probabilities.
func NewFellegiSunter(m, u []float64, t Thresholds) (*FellegiSunter, error) {
	return decision.NewFellegiSunter(m, u, t)
}

// EstimateEM estimates m/u probabilities from unlabeled agreement patterns.
func EstimateEM(patterns []Pattern, nattrs, maxIter int, tol float64) (EMResult, error) {
	return decision.EstimateEM(patterns, nattrs, maxIter, tol)
}

// ---- X-tuple derivations (Sec. IV-B) ----

type (
	// Derivation is the x-tuple derivation function ϑ.
	Derivation = xmatch.Derivation
	// SimilarityBased is the conditional-expectation derivation (Eq. 6).
	SimilarityBased = xmatch.SimilarityBased
	// DecisionBased is the P(m)/P(u) matching-weight derivation (Eq. 7–9).
	DecisionBased = xmatch.DecisionBased
	// ExpectedEta is the expected-matching-result derivation.
	ExpectedEta = xmatch.ExpectedEta
	// MostProbableWorldDerivation uses only the most probable alternative
	// pair.
	MostProbableWorldDerivation = xmatch.MostProbableWorld
	// MaxSimDerivation is the optimistic maximum-similarity derivation.
	MaxSimDerivation = xmatch.MaxSim
)

// ---- Keys, ranking and search space reduction (Sec. V) ----

type (
	// KeyDef is a sorting/blocking key definition.
	KeyDef = keys.Def
	// KeyPart is one component of a key definition.
	KeyPart = keys.Part
	// ReductionMethod is a search-space reduction method: a Name and
	// EnumeratePairs, which yields each candidate pair once, in
	// canonical order, until yield returns false.
	ReductionMethod = ssr.Method
	// SNMMultiPass is the multi-pass-over-worlds sorted neighborhood.
	SNMMultiPass = ssr.SNMMultiPass
	// SNMCertain is sorted neighborhood over conflict-resolved keys.
	SNMCertain = ssr.SNMCertain
	// SNMAlternatives is sorted neighborhood over per-alternative keys.
	SNMAlternatives = ssr.SNMAlternatives
	// SNMRanked is sorted neighborhood over ranked uncertain keys.
	SNMRanked = ssr.SNMRanked
	// BlockingCertain is blocking over conflict-resolved keys.
	BlockingCertain = ssr.BlockingCertain
	// BlockingAlternatives is blocking with per-alternative keys.
	BlockingAlternatives = ssr.BlockingAlternatives
	// BlockingCluster is blocking by clustering uncertain keys.
	BlockingCluster = ssr.BlockingCluster
	// CrossProduct is the no-reduction baseline.
	CrossProduct = ssr.CrossProduct
	// Pruning configures the length-filter pruning heuristic of a
	// ReductionFilter.
	Pruning = ssr.Pruning
	// ReductionFilter composes a reduction method with pruning.
	ReductionFilter = ssr.Filter
	// RankStrategy selects the SNMRanked ordering.
	RankStrategy = ssr.RankStrategy
)

// Ranking strategies for SNMRanked.
const (
	ExpectedRankStrategy = ssr.ExpectedRank
	MedianKeyStrategy    = ssr.MedianKey
	ModeKeyStrategy      = ssr.ModeKey
)

// NewReductionFilter composes a reduction method with length pruning;
// a nil inner method prunes the cross product. The filter is named
// after its inner method plus "+pruned" and, like every built-in
// reduction, works online.
func NewReductionFilter(inner ReductionMethod, prune Pruning) ReductionFilter {
	return ssr.NewFilter(inner, prune)
}

// World selection strategies for SNMMultiPass.
const (
	AllWorlds        = ssr.AllWorlds
	TopWorlds        = ssr.TopWorlds
	DissimilarWorlds = ssr.DissimilarWorlds
)

// NewKeyDef builds a key definition from (attribute, prefix) parts.
func NewKeyDef(parts ...KeyPart) KeyDef { return keys.NewDef(parts...) }

// ParseKeyDef parses "name:3+job:2" against a schema.
func ParseKeyDef(src string, schema []string) (KeyDef, error) {
	return keys.ParseDef(src, schema)
}

// ExpectedRanks exposes the expected-rank computation used by SNMRanked.
func ExpectedRanks(items []rank.Item) []float64 { return rank.ExpectedRanks(items) }

// ---- Fusion and preparation ----

type (
	// FusionStrategy resolves probabilistic tuples into certain ones.
	FusionStrategy = fusion.Strategy
	// MostProbableStrategy picks the most probable world per tuple.
	MostProbableStrategy = fusion.MostProbable
	// Standardizer is the data-preparation step.
	Standardizer = prepare.Standardizer
	// Transform rewrites one certain value during preparation.
	Transform = prepare.Transform
)

// NewStandardizer builds a Standardizer with one transform per attribute.
func NewStandardizer(byAttr ...Transform) *Standardizer {
	return prepare.NewStandardizer(byAttr...)
}

// MergeXTuples fuses two matched x-tuples into one probabilistic x-tuple.
func MergeXTuples(id string, a, b *XTuple, wa, wb float64) (*XTuple, error) {
	return fusion.MergeXTuples(id, a, b, wa, wb)
}

// Preparation transforms re-exported from the prepare package.
var (
	LowerCase  = prepare.LowerCase
	TrimSpace  = prepare.TrimSpace
	StripPunct = prepare.StripPunct
)

// ---- Possible worlds ----

type (
	// World is one possible world of an x-relation.
	World = worlds.World
	// WorldChoice is one x-tuple's contribution to a world.
	WorldChoice = worlds.Choice
)

// EnumerateWorlds materializes the possible worlds of an x-relation
// (cond=true conditions on every tuple being present).
func EnumerateWorlds(xr *XRelation, cond bool, limit int) ([]World, error) {
	return worlds.Enumerate(xr, cond, limit)
}

// MostProbableWorld returns the most probable world without enumeration.
func MostProbableWorld(xr *XRelation, cond bool) World { return worlds.MostProbable(xr, cond) }

// TopKWorlds returns the k most probable worlds.
func TopKWorlds(xr *XRelation, cond bool, k int) []World { return worlds.TopK(xr, cond, k) }

// MaterializeWorld converts a world into a certain relation.
func MaterializeWorld(xr *XRelation, w World) *Relation { return worlds.Materialize(xr, w) }

// ---- Pipeline (Sec. III) ----

type (
	// Options configures a detection run.
	Options = core.Options
	// Result is the outcome of a detection run.
	Result = core.Result
	// PairMatch is one compared pair with similarity and class.
	PairMatch = core.Match
	// StreamStats summarizes a DetectStream run.
	StreamStats = core.StreamStats
	// SimCacheStats reports entry/hit/miss/eviction counters of the
	// opt-in similarity memo shared by a run's workers (see
	// Options.CacheCapacity and StreamStats.Cache).
	SimCacheStats = avm.CacheStats
	// Pair is an unordered tuple-ID pair.
	Pair = verify.Pair
	// PairSet is a set of unordered pairs.
	PairSet = verify.PairSet
	// Report holds precision/recall/F1 and the other Sec. III-E measures.
	Report = verify.Report
	// Reduction holds search-space reduction quality measures.
	Reduction = verify.Reduction
)

// NewPair canonicalizes a tuple-ID pair.
func NewPair(a, b string) Pair { return verify.NewPair(a, b) }

// Detect runs the full pipeline on an x-relation and materializes the
// exact result: every compared pair in deterministic order with
// similarity and class (Result.Compared/ByPair), plus the declared M
// and P sets. Memory grows with the candidate pair count; prefer
// DetectStream for large relations when the per-pair results need not
// be retained.
func Detect(xr *XRelation, opts Options) (*Result, error) { return core.Detect(xr, opts) }

// DetectWithStats is Detect additionally returning the run's
// StreamStats — the opt-in memo's counters and, with Options.PreFilter,
// the candidate pre-filter's effectiveness (Enumerated, Filtered,
// FilterActive) — without changing the materialized Result.
func DetectWithStats(xr *XRelation, opts Options) (*Result, StreamStats, error) {
	return core.DetectWithStats(xr, opts)
}

// DetectRelations lifts two dependency-free relations, unions them, and
// runs Detect.
func DetectRelations(r1, r2 *Relation, opts Options) (*Result, error) {
	return core.DetectRelations(r1, r2, opts)
}

// DetectStream runs the full pipeline on an x-relation and emits each
// compared pair's match through the callback instead of materializing
// a Result: candidate pairs are enumerated incrementally into one
// bounded chunk, verified through the worker pool (Options.Workers),
// emitted and discarded, so no per-pair state is retained. With the
// blocking variants, cross product, SNMCertain, SNMRanked and pruning,
// memory stays proportional to the relation rather than the candidate
// pair set; SNMMultiPass and SNMAlternatives keep their
// executed-matching set while enumerating. A nil Options.Reduction
// streams the cross product.
//
// emit is called sequentially from the caller's goroutine, in the
// reduction's enumeration order, and returns false to stop the run
// early. Classifications are identical to Detect, and the emitted
// sequence and the stats (an opted-in memo's counters aside) are the
// same at any Workers setting.
func DetectStream(xr *XRelation, opts Options, emit func(PairMatch) bool) (StreamStats, error) {
	return core.DetectStream(xr, opts, emit)
}

// Candidates collects the candidate pairs a reduction method
// enumerates into a set; a nil method means the cross product,
// mirroring a nil Options.Reduction. To visit the pairs without
// materializing them, call the method's EnumeratePairs.
func Candidates(m ReductionMethod, xr *XRelation) PairSet { return ssr.Candidates(m, xr) }

// ---- Incremental online detection ----

type (
	// Detector is the long-lived online detection engine: tuples
	// arrive (Add/AddBatch) and leave (Remove), each arrival is
	// compared only against the candidates produced by incremental
	// index maintenance — fanned out across Options.Workers when a
	// batch yields enough pairs — and Flush materializes the current
	// classified state — always exactly the Result Detect would
	// produce on the resident relation.
	Detector = core.Detector
	// DetectorBatchError reports the tuple that made an AddBatch call
	// fail and the partial-apply boundary: tuples at batch positions
	// before Index are resident with their pair decisions applied.
	// For validation failures (nil tuple, arity mismatch, duplicate
	// ID) — the only errors the built-in reductions produce — the
	// failing tuple and those after it are not resident; a comparison
	// failure (possible only with a misbehaving user-defined
	// IncrementalReduction) leaves every batch tuple resident with
	// the pair decisions up to the failing delta applied. Extract
	// with errors.As.
	DetectorBatchError = core.BatchError
	// MatchDelta is one change to a detector's live pair set M ∪ P: a
	// pair freshly classified m or p (DeltaAdd) or a retracted one
	// (DeltaDrop, after a removal or a sorted-neighborhood window
	// drift). A comparison that ends in u is counted in
	// DetectorStats.Compared and emits no delta.
	MatchDelta = core.MatchDelta
	// DeltaKind distinguishes additions from retractions.
	DeltaKind = core.DeltaKind
	// DetectorStats summarizes a detector's state and cumulative work.
	DetectorStats = core.DetectorStats
	// IncrementalIndex maintains a reduction method's candidate pair
	// set under tuple insertion and removal; see NewIncrementalIndex.
	IncrementalIndex = ssr.IncrementalIndex
	// IncrementalReduction is a ReductionMethod that can maintain its
	// candidate set online; user-defined methods implementing it plug
	// into the Detector.
	IncrementalReduction = ssr.IncrementalMethod
	// EpochIndex is an IncrementalIndex on the bounded-staleness tier:
	// between epoch reseals a bounded fraction of residents may be
	// placed by a cheap stale rule; Reseal restores batch equality and
	// Staleness reports the current drift. BlockingCluster's index is
	// the built-in example.
	EpochIndex = ssr.EpochIndex
	// IndexStaleness is an EpochIndex's drift report; the invariant
	// Drifted <= Bound*Residents holds after every operation.
	IndexStaleness = ssr.Staleness
	// CandidatePairDelta is one change to a maintained candidate set.
	CandidatePairDelta = ssr.PairDelta
)

// Delta kinds emitted by a Detector.
const (
	DeltaAdd  = core.DeltaAdd
	DeltaDrop = core.DeltaDrop
)

// ErrUnknownID is wrapped by Detector.Remove when the given tuple ID
// is not resident — never added, or already removed. Test with
// errors.Is; removal is intentionally not idempotent.
var ErrUnknownID = core.ErrUnknownID

// ErrNotIncremental is wrapped by NewIncrementalIndex (and therefore
// NewDetector) when the reduction method cannot maintain its candidate
// set online. Every built-in method is incremental, so this only
// concerns user-defined methods that do not implement
// IncrementalReduction. Test with errors.Is; the error message names
// the offending method.
var ErrNotIncremental = ssr.ErrNotIncremental

// NewDetector builds an empty online detection engine over the given
// schema. Options are validated exactly as in Detect; additionally
// the reduction method must support incremental maintenance — every
// built-in method does (also under a pruned ReductionFilter), and
// user-defined methods opt in by implementing IncrementalReduction;
// anything else fails with ErrNotIncremental. Online ingestion is
// equivalent to batch Detect on the resident relation, restricted to
// the M and P pairs, at any worker count — for BlockingCluster, at
// every epoch boundary: the index reseals in-band once more than a
// quarter of the residents were placed by the stale rule, and
// Detector.Reseal forces a boundary (see EpochIndex; Detector.Stats
// reports the staleness in between). Options.Workers fans the verification of a
// large delta batch (AddBatch, big blocks) across goroutines, without
// changing classifications or the emitted delta stream.
//
// emit receives every change to the live pair set M ∪ P as it
// happens and may be nil when only Flush snapshots are needed;
// returning false permanently stops delta delivery. The callback is
// invoked sequentially (never concurrently with itself), in
// state-change order, outside the detector's internal lock — it may
// safely call back into the detector (Stats, Len, Flush, a follow-up
// Add or Remove).
func NewDetector(schema []string, opts Options, emit func(MatchDelta) bool) (*Detector, error) {
	return core.NewDetector(schema, opts, emit)
}

// NewIncrementalIndex returns an empty incremental candidate index
// for the reduction method (nil maintains the cross product). Every
// built-in method is supported: all of them maintain the exact batch
// candidate set under insertion and removal, except BlockingCluster,
// whose index is an EpochIndex on the bounded-staleness tier. A
// user-defined method must implement IncrementalReduction; otherwise
// the call fails with an error wrapping ErrNotIncremental.
func NewIncrementalIndex(m ReductionMethod) (IncrementalIndex, error) {
	return ssr.IncrementalOf(m)
}

// ---- Entity resolution with lineage (Sec. VI outlook) ----

type (
	// Resolution is the integrated probabilistic result: fused entities,
	// uncertain duplicates, and lineage-annotated result tuples.
	Resolution = resolve.Resolution
	// Entity is one resolved real-world entity.
	Entity = resolve.Entity
	// UncertainDuplicate is a possible match kept as result uncertainty.
	UncertainDuplicate = resolve.UncertainDuplicate
	// LineageTuple is a result tuple with a lineage expression.
	LineageTuple = resolve.LTuple
	// Calibration maps similarities to duplicate probabilities.
	Calibration = resolve.Calibration
	// LineageExpr is a boolean lineage expression (ULDB-style).
	LineageExpr = lineage.Expr
	// LineageUniverse holds independent lineage symbols.
	LineageUniverse = lineage.Universe
)

// Resolve builds the integrated probabilistic result from a detection run:
// matches fuse into entities; possible matches become mutually exclusive
// merged/separate representations with lineage (the paper's Sec. VI).
func Resolve(xr *XRelation, res *Result, final Thresholds, cal Calibration) (*Resolution, error) {
	return resolve.Resolve(xr, res, final, cal)
}

// LinearCalibration interpolates duplicate probability linearly between the
// thresholds.
func LinearCalibration(t Thresholds, lo, hi float64) Calibration {
	return resolve.LinearCalibration(t, lo, hi)
}

// ---- Incremental online integration ----

type (
	// Integrator is the long-lived online integration engine: it
	// composes a Detector and folds its match-delta stream into a live
	// Resolution, rebuilding only the entity components an arrival or
	// removal touches and emitting typed EntityDelta events. See
	// NewIntegrator.
	Integrator = resolve.Integrator
	// EntityDelta is one change to the live integrated result.
	EntityDelta = resolve.EntityDelta
	// EntityDeltaKind classifies entity deltas (created, merged,
	// split, refused, retired).
	EntityDeltaKind = resolve.EntityDeltaKind
	// IntegratorStats summarizes an Integrator's state and work.
	IntegratorStats = resolve.IntegratorStats
)

// Entity delta kinds emitted by an Integrator.
const (
	// EntityCreated: a brand-new entity from fresh arrivals only.
	EntityCreated = resolve.EntityCreated
	// EntityMerged: an entity absorbed prior entities (EntityDelta.From).
	EntityMerged = resolve.EntityMerged
	// EntitySplit: an entity holds a strict subset of a prior entity's
	// members after a match drop or removal.
	EntitySplit = resolve.EntitySplit
	// EntityRefused: membership unchanged, but the entity was
	// re-derived — its uncertain-duplicate partners, lineage or
	// confidence may differ.
	EntityRefused = resolve.EntityRefused
	// EntityRetired: the entity's last member was removed.
	EntityRetired = resolve.EntityRetired
)

// NewIntegrator builds an empty online integration engine over the
// given schema — the incremental form of Resolve, one layer above
// NewDetector. Tuples arrive (Add/AddBatch) and leave (Remove); the
// composed Detector maintains the live M and P pairs and the
// integrator folds its delta stream into a live entity set: declared
// matches maintain entity membership through component-local rebuilds
// (only touched components are re-grouped; an entity's fused tuple is
// built for the event or Flush that reads it and not kept), and
// possible matches are kept as uncertain duplicates whose lineage and
// confidences are re-derived per touched entity.
//
// The exactness contract extends the Detector's one layer up: after
// any sequence of Add, AddBatch and Remove calls, Flush returns
// exactly the Resolution batch Resolve would produce over Detect on
// the resident relation, at any Options.Workers setting — and the
// emitted entity-delta stream is identical at every worker count.
// Uncertain-duplicate probabilities are calibrated like Resolve's
// default (LinearCalibration over Options.Final with lo=0.1, hi=0.9).
//
// emit receives every entity delta as it happens, sequentially and
// outside the integrator's lock (it may call back into the
// integrator); nil is allowed when only Flush snapshots are needed,
// and a false return permanently stops delivery.
func NewIntegrator(schema []string, opts Options, emit func(EntityDelta) bool) (*Integrator, error) {
	return resolve.NewIntegrator(schema, opts, emit)
}

// ---- Durable online state (snapshot + write-ahead log) ----

type (
	// Durability configures crash-safe persistence for the durable
	// online engines (see Options.Durability and OpenDurable).
	Durability = core.Durability
	// DurableDetector is a Detector whose state survives process
	// crashes: every operation is logged to a write-ahead log before it
	// is applied, periodic snapshots bound recovery time, and reopening
	// the state directory recovers the exact pre-crash state.
	DurableDetector = wal.DurableDetector
	// DurableIntegrator is an Integrator with the same durability
	// contract as DurableDetector.
	DurableIntegrator = wal.DurableIntegrator
)

// ErrStateLocked is returned by OpenDurable and OpenDurableIntegrator
// when another live process holds the state directory. Test with
// errors.Is.
var ErrStateLocked = wal.ErrStateLocked

// ErrSchemaMismatch is returned by OpenDurable and
// OpenDurableIntegrator when the state directory was written under a
// different schema. Test with errors.Is.
var ErrSchemaMismatch = wal.ErrSchemaMismatch

// ErrDurableClosed is returned by operations on a closed durable
// engine. Test with errors.Is.
var ErrDurableClosed = wal.ErrClosed

// OpenDurable opens (or creates) durable online-detection state in dir
// and recovers it: the newest snapshot is loaded and the write-ahead
// log tail is replayed through the ordinary Detector fold, so the
// recovered engine is bit-identical to one that never crashed (minus
// unacknowledged final operations whose log records did not survive).
// Operations (Add, AddBatch, Remove) are made durable before
// they are applied — group-committed per Durability.FsyncEvery — and a
// snapshot is taken once the log behind the newest snapshot has grown
// to that snapshot's size (1 MiB at least), on Checkpoint, and on
// Close, so recovery replays at most that much log. Deltas re-generated during replay are not
// re-emitted; emit sees only post-recovery changes. The open fails
// with ErrStateLocked when another process holds dir and with
// ErrSchemaMismatch when the persisted state used a different schema.
// The durable engines have no Reseal: BlockingCluster's epoch reseals
// happen in-band inside the logged operations, and replay repeats them.
// A directory whose log still holds a forced reseal written by an
// older build fails to open, changing no file; close it cleanly with
// that build first, which checkpoints and empties the log.
func OpenDurable(dir string, schema []string, opts Options, emit func(MatchDelta) bool) (*DurableDetector, error) {
	return wal.OpenDurable(dir, schema, opts, emit)
}

// OpenDurableIntegrator opens (or creates) durable online-integration
// state in dir; see OpenDurable for the durability, recovery and error
// contract.
func OpenDurableIntegrator(dir string, schema []string, opts Options, emit func(EntityDelta) bool) (*DurableIntegrator, error) {
	return wal.OpenDurableIntegrator(dir, schema, opts, emit)
}

// ---- Dataset generation and IO ----

type (
	// DatasetConfig controls synthetic dataset generation.
	DatasetConfig = dataset.Config
	// Dataset is a generated two-source corpus with ground truth.
	Dataset = dataset.Dataset
	// ClusterItem pairs a tuple ID with its uncertain key for clustering.
	ClusterItem = cluster.Item
)

// GenerateDataset builds a synthetic probabilistic corpus with ground
// truth.
func GenerateDataset(cfg DatasetConfig) *Dataset { return dataset.Generate(cfg) }

// DefaultDatasetConfig returns a medium-difficulty generator configuration.
func DefaultDatasetConfig(entities int, seed int64) DatasetConfig {
	return dataset.DefaultConfig(entities, seed)
}

// Codec functions re-exported from the codec package (text and JSON
// formats).
var (
	EncodeRelation      = codec.EncodeRelation
	DecodeRelation      = codec.DecodeRelation
	EncodeXRelation     = codec.EncodeXRelation
	DecodeXRelation     = codec.DecodeXRelation
	EncodeRelationJSON  = codec.EncodeRelationJSON
	DecodeRelationJSON  = codec.DecodeRelationJSON
	EncodeXRelationJSON = codec.EncodeXRelationJSON
	DecodeXRelationJSON = codec.DecodeXRelationJSON
	// EncodeXTupleJSON and DecodeXTupleJSON handle single tuples — the
	// NDJSON unit of incremental pipelines (pdedup -follow).
	EncodeXTupleJSON = codec.EncodeXTupleJSON
	DecodeXTupleJSON = codec.DecodeXTupleJSON
)
