package ssr

import (
	"probdedup/internal/pdb"
	"probdedup/internal/strsim"
	"probdedup/internal/verify"
)

// RankStrategy selects the ordering used by SNMRanked.
type RankStrategy int

const (
	// ExpectedRank orders by the expected-rank semantics (the default; the
	// paper's ranking-function approach, Fig. 13).
	ExpectedRank RankStrategy = iota
	// MedianKey orders by the median key value — robust against
	// low-probability outlier alternatives (see the EXPERIMENTS.md S02
	// ablation).
	MedianKey
	// ModeKey orders by the most probable key value only.
	ModeKey
)

// String names the strategy.
func (s RankStrategy) String() string {
	switch s {
	case MedianKey:
		return "median"
	case ModeKey:
		return "mode"
	default:
		return "expected"
	}
}

// Pruning configures the length-filter heuristic Sec. III-B lists
// alongside SNM and blocking: a pair survives only if, for every
// configured attribute, some pair of alternative values has a
// rune-length difference of at most MaxDiff. Length difference
// lower-bounds the edit distance, so for normalized Levenshtein-style
// comparisons the pruned pairs provably cannot reach high similarity.
// Uncertainty-aware: an x-tuple's attribute contributes the lengths of
// every alternative value (a pair is kept if *any* world could make it
// similar). Filter stacks it on a reduction method; NewFilter(nil, p)
// prunes the cross product.
type Pruning struct {
	// MaxDiff[attr] is the maximum admissible rune-length difference for
	// the attribute; attributes missing from the map are unconstrained.
	MaxDiff map[int]int
}

// lengthProfile holds, per constrained attribute, the set of rune
// lengths one tuple's alternative values take (0 for a possible ⊥).
type lengthProfile map[int]map[int]bool

// profile computes the length profile of one tuple.
func (p Pruning) profile(x *pdb.XTuple) lengthProfile {
	prof := lengthProfile{}
	for attr := range p.MaxDiff {
		ls := map[int]bool{}
		for _, alt := range x.Alts {
			if attr >= len(alt.Values) {
				continue
			}
			for _, a := range alt.Values[attr].Alternatives() {
				ls[strsim.RuneLen(a.Value.S())] = true
			}
			if alt.Values[attr].NullP() > pdb.Eps {
				ls[0] = true
			}
		}
		prof[attr] = ls
	}
	return prof
}

// lengthFilter admits the pairs of the tuples it holds profiles of
// whose lengths Pruning finds compatible; a pair naming a tuple it
// holds no profile of is rejected.
type lengthFilter struct {
	prune    Pruning
	profiles map[string]lengthProfile
}

func (p Pruning) newLengthFilter() lengthFilter {
	return lengthFilter{prune: p, profiles: map[string]lengthProfile{}}
}

// add profiles x.
func (l lengthFilter) add(x *pdb.XTuple) { l.profiles[x.ID] = l.prune.profile(x) }

// keep reports whether the filter admits the pair.
func (l lengthFilter) keep(p verify.Pair) bool {
	pa, oka := l.profiles[p.A]
	pb, okb := l.profiles[p.B]
	return oka && okb && compatibleLengths(l.prune.MaxDiff, pa, pb)
}

func compatibleLengths(maxDiff map[int]int, a, b lengthProfile) bool {
	for attr, diff := range maxDiff {
		ok := false
		for la := range a[attr] {
			for lb := range b[attr] {
				d := la - lb
				if d < 0 {
					d = -d
				}
				if d <= diff {
					ok = true
					break
				}
			}
			if ok {
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// Filter wraps another reduction method (nil: the cross product) and
// intersects its candidates with the length filter — the composition
// the paper's Sec. III-B implies (heuristics can be stacked).
type Filter struct {
	Inner Method
	Prune Pruning
}

// NewFilter composes a reduction method with length pruning; a nil
// inner method prunes the cross product.
func NewFilter(inner Method, prune Pruning) Filter {
	return Filter{Inner: inner, Prune: prune}
}

// Name implements Method: the inner method's name plus "+pruned".
func (f Filter) Name() string { return orCross(f.Inner).Name() + "+pruned" }

// EnumeratePairs implements Method: the inner method's stream is
// filtered pair by pair against length profiles computed once, so
// neither side is materialized. Pairs naming IDs outside the relation
// are dropped.
func (f Filter) EnumeratePairs(xr *pdb.XRelation, yield func(verify.Pair) bool) bool {
	l := f.Prune.newLengthFilter()
	for _, x := range xr.Tuples {
		l.add(x)
	}
	return orCross(f.Inner).EnumeratePairs(xr, func(p verify.Pair) bool {
		return !l.keep(p) || yield(p)
	})
}
