package ssr

import (
	"slices"

	"probdedup/internal/pdb"
	"probdedup/internal/verify"
)

// recomputeIndex maintains SNMMultiPass's candidate set by re-running the
// batch enumeration over the residents after every operation. Multi-pass
// selects its possible worlds (Sec. V-A.1) from the whole relation, so
// every operation re-selects them anyway; the batch stream is the only
// implementation of the method's semantics.
//
// An operation nets the held pairs against the new stream: a drop for
// every held pair, an add for every pair the stream now yields. Pairs in
// both cancel in the pairNet, so only true changes are yielded, in
// first-affected order (old stream order for drops, new stream order for
// adds).
//
// Restore files a tuple without enumerating: it marks the held pairs
// stale, and the next Insert or Remove first enumerates the current set
// without yielding it, so restoring n residents costs one enumeration,
// not n.
type recomputeIndex struct {
	stream Method
	xr     *pdb.XRelation // the residents in insertion order
	pairs  []verify.Pair  // the candidate set, in stream order
	stale  bool           // pairs predates a Restore
	net    pairNet[verify.Pair]
}

// Incremental implements IncrementalMethod.
func (m SNMMultiPass) Incremental() (IncrementalIndex, error) {
	return &recomputeIndex{stream: m, xr: &pdb.XRelation{}}, nil
}

func (r *recomputeIndex) Len() int { return len(r.xr.Tuples) }

// Restore implements RestoringIndex.
func (r *recomputeIndex) Restore(x *pdb.XTuple) {
	r.xr.Append(x)
	r.stale = true
}

func (r *recomputeIndex) Insert(x *pdb.XTuple, yield func(PairDelta) bool) bool {
	r.settle()
	r.xr.Append(x)
	return r.recompute(yield)
}

func (r *recomputeIndex) Remove(id string, yield func(PairDelta) bool) bool {
	i := slices.IndexFunc(r.xr.Tuples, func(x *pdb.XTuple) bool { return x.ID == id })
	if i < 0 {
		return true
	}
	r.settle()
	r.xr.Tuples = slices.Delete(r.xr.Tuples, i, i+1)
	return r.recompute(yield)
}

// settle brings the held pairs up to date after a Restore, yielding
// nothing.
func (r *recomputeIndex) settle() {
	if r.stale {
		r.pairs = r.enumerate()
		r.stale = false
	}
}

// enumerate collects the stream over the residents, reusing the held
// slice's storage.
func (r *recomputeIndex) enumerate() []verify.Pair {
	out := r.pairs[:0]
	r.stream.EnumeratePairs(r.xr, func(p verify.Pair) bool {
		out = append(out, p)
		return true
	})
	return out
}

// recompute nets the held pairs against the stream over the updated
// residents and yields what changed.
func (r *recomputeIndex) recompute(yield func(PairDelta) bool) bool {
	for _, p := range r.pairs {
		r.net.add(p, true)
	}
	r.pairs = r.enumerate()
	for _, p := range r.pairs {
		r.net.add(p, false)
	}
	return r.net.flush(samePair, yield)
}

// Interface conformance checks.
var (
	_ IncrementalMethod = SNMMultiPass{}
	_ RestoringIndex    = (*recomputeIndex)(nil)
)
