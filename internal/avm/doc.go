// Package avm implements attribute value matching for probabilistic data
// (Sec. IV-A of the paper): the similarity of two uncertain attribute
// values and the comparison vectors c⃗ of tuple pairs and of the
// alternative pairs of x-tuple pairs.
//
// The similarity of two uncertain values a1, a2 over domain D̂ = D ∪ {⊥} is
//
//	sim(a1,a2) = Σ_{d1∈D̂} Σ_{d2∈D̂} P(a1=d1)·P(a2=d2) · sim(d1,d2)   (Eq. 5)
//
// with the non-existence semantics sim(⊥,⊥)=1 and sim(a,⊥)=sim(⊥,a)=0.
// For error-free data sim(d1,d2) degenerates to equality and Eq. 5 becomes
// the probability that both values are equal (Eq. 4).
//
// Matcher evaluates Eq. 5 per attribute with one comparison function per
// schema position, optionally memoizing value-pair similarities in a
// sharded, bounded, concurrency-safe Cache. A detection run that opts in
// (core.Options.CacheCapacity > 0; the default is no memo) shares one
// cache among all its matchers — across workers of a batch run and
// across the lifetime of an incremental Detector — so total memo memory
// stays capped while a pair computed once is a hit everywhere. Each stripe of
// the cache is a flat open-addressed slot array that never deletes: at
// its bound an insert overwrites a slot in place, so the memo's bytes,
// not just its entries, stay bounded however long it churns. Cache
// entries are keyed by attribute and value content, never by tuple
// identity, which is why resident-set changes (tuple removal,
// re-insertion) need no cache invalidation.
package avm
