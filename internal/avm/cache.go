package avm

import (
	"math/bits"
	"sync"
)

// DefaultCacheCapacity is the entry bound of NewMatcher's private cache
// and of NewCache given no positive capacity. At 24 bytes per
// slot this is 1.5 MiB — enough to hold every distinct value pair of
// mid-sized relations while staying bounded on adversarial ones.
const DefaultCacheCapacity = 1 << 16

// cacheShards is the number of lock stripes. A power of two so the shard
// index is a mask; 64 stripes keep contention negligible for any sane
// worker count.
const cacheShards = 64

// initialSlots is the length of a stripe's slot array at its first
// insert; it doubles from there up to the stripe's share of the capacity.
const initialSlots = 8

// probeWindow is how many consecutive slots, starting at its home slot,
// a key may occupy. Lookups scan at most this many.
const probeWindow = 8

// symKey identifies one memoized comparison: the attribute (comparison
// functions differ per attribute) and the canonically ordered pair of
// interned value symbols (see internal/sym) — a 12-byte integer triple,
// cheap to hash, compare and store, and independent of value length.
// Symbol 0 is never interned, so a zero a marks an empty slot.
type symKey struct {
	attr uint32
	a, b uint32
}

// cacheSlot is one memoized similarity.
type cacheSlot struct {
	key symKey
	v   float64
}

// cacheShard is one lock stripe of the cache: a power-of-two slot array
// probed linearly from each key's home slot.
type cacheShard struct {
	mu     sync.Mutex
	slots  []cacheSlot
	n      int // occupied slots
	hits   uint64
	misses uint64
	evics  uint64
}

// Cache is a sharded, bounded, concurrency-safe memo of value-pair
// similarities, shared by all matchers (and therefore all detection
// workers) of a run that opts in to it. Entries are striped over cacheShards lock-protected
// slot arrays by a hash of attribute and value pair, so concurrent
// lookups of different pairs rarely contend.
//
// A key lives within probeWindow slots of its home slot, and no slot is
// ever emptied once filled, so a lookup stops at the first empty slot or
// at the end of the window. A stripe's slot array doubles when an
// insert finds its window full, up to the stripe's share of the
// capacity; at that bound the insert replaces its home slot in place
// and counts one eviction. Replacement keeps the slot occupied, so no
// other key's probe chain breaks, and the footprint stays bounded in
// bytes, not just in entries, however long the cache churns. The hit
// path keeps no recency bookkeeping.
//
// The zero Cache is not usable; use NewCache.
type Cache struct {
	shards   [cacheShards]cacheShard
	perShard int
}

// CacheStats aggregates the counters of all shards.
type CacheStats struct {
	// Entries is the current number of memoized value pairs.
	Entries int
	// Capacity is the configured entry bound.
	Capacity int
	// Hits and Misses count lookups since construction.
	Hits, Misses uint64
	// Evictions counts entries dropped to respect the bound.
	Evictions uint64
}

// HitRate returns the fraction of lookups served from the cache.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// NewCache builds a similarity cache bounded to roughly the given number
// of entries (rounded up so each stripe's share is a power of two;
// capacity ≤ 0 means DefaultCacheCapacity).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	perShard := (capacity + cacheShards - 1) / cacheShards
	return &Cache{perShard: 1 << bits.Len(uint(perShard-1))}
}

// hashKey mixes a key multiplicatively; the top bits carry the entropy,
// so the stripe and the home slot are both taken there.
func hashKey(k symKey) uint64 {
	const mix = 0x9E3779B97F4A7C15
	h := (uint64(k.attr)*mix ^ uint64(k.a)) * mix
	return (h ^ uint64(k.b)) * mix
}

// shardOf returns the stripe of hash h (its top six bits).
func (c *Cache) shardOf(h uint64) *cacheShard {
	return &c.shards[h>>(64-6)]
}

// home returns the home slot of hash h: the bits right below the
// stripe index.
func (s *cacheShard) home(h uint64) int {
	return int(h << 6 >> (64 - bits.TrailingZeros(uint(len(s.slots)))))
}

// probe scans k's window. It returns k's slot and true, or the first
// empty slot and false, or -1 when the window is full of other keys.
func (s *cacheShard) probe(k symKey, h uint64) (int, bool) {
	mask := len(s.slots) - 1
	home := s.home(h)
	for i := range min(probeWindow, len(s.slots)) {
		j := (home + i) & mask
		if key := s.slots[j].key; key == k {
			return j, true
		} else if key.a == 0 {
			return j, false
		}
	}
	return -1, false
}

// get returns the memoized similarity of the key.
func (c *Cache) get(k symKey) (float64, bool) {
	h := hashKey(k)
	s := c.shardOf(h)
	s.mu.Lock()
	j, ok := s.probe(k, h)
	var v float64
	if ok {
		v = s.slots[j].v
		s.hits++
	} else {
		s.misses++
	}
	s.mu.Unlock()
	return v, ok
}

// put memoizes the similarity of the key, growing the stripe before it
// replaces anything. Racing puts of the same key are idempotent because
// comparison functions are deterministic.
func (c *Cache) put(k symKey, v float64) {
	h := hashKey(k)
	s := c.shardOf(h)
	s.mu.Lock()
	if s.slots == nil {
		s.slots = make([]cacheSlot, min(initialSlots, c.perShard))
	}
	for !s.place(cacheSlot{key: k, v: v}, h, len(s.slots) >= c.perShard) {
		s.grow(c.perShard)
	}
	s.mu.Unlock()
}

// place stores sl (whose key hashes to h) in its window. When the
// window is full of other keys it reports false, unless atBound is set:
// then sl replaces its home slot in place and counts one eviction.
func (s *cacheShard) place(sl cacheSlot, h uint64, atBound bool) bool {
	j, found := s.probe(sl.key, h)
	switch {
	case j < 0 && !atBound:
		return false
	case j < 0:
		j = s.home(h)
		s.evics++
	case !found:
		s.n++
	}
	s.slots[j] = sl
	return true
}

// grow doubles the slot array and re-places every entry, doubling again
// if an entry's new window overflows. Only an array at the bound drops
// an overflowing entry, as an eviction.
func (s *cacheShard) grow(bound int) {
	old := s.slots
	size := len(old)
resize:
	for {
		size *= 2
		s.slots, s.n = make([]cacheSlot, size), 0
		for _, sl := range old {
			if sl.key.a != 0 && !s.place(sl, hashKey(sl.key), size >= bound) {
				continue resize
			}
		}
		return
	}
}

// Len returns the current number of memoized entries.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.n
		s.mu.Unlock()
	}
	return n
}

// Capacity returns the configured entry bound (total across shards).
func (c *Cache) Capacity() int { return c.perShard * cacheShards }

// Stats aggregates hit/miss/eviction counters across shards.
func (c *Cache) Stats() CacheStats {
	st := CacheStats{Capacity: c.Capacity()}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Entries += s.n
		st.Hits += s.hits
		st.Misses += s.misses
		st.Evictions += s.evics
		s.mu.Unlock()
	}
	return st
}

// SizeByAttr counts the memoized entries of each of the first nattrs
// attributes (diagnostics; walks every shard).
func (c *Cache) SizeByAttr(nattrs int) []int {
	out := make([]int, nattrs)
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for _, sl := range s.slots {
			if sl.key.a != 0 && int(sl.key.attr) < nattrs {
				out[sl.key.attr]++
			}
		}
		s.mu.Unlock()
	}
	return out
}
