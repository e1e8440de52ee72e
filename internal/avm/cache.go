package avm

import (
	"sync"
)

// DefaultCacheCapacity is the entry bound NewMatcher and the detection
// engine use when no explicit capacity is configured. At three integers
// plus a float per entry this is a few MB — enough to hold every
// distinct value pair of mid-sized relations while staying bounded on
// adversarial ones.
const DefaultCacheCapacity = 1 << 16

// cacheShards is the number of lock stripes. A power of two so the shard
// index is a mask; 64 stripes keep contention negligible for any sane
// worker count.
const cacheShards = 64

// symKey identifies one memoized comparison: the attribute (comparison
// functions differ per attribute) and the canonically ordered pair of
// interned value symbols (see internal/sym) — a 12-byte integer triple,
// cheap to hash, compare and store, and independent of value length.
type symKey struct {
	attr uint32
	a, b uint32
}

// cacheShard is one lock stripe of the cache.
type cacheShard struct {
	mu     sync.Mutex
	m      map[symKey]float64
	hits   uint64
	misses uint64
	evics  uint64
}

// Cache is a sharded, bounded, concurrency-safe memo of value-pair
// similarities, shared by all matchers (and therefore all detection
// workers) of a run. Entries are striped over cacheShards lock-protected
// maps by a hash of attribute and value pair, so concurrent lookups of
// different pairs rarely contend. Each shard holds at most capacity/
// cacheShards entries: an insert into a full shard first evicts a batch
// of entries in map-iteration (effectively random) order. Random batch
// eviction is deliberately cheap — no recency bookkeeping on the hit
// path — and close enough to LRU for this workload, where blocking/SNM
// locality makes recently used pairs dominate.
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
// of entries (rounded up to a multiple of the shard count; capacity ≤ 0
// means DefaultCacheCapacity).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	perShard := (capacity + cacheShards - 1) / cacheShards
	c := &Cache{perShard: perShard}
	return c
}

// shardOf hashes a key to its stripe (multiplicative mixing; the top
// bits carry the entropy, so the stripe index is taken there).
func (c *Cache) shardOf(k symKey) *cacheShard {
	const mix = 0x9E3779B97F4A7C15
	h := (uint64(k.attr)*mix ^ uint64(k.a)) * mix
	h = (h ^ uint64(k.b)) * mix
	return &c.shards[h>>(64-6)&(cacheShards-1)]
}

// get returns the memoized similarity of the key.
func (c *Cache) get(k symKey) (float64, bool) {
	s := c.shardOf(k)
	s.mu.Lock()
	v, ok := s.m[k]
	if ok {
		s.hits++
	} else {
		s.misses++
	}
	s.mu.Unlock()
	return v, ok
}

// put memoizes the similarity of the key, evicting when the shard is
// full. Racing puts of the same key are idempotent because comparison
// functions are deterministic.
func (c *Cache) put(k symKey, v float64) {
	s := c.shardOf(k)
	s.mu.Lock()
	if s.m == nil {
		// Grow on demand: pre-sizing to perShard would commit the full
		// capacity up front even for runs that never fill the cache.
		s.m = make(map[symKey]float64)
	}
	if _, exists := s.m[k]; !exists && len(s.m) >= c.perShard {
		// Evict an eighth of the shard (at least one entry) in map order.
		// Batching amortizes the eviction walk over many inserts.
		drop := max(c.perShard/8, 1)
		for old := range s.m {
			if drop == 0 {
				break
			}
			delete(s.m, old)
			s.evics++
			drop--
		}
	}
	s.m[k] = v
	s.mu.Unlock()
}

// Len returns the current number of memoized entries.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m)
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
		st.Entries += len(s.m)
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
		for k := range s.m {
			if int(k.attr) < nattrs {
				out[k.attr]++
			}
		}
		s.mu.Unlock()
	}
	return out
}
