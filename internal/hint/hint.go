// Package hint is the client-side location hint cache of the read path
// (FaRM-style location caching): a bounded, per-shard map from key to the
// last place a durable version of it was read — table slot, pool region,
// offset/length.
//
// Hints are an accelerator, never an authority. A hit lets the client skip
// the slot-probe READs of the optimistic read path and fetch the entry and
// the object in one doorbell-chained group, but the fetched entry is ALWAYS
// validated (key hash, current location) and the object still carries its
// own magic/valid/durable/key checks — so a stale hint costs one wasted
// speculative READ and an Invalidate, and can never surface a wrong,
// pre-delete, or torn value. See DESIGN.md, "Hint-cache coherence".
package hint

import (
	"sync"
	"sync/atomic"
)

// DefaultCap is the per-shard entry bound used when New is given a
// non-positive capacity.
const DefaultCap = 4096

// Entry is one cached location: where a durable version of the key was
// last read.
type Entry struct {
	Slot  int    // hash-table bucket index within the shard
	Pool  uint32 // pool region (rkey) as the client addresses it
	Off   uint64 // pool-relative object offset
	Len   int    // total object length
	epoch uint64 // cluster-map epoch the hint was learned under
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits         uint64 // lookups that found a cached entry
	Misses       uint64 // lookups that found nothing
	Stale        uint64 // cached entries dropped: failed validation or the client's own write
	Inserts      uint64 // entries stored or refreshed
	Evictions    uint64 // entries displaced by the per-shard capacity bound
	EpochDropped uint64 // entries bulk-invalidated by a cluster epoch change
}

// Cache is a bounded per-shard hint cache. All methods are safe for
// concurrent use; counters are atomic so readers under -race never
// serialize on the shard locks.
// A Cache is implicitly scoped to one server instance — each routed
// client owns one cache per connection — and explicitly scoped to a
// cluster-map epoch: every hint is stamped with the epoch it was learned
// under, and AdvanceEpoch bulk-invalidates all hints from older epochs.
// Hints are thus keyed by (instance, epoch, shard, key): a hint learned
// before a migration cutover can never satisfy a lookup after it, even
// racing inserts that straddle the epoch change.
type Cache struct {
	perShard int
	shards   []cacheShard
	epoch    atomic.Uint64 // current cluster-map epoch (0 = unclustered)

	hits, misses, stale, inserts, evictions, epochDropped atomic.Uint64
}

type cacheShard struct {
	mu sync.Mutex
	m  map[string]Entry
}

// New builds a cache for nshards shards with at most capPerShard entries
// each (DefaultCap if non-positive).
func New(nshards, capPerShard int) *Cache {
	if nshards < 1 {
		nshards = 1
	}
	if capPerShard <= 0 {
		capPerShard = DefaultCap
	}
	c := &Cache{perShard: capPerShard, shards: make([]cacheShard, nshards)}
	for i := range c.shards {
		c.shards[i].m = make(map[string]Entry)
	}
	return c
}

func (c *Cache) shard(i int) *cacheShard {
	if i < 0 || i >= len(c.shards) {
		i = 0
	}
	return &c.shards[i]
}

// Lookup returns the cached entry for key in shard, if any. A hint
// stamped with an older epoch than the cache's current one is dropped on
// sight (an insert that raced an AdvanceEpoch) and counts as a miss.
func (c *Cache) Lookup(shard int, key []byte) (Entry, bool) {
	s := c.shard(shard)
	epoch := c.epoch.Load()
	s.mu.Lock()
	e, ok := s.m[string(key)]
	if ok && e.epoch != epoch {
		delete(s.m, string(key))
		ok = false
		c.epochDropped.Add(1)
	}
	s.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return e, ok
}

// Peek returns the cached entry without touching the hit/miss counters —
// for callers refreshing a hint, not deciding a read path with it. Like
// Lookup it refuses hints from older epochs.
func (c *Cache) Peek(shard int, key []byte) (Entry, bool) {
	s := c.shard(shard)
	epoch := c.epoch.Load()
	s.mu.Lock()
	e, ok := s.m[string(key)]
	s.mu.Unlock()
	if ok && e.epoch != epoch {
		return Entry{}, false
	}
	return e, ok
}

// Insert stores or refreshes key's hint, stamping it with the cache's
// current epoch. When the shard is at capacity an arbitrary resident
// entry is evicted — random replacement is plenty for a cache whose
// misses only cost the probe walk the hit would have skipped.
func (c *Cache) Insert(shard int, key []byte, e Entry) {
	e.epoch = c.epoch.Load()
	s := c.shard(shard)
	s.mu.Lock()
	k := string(key)
	if _, resident := s.m[k]; !resident && len(s.m) >= c.perShard {
		for victim := range s.m {
			delete(s.m, victim)
			c.evictions.Add(1)
			break
		}
	}
	s.m[k] = e
	s.mu.Unlock()
	c.inserts.Add(1)
}

// Epoch returns the cluster-map epoch the cache is currently scoped to.
func (c *Cache) Epoch() uint64 { return c.epoch.Load() }

// AdvanceEpoch moves the cache to a new cluster-map epoch, bulk-dropping
// every hint learned under older placement. Offering an older or equal
// epoch is a no-op — concurrent map refreshes may observe epochs out of
// order, and the cache must never move backwards. Reports whether the
// epoch advanced. The sweep is delegated to InvalidateAll, which
// compares each entry's stamped epoch under its shard lock: a hint a
// racing reader inserted under the NEW epoch is kept, where an
// unconditional clear would clobber it.
func (c *Cache) AdvanceEpoch(epoch uint64) bool {
	for {
		cur := c.epoch.Load()
		if epoch <= cur {
			return false
		}
		if c.epoch.CompareAndSwap(cur, epoch) {
			break
		}
	}
	c.InvalidateAll()
	return true
}

// InvalidateAll is the bulk-invalidation barrier of an epoch advance: it
// drops every resident hint stamped with an epoch older than the cache's
// current one. It is idempotent under concurrency — each entry is judged
// against the current epoch under its shard lock, so two barriers racing
// (concurrent wrong-epoch rejections advancing to the same epoch) do the
// same deletions once between them, and entries inserted under the
// current epoch mid-sweep survive. Lookup lazily drops stragglers a
// concurrent insert-at-old-epoch might leave behind.
func (c *Cache) InvalidateAll() {
	epoch := c.epoch.Load()
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n := 0
		for k, e := range s.m {
			if e.epoch < epoch {
				delete(s.m, k)
				n++
			}
		}
		s.mu.Unlock()
		c.epochDropped.Add(uint64(n))
	}
}

// Invalidate drops key's hint after it failed validation (or because the
// client itself wrote the key). It is a no-op for absent keys.
func (c *Cache) Invalidate(shard int, key []byte) {
	s := c.shard(shard)
	s.mu.Lock()
	k := string(key)
	_, ok := s.m[k]
	if ok {
		delete(s.m, k)
	}
	s.mu.Unlock()
	if ok {
		c.stale.Add(1)
	}
}

// Len returns the total number of cached hints across shards.
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

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:         c.hits.Load(),
		Misses:       c.misses.Load(),
		Stale:        c.stale.Load(),
		Inserts:      c.inserts.Load(),
		Evictions:    c.evictions.Load(),
		EpochDropped: c.epochDropped.Load(),
	}
}
