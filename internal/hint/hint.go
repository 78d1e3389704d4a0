// Package hint is the client-side location hint cache of the read path
// (FaRM-style location caching): per shard, a flat table with one slot per
// server bucket, each remembering where a version of one key lives — table
// slot, pool region, offset/length.
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

// Entry is one cached location: where a version of the key lives.
type Entry struct {
	Slot int    // hash-table bucket index within the shard; -1 = not known
	Pool uint32 // pool region (rkey) as the client addresses it
	Off  uint64 // pool-relative object offset
	Len  int    // total object length
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits      uint64 // lookups that found the key's hint
	Misses    uint64 // lookups that found nothing, another key, or an older epoch
	Stale     uint64 // hints dropped after failing validation or by the client's Delete/TxnCommit
	Inserts   uint64 // hints stored or refreshed
	Evictions uint64 // live hints of another key displaced from their slot
}

// cell is one table slot. It holds no pointer, so a table of any size
// costs the garbage collector nothing to scan. hash 0 marks an empty cell
// (kv.HashKey never returns 0).
type cell struct {
	hash  uint64 // the key's 64-bit hash
	off   uint64
	pool  uint32
	len   uint32
	slot  int32  // -1 = not known
	epoch uint32 // low 32 bits of the epoch the hint was learned under
}

// Cache is a flat per-shard hint table. All methods are safe for concurrent
// use; counters are atomic so readers under -race never serialize on the
// shard locks.
//
// A key's hint lives in the cell of its home bucket (keyHash % buckets),
// so two keys sharing a home bucket displace each other, and a key is
// identified by its 64-bit hash alone: a colliding key's hint is served to
// the read, whose object key check refuses it.
//
// A Cache is implicitly scoped to one server instance — each routed client
// owns one cache per connection — and explicitly scoped to a cluster-map
// epoch: every hint is stamped with the epoch it was learned under, and a
// stamp other than the current epoch reads as a miss. Advancing the epoch
// thus drops every older hint at once, including one a racing insert
// stamps after the advance.
type Cache struct {
	shards []cacheShard
	epoch  atomic.Uint64 // current cluster-map epoch (0 = unclustered)

	hits, misses, stale, inserts, evictions atomic.Uint64
}

type cacheShard struct {
	mu    sync.Mutex
	cells []cell
}

// New builds a cache for nshards shards of buckets cells each — one per
// server hash bucket, so the server's geometry sizes it.
func New(nshards, buckets int) *Cache {
	c := &Cache{shards: make([]cacheShard, max(nshards, 1))}
	for i := range c.shards {
		c.shards[i].cells = make([]cell, max(buckets, 1))
	}
	return c
}

// cell returns keyHash's cell in shard i (clamped to shard 0 when out of
// range) and the shard to lock around it.
func (c *Cache) cell(i int, keyHash uint64) (*cacheShard, *cell) {
	if i < 0 || i >= len(c.shards) {
		i = 0
	}
	s := &c.shards[i]
	return s, &s.cells[keyHash%uint64(len(s.cells))]
}

// live reports whether e holds keyHash's hint under the current epoch.
func (c *Cache) live(e *cell, keyHash uint64) bool {
	return e.hash == keyHash && e.epoch == uint32(c.epoch.Load())
}

// Lookup returns keyHash's hint in shard, if the cache holds one learned
// under the current epoch.
func (c *Cache) Lookup(shard int, keyHash uint64) (Entry, bool) {
	e, ok := c.Peek(shard, keyHash)
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return e, ok
}

// Peek is Lookup without touching the hit/miss counters.
func (c *Cache) Peek(shard int, keyHash uint64) (Entry, bool) {
	s, e := c.cell(shard, keyHash)
	s.mu.Lock()
	v, ok := *e, c.live(e, keyHash)
	s.mu.Unlock()
	if !ok {
		return Entry{}, false
	}
	return Entry{Slot: int(v.slot), Pool: v.pool, Off: v.off, Len: int(v.len)}, true
}

// Insert stores or refreshes keyHash's hint, stamping it with the current
// epoch. A location without its table slot (Slot < 0) keeps the slot
// already known for the key, since a key's slot survives overwrites. A
// live hint of another key in the cell is evicted.
func (c *Cache) Insert(shard int, keyHash uint64, e Entry) {
	s, cl := c.cell(shard, keyHash)
	epoch := uint32(c.epoch.Load())
	slot := int32(e.Slot)
	s.mu.Lock()
	resident := cl.hash != 0 && cl.epoch == epoch
	if resident && cl.hash == keyHash && slot < 0 {
		slot = cl.slot
	}
	evicted := resident && cl.hash != keyHash
	*cl = cell{hash: keyHash, off: e.Off, pool: e.Pool, len: uint32(e.Len), slot: slot, epoch: epoch}
	s.mu.Unlock()
	c.inserts.Add(1)
	if evicted {
		c.evictions.Add(1)
	}
}

// Invalidate drops keyHash's hint after it failed validation (or because
// the client itself deletes the key or commits a transaction over it). It
// is a no-op when the cell holds no live hint of the key.
func (c *Cache) Invalidate(shard int, keyHash uint64) {
	s, e := c.cell(shard, keyHash)
	s.mu.Lock()
	ok := c.live(e, keyHash)
	if ok {
		*e = cell{}
	}
	s.mu.Unlock()
	if ok {
		c.stale.Add(1)
	}
}

// Epoch returns the cluster-map epoch the cache is currently scoped to.
func (c *Cache) Epoch() uint64 { return c.epoch.Load() }

// AdvanceEpoch moves the cache to a new cluster-map epoch; every hint
// learned under an older one reads as a miss from then on. Offering an
// older or equal epoch is a no-op — concurrent map refreshes may observe
// epochs out of order, and the cache must never move backwards. Reports
// whether the epoch advanced.
func (c *Cache) AdvanceEpoch(epoch uint64) bool {
	for {
		cur := c.epoch.Load()
		if epoch <= cur {
			return false
		}
		if c.epoch.CompareAndSwap(cur, epoch) {
			return true
		}
	}
}

// Len returns the number of hints a lookup could serve, across shards.
func (c *Cache) Len() int {
	epoch := uint32(c.epoch.Load())
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for _, e := range s.cells {
			if e.hash != 0 && e.epoch == epoch {
				n++
			}
		}
		s.mu.Unlock()
	}
	return n
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Stale:     c.stale.Load(),
		Inserts:   c.inserts.Load(),
		Evictions: c.evictions.Load(),
	}
}
