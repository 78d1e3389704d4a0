package hint_test

import (
	"sync"
	"testing"

	"efactory/internal/hint"
)

func TestLookupInsertInvalidate(t *testing.T) {
	c := hint.New(2, 64)
	const key = 0xa1fa
	if _, ok := c.Lookup(0, key); ok {
		t.Fatal("lookup on empty cache hit")
	}
	e := hint.Entry{Slot: 7, Pool: 3, Off: 640, Len: 96}
	c.Insert(0, key, e)
	got, ok := c.Lookup(0, key)
	if !ok || got != e {
		t.Fatalf("lookup after insert: %+v ok=%v, want %+v", got, ok, e)
	}
	// Hints are per shard: the same key in another shard is a miss.
	if _, ok := c.Lookup(1, key); ok {
		t.Fatal("key leaked across shards")
	}
	// Refresh replaces in place.
	e2 := e
	e2.Off = 1024
	c.Insert(0, key, e2)
	if got, _ := c.Lookup(0, key); got != e2 {
		t.Fatalf("refresh not applied: %+v", got)
	}
	c.Invalidate(0, key)
	if _, ok := c.Lookup(0, key); ok {
		t.Fatal("lookup after invalidate hit")
	}
	c.Invalidate(0, key) // absent: must not count as stale again

	st := c.Stats()
	want := hint.Stats{Hits: 2, Misses: 3, Stale: 1, Inserts: 2}
	if st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
}

// TestSlotlessInsertKeepsSlot: a location learned without its table slot
// (a GET or PUT grant) keeps the slot already known for the key, and only
// for that key.
func TestSlotlessInsertKeepsSlot(t *testing.T) {
	const buckets = 16
	c := hint.New(1, buckets)
	const a, b = 5, 5 + buckets // one cell
	c.Insert(0, a, hint.Entry{Slot: 9, Off: 64, Len: 32})
	c.Insert(0, a, hint.Entry{Slot: -1, Off: 128, Len: 48})
	if got, _ := c.Peek(0, a); got != (hint.Entry{Slot: 9, Off: 128, Len: 48}) {
		t.Fatalf("slotless refresh = %+v, want slot 9 kept", got)
	}
	c.Insert(0, b, hint.Entry{Slot: -1, Off: 256, Len: 48})
	if got, _ := c.Peek(0, b); got.Slot != -1 {
		t.Fatalf("another key inherited slot %d", got.Slot)
	}
	c.AdvanceEpoch(1)
	c.Insert(0, b, hint.Entry{Slot: -1, Off: 256, Len: 48})
	if got, _ := c.Peek(0, b); got.Slot != -1 {
		t.Fatalf("a slot from an older epoch was kept: %d", got.Slot)
	}
}

// TestEvictionBound: the table holds one hint per cell. A key whose home
// bucket holds another key's live hint displaces it, counted in Evictions;
// refreshing the resident key evicts nothing, and the displaced key misses.
func TestEvictionBound(t *testing.T) {
	const buckets = 16
	c := hint.New(1, buckets)
	for h := uint64(1); h <= 3*buckets; h++ {
		c.Insert(0, h, hint.Entry{Slot: int(h)})
	}
	if n := c.Len(); n != buckets {
		t.Fatalf("cache holds %d hints, %d cells", n, buckets)
	}
	if st := c.Stats(); st.Evictions != 2*buckets {
		t.Fatalf("evictions = %d, want %d", st.Evictions, 2*buckets)
	}
	if _, ok := c.Peek(0, 1); ok {
		t.Fatal("a displaced key still hits")
	}
	const resident = 2*buckets + 1
	if e, ok := c.Peek(0, resident); !ok || e.Slot != resident {
		t.Fatalf("the last key of the cell: %+v ok=%v", e, ok)
	}
	before := c.Stats().Evictions
	c.Insert(0, resident, hint.Entry{Slot: 999})
	if c.Stats().Evictions != before {
		t.Fatal("refreshing a resident key evicted an entry")
	}
	// An invalidated cell is free: the next key evicts nobody.
	c.Invalidate(0, resident)
	c.Insert(0, 1, hint.Entry{Slot: 1})
	if c.Stats().Evictions != before {
		t.Fatal("filling an invalidated cell counted an eviction")
	}
}

func TestDefaultsAndBadShard(t *testing.T) {
	c := hint.New(0, 0)
	c.Insert(-5, 42, hint.Entry{Slot: 1})
	if _, ok := c.Lookup(99, 42); !ok {
		t.Fatal("out-of-range shard indexes should clamp to shard 0")
	}
}

func TestConcurrentAccess(t *testing.T) {
	const buckets = 64
	c := hint.New(4, buckets)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				h := uint64(1 + i%97)
				sh := i % 4
				switch (g + i) % 3 {
				case 0:
					c.Insert(sh, h, hint.Entry{Slot: i, Off: uint64(i)})
				case 1:
					if e, ok := c.Lookup(sh, h); ok && e.Off != uint64(e.Slot) {
						t.Errorf("torn hint %+v", e)
					}
				default:
					c.Invalidate(sh, h)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 4*buckets {
		t.Fatalf("cache exceeded bound: %d", c.Len())
	}
}

// TestEpochScoping: after an epoch advance every older hint misses,
// whatever its shard or cell, without a sweep.
func TestEpochScoping(t *testing.T) {
	c := hint.New(2, 64)
	for h := uint64(1); h <= 100; h++ {
		c.Insert(int(h%2), h, hint.Entry{Slot: int(h)})
	}
	if _, ok := c.Lookup(0, 100); !ok {
		t.Fatal("hint missing before epoch change")
	}
	evictions := c.Stats().Evictions
	if !c.AdvanceEpoch(2) {
		t.Fatal("AdvanceEpoch(2) refused")
	}
	if c.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", c.Epoch())
	}
	for h := uint64(1); h <= 100; h++ {
		if _, ok := c.Lookup(int(h%2), h); ok {
			t.Fatalf("hint %d from epoch 0 survived the epoch change", h)
		}
		if _, ok := c.Peek(int(h%2), h); ok {
			t.Fatalf("Peek served hint %d from an older epoch", h)
		}
	}
	if c.Len() != 0 {
		t.Fatalf("resident hints after epoch change: %d", c.Len())
	}
	// Older/equal epochs must be refused (out-of-order refreshes).
	if c.AdvanceEpoch(2) || c.AdvanceEpoch(1) {
		t.Fatal("AdvanceEpoch accepted a non-advancing epoch")
	}
	// New inserts are stamped with the new epoch and serve normally; an
	// older hint's cell is overwritten without counting an eviction.
	c.Insert(1, 1, hint.Entry{Slot: 3})
	if e, ok := c.Lookup(1, 1); !ok || e.Slot != 3 {
		t.Fatalf("post-epoch insert not served: %+v ok=%v", e, ok)
	}
	if d := c.Stats().Evictions - evictions; d != 0 {
		t.Fatalf("overwriting an older epoch's hint counted %d evictions", d)
	}
}

// TestEpochReplayKeepsCurrentEpochEntries: replaying an advance to the
// current epoch — as concurrent wrong-epoch rejections do — is a no-op, so
// a hint a racing reader inserted under the new epoch survives it.
func TestEpochReplayKeepsCurrentEpochEntries(t *testing.T) {
	c := hint.New(1, 8)
	c.Insert(0, 1, hint.Entry{Slot: 1})
	if !c.AdvanceEpoch(5) {
		t.Fatal("AdvanceEpoch(5) refused")
	}
	if _, ok := c.Peek(0, 1); ok {
		t.Fatal("stale-epoch entry survived the advance")
	}
	c.Insert(0, 2, hint.Entry{Slot: 2}) // stamped with epoch 5
	c.AdvanceEpoch(5)                   // a concurrent reject replaying the advance
	c.AdvanceEpoch(4)                   // and a late one
	if _, ok := c.Peek(0, 2); !ok {
		t.Fatal("current-epoch entry clobbered by a replayed advance")
	}
}

// TestEpochAdvanceConcurrentInserts hammers inserts against epoch advances
// (the shape of a burst of wrong-epoch rejections during a failover). Run
// under -race; afterwards one final advance must leave nothing a lookup
// could serve — no hint outlives its epoch.
func TestEpochAdvanceConcurrentInserts(t *testing.T) {
	c := hint.New(4, 256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				switch i % 3 {
				case 0:
					c.Insert(i%4, uint64(g<<16|i)+1, hint.Entry{Slot: i})
				case 1:
					c.Lookup(i%4, uint64(g<<16|(i-1))+1)
				default:
					c.AdvanceEpoch(c.Epoch() + 1)
				}
			}
		}(g)
	}
	wg.Wait()
	if !c.AdvanceEpoch(c.Epoch() + 1) {
		t.Fatal("final advance refused")
	}
	if n := c.Len(); n != 0 {
		t.Fatalf("%d hints survived an epoch advance past every insert", n)
	}
}
