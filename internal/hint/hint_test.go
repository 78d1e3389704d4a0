package hint_test

import (
	"fmt"
	"sync"
	"testing"

	"efactory/internal/hint"
)

func TestLookupInsertInvalidate(t *testing.T) {
	c := hint.New(2, 8)
	key := []byte("alpha")
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

func TestEvictionBound(t *testing.T) {
	const cap = 16
	c := hint.New(1, cap)
	for i := 0; i < 3*cap; i++ {
		c.Insert(0, []byte(fmt.Sprintf("k%03d", i)), hint.Entry{Slot: i})
	}
	if n := c.Len(); n != cap {
		t.Fatalf("cache holds %d entries, cap is %d", n, cap)
	}
	st := c.Stats()
	if st.Evictions != 2*cap {
		t.Fatalf("evictions = %d, want %d", st.Evictions, 2*cap)
	}
	// Refreshing a resident key at capacity must not evict anyone.
	var resident []byte
	for i := 0; i < 3*cap; i++ {
		k := []byte(fmt.Sprintf("k%03d", i))
		if _, ok := c.Lookup(0, k); ok {
			resident = k
			break
		}
	}
	if resident == nil {
		t.Fatal("no resident key found")
	}
	before := c.Stats().Evictions
	c.Insert(0, resident, hint.Entry{Slot: 999})
	if c.Stats().Evictions != before {
		t.Fatal("refreshing a resident key evicted an entry")
	}
}

func TestDefaultsAndBadShard(t *testing.T) {
	c := hint.New(0, 0)
	c.Insert(-5, []byte("x"), hint.Entry{Slot: 1})
	if _, ok := c.Lookup(99, []byte("x")); !ok {
		t.Fatal("out-of-range shard indexes should clamp to shard 0")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := hint.New(4, 64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := []byte(fmt.Sprintf("k%d", i%97))
				sh := i % 4
				switch (g + i) % 3 {
				case 0:
					c.Insert(sh, k, hint.Entry{Slot: i, Off: uint64(i)})
				case 1:
					c.Lookup(sh, k)
				default:
					c.Invalidate(sh, k)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 4*64 {
		t.Fatalf("cache exceeded bound: %d", c.Len())
	}
}

func TestEpochScoping(t *testing.T) {
	c := hint.New(2, 64)
	c.Insert(0, []byte("a"), hint.Entry{Slot: 1})
	c.Insert(1, []byte("b"), hint.Entry{Slot: 2})
	if _, ok := c.Lookup(0, []byte("a")); !ok {
		t.Fatal("hint missing before epoch change")
	}
	// Advancing the epoch bulk-drops every resident hint.
	if !c.AdvanceEpoch(2) {
		t.Fatal("AdvanceEpoch(2) refused")
	}
	if c.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", c.Epoch())
	}
	if _, ok := c.Lookup(0, []byte("a")); ok {
		t.Fatal("hint from epoch 0 survived the epoch change")
	}
	if _, ok := c.Peek(1, []byte("b")); ok {
		t.Fatal("Peek served a hint from an older epoch")
	}
	if c.Len() != 0 {
		t.Fatalf("resident hints after epoch change: %d", c.Len())
	}
	// Older/equal epochs must be refused (out-of-order refreshes).
	if c.AdvanceEpoch(2) || c.AdvanceEpoch(1) {
		t.Fatal("AdvanceEpoch accepted a non-advancing epoch")
	}
	// New inserts are stamped with the new epoch and serve normally.
	c.Insert(0, []byte("a"), hint.Entry{Slot: 3})
	if e, ok := c.Lookup(0, []byte("a")); !ok || e.Slot != 3 {
		t.Fatalf("post-epoch insert not served: %+v ok=%v", e, ok)
	}
	st := c.Stats()
	if st.EpochDropped < 2 {
		t.Fatalf("EpochDropped = %d, want >= 2", st.EpochDropped)
	}
}

// TestInvalidateAllKeepsCurrentEpochEntries pins the barrier semantics
// behind AdvanceEpoch: only entries stamped with an epoch older than the
// cache's current one are dropped, so a hint a racing reader inserted
// under the NEW epoch survives the sweep (the old unconditional clear
// clobbered it), and replaying the barrier — as concurrent wrong-epoch
// rejections do — is an exact no-op.
func TestInvalidateAllKeepsCurrentEpochEntries(t *testing.T) {
	c := hint.New(1, 8)
	c.Insert(0, []byte("old"), hint.Entry{Slot: 1})
	if !c.AdvanceEpoch(5) {
		t.Fatal("AdvanceEpoch(5) refused")
	}
	if _, ok := c.Peek(0, []byte("old")); ok {
		t.Fatal("stale-epoch entry survived the advance")
	}
	c.Insert(0, []byte("new"), hint.Entry{Slot: 2}) // stamped with epoch 5
	before := c.Stats().EpochDropped
	c.InvalidateAll() // a concurrent reject replaying the same barrier
	c.InvalidateAll() // and another
	if _, ok := c.Peek(0, []byte("new")); !ok {
		t.Fatal("current-epoch entry clobbered by the barrier")
	}
	if d := c.Stats().EpochDropped - before; d != 0 {
		t.Fatalf("idempotent barrier dropped %d entries", d)
	}
}

// TestInvalidateAllConcurrentRejects hammers the barrier from goroutines
// racing inserts and epoch advances (the shape of a burst of wrong-epoch
// rejections during a failover). Run under -race; afterwards one final
// advance must leave the cache empty — nothing leaks past its epoch.
func TestInvalidateAllConcurrentRejects(t *testing.T) {
	c := hint.New(4, 256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				switch i % 3 {
				case 0:
					c.Insert(i%4, []byte(fmt.Sprintf("g%dk%d", g, i)), hint.Entry{Slot: i})
				case 1:
					c.InvalidateAll()
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
		t.Fatalf("%d entries survived an epoch advance past every insert", n)
	}
}
