// Engine-level multi-GET: GetBatch must resolve every key exactly as a
// sequence of single Gets would, and slot hints must only ever skip probe
// work — a stale hint degrades to the full lookup, never a wrong answer.
package store_test

import (
	"fmt"
	"reflect"
	"testing"

	"efactory/internal/crc"
	"efactory/internal/kv"
	"efactory/internal/store"
)

func drainBG(eng *store.Engine) {
	for pi := 0; pi < 2; pi++ {
		for eng.BGStep(nil, pi) {
		}
	}
}

func putDirect(t *testing.T, st *store.Store, dev interface {
	Write(off int, src []byte)
}, key, val string) {
	t.Helper()
	eng := st.Shard(0)
	pr := eng.Put(nil, []byte(key), len(val), crc.Checksum([]byte(val)))
	if pr.Status != store.StatusOK {
		t.Fatalf("put %s: status %v", key, pr.Status)
	}
	pool := eng.Pool(pr.Pool)
	dev.Write(pool.Base()+int(pr.Off)+kv.ValueOffset(len(key)), []byte(val))
}

func TestEngineGetBatchMatchesGet(t *testing.T) {
	st, dev, _ := directStore(t)
	eng := st.Shard(0)
	var keys [][]byte
	for i := 0; i < 12; i++ {
		key := fmt.Sprintf("gb-key-%02d", i)
		putDirect(t, st, dev, key, fmt.Sprintf("gb-val-%02d-xxxxxxxxxxxxxxxx", i))
		keys = append(keys, []byte(key))
	}
	drainBG(eng)
	eng.Del(nil, keys[3])
	keys = append(keys, []byte("gb-absent"))

	want := make([]store.GetResult, len(keys))
	for i, k := range keys {
		want[i] = eng.Get(nil, k)
	}
	got := eng.GetBatch(nil, keys, nil)
	if len(got) != len(keys) {
		t.Fatalf("GetBatch returned %d results for %d keys", len(got), len(keys))
	}
	for i := range keys {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("key %s: GetBatch %+v != Get %+v", keys[i], got[i], want[i])
		}
	}
	if got[3].Status != store.StatusNotFound || got[len(keys)-1].Status != store.StatusNotFound {
		t.Fatalf("deleted/absent keys not NotFound: %+v / %+v", got[3], got[len(keys)-1])
	}
	st0 := eng.Stats()
	if st0.GetBatches != 1 {
		t.Fatalf("GetBatches = %d, want 1", st0.GetBatches)
	}
}

func TestEngineSlotHintedLookup(t *testing.T) {
	st, dev, _ := directStore(t)
	eng := st.Shard(0)
	keys := [][]byte{[]byte("hint-a"), []byte("hint-b"), []byte("hint-c")}
	for i, k := range keys {
		putDirect(t, st, dev, string(k), fmt.Sprintf("hint-val-%d-xxxxxxxxxxxxxxxx", i))
	}
	drainBG(eng)

	// Learn the true slots, then feed them back as hints.
	slots := make([]int, len(keys))
	base := eng.GetBatch(nil, keys, nil)
	for i, r := range base {
		if r.Status != store.StatusOK || !r.Durable {
			t.Fatalf("key %s: %+v", keys[i], r)
		}
		slots[i] = r.Slot
	}
	before := eng.Stats()
	hinted := eng.GetBatch(nil, keys, slots)
	after := eng.Stats()
	for i := range keys {
		if !reflect.DeepEqual(hinted[i], base[i]) {
			t.Errorf("key %s: hinted %+v != base %+v", keys[i], hinted[i], base[i])
		}
	}
	if hits := after.HintedLookups - before.HintedLookups; hits != len(keys) {
		t.Fatalf("HintedLookups advanced by %d, want %d", hits, len(keys))
	}

	// A wrong slot must be detected as stale and fall back to the full
	// lookup, returning the same result.
	bad := []int{slots[1], slots[2], slots[0]} // rotated: each points at another key
	before = eng.Stats()
	stale := eng.GetBatch(nil, keys, bad)
	after = eng.Stats()
	for i := range keys {
		if !reflect.DeepEqual(stale[i], base[i]) {
			t.Errorf("key %s: stale-hinted %+v != base %+v", keys[i], stale[i], base[i])
		}
	}
	if after.HintedStale-before.HintedStale != len(keys) {
		t.Fatalf("HintedStale advanced by %d, want %d", after.HintedStale-before.HintedStale, len(keys))
	}
}
