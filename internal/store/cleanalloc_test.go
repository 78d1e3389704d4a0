package store_test

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"efactory/internal/crc"
	"efactory/internal/nvm"
	"efactory/internal/store"
)

// TestCleaningRunAllocs bounds the heap allocations of one cleaning run
// over 10,000 durable objects of 64 keys, so almost every object the
// sweep visits is stale. The run reads every key and moved value into
// scratch it owns, so its allocations do not grow with the objects it
// visits: a fresh key buffer per object, and a fresh value per moved
// object, cost about 10,085 here.
func TestCleaningRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime's own bookkeeping allocates")
	}
	const objects, keys = 10000, 64
	cfg := store.Config{Shards: 1, Buckets: 4096, PoolSize: 8 << 20, VerifyTimeout: time.Second}
	tick := &stepSink{}
	st, _, err := store.New(nvm.New(cfg.DeviceSize()), cfg, store.Deps{
		Sink:        tick,
		NewLock:     func() sync.Locker { return nopLocker{} },
		Spawn:       func(name string, fn func(h any)) { fn(nil) },
		CleanerWait: func(h any) bool { tick.now += 500; return true },
	})
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	defer st.Stop()
	eng := st.Shard(0)
	val := bytes.Repeat([]byte{'v'}, 64)
	sum := crc.Checksum(val)
	var names [keys][]byte
	for k := range names {
		names[k] = []byte(fmt.Sprintf("obj-%02d", k))
	}
	for i := 0; i < objects; i++ {
		if pr := eng.PutInline(nil, names[i%keys], val, sum); pr.Status != store.StatusOK {
			t.Fatalf("put %d: %v", i, pr.Status)
		}
	}
	eng.BGDrain(nil, 1)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if !eng.StartCleaning() {
		t.Fatal("StartCleaning refused")
	}
	runtime.ReadMemStats(&after)
	s := eng.Stats()
	if s.Cleanings != 1 || s.CleanMoved != keys {
		t.Fatalf("cleanings %d, moved %d; want 1 run that moved the %d live versions", s.Cleanings, s.CleanMoved, keys)
	}
	mallocs := after.Mallocs - before.Mallocs
	t.Logf("one cleaning run over %d objects: %d mallocs", objects, mallocs)
	if mallocs >= 100 {
		t.Errorf("a cleaning run over %d objects made %d mallocs, want fewer than 100", objects, mallocs)
	}
}
