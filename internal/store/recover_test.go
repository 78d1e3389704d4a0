package store

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"efactory/internal/crc"
	"efactory/internal/kv"
	"efactory/internal/nvm"
)

// TestRecoverStagedSlotAfterDeleteRePut pins the crash shape the TCP
// torture harness found: a DELETE followed by a re-PUT that lands while
// log cleaning is in its merge stage. The re-PUT publishes only into the
// staged location slot (and sets the entry's cut sequence); the current
// (mark) slot still names the dead pre-delete chain. If the crash happens
// before the cleaning run finishes — so the mark bit never flips —
// recovery must fall through to the staged slot's chain instead of
// declaring the key lost after the current slot's chain dies on the cut
// filter.
func TestRecoverStagedSlotAfterDeleteRePut(t *testing.T) {
	cfg := Config{Buckets: 64, PoolSize: 4 << 10, VerifyTimeout: time.Second}
	dev := nvm.New(cfg.Layout().DeviceSize())
	st, _, err := New(dev, cfg, Deps{})
	if err != nil {
		t.Fatal(err)
	}
	e := st.Shard(0)
	key := []byte("phoenix")
	v1 := bytes.Repeat([]byte{0xa1}, 48)
	v2 := bytes.Repeat([]byte{0xb2}, 48)

	put := func(val []byte) {
		pr := e.Put(nil, key, len(val), crc.Checksum(val))
		if pr.Status != StatusOK {
			t.Fatalf("put: status %v", pr.Status)
		}
		e.Pool(pr.Pool).WriteValue(pr.Off, len(key), val)
		// A GET verifies and persists the fresh value on demand, making it
		// observed-durable — exactly what the oracle holds recovery to.
		if gr := e.Get(nil, key); gr.Status != StatusOK {
			t.Fatalf("get after put: status %v", gr.Status)
		}
	}

	put(v1)
	if s := e.Del(nil, key); s != StatusOK {
		t.Fatalf("del: status %v", s)
	}
	// Freeze the engine mid-cleaning, in the merge stage, without running
	// the cleaner: new writes now target the new pool and publish through
	// the staged slot, and a crash from here never flips the mark bit —
	// the interleaving a concurrent cleaner produces when the process dies
	// before the final sweep.
	e.mu.Lock()
	e.cleaning = true
	e.merging = true
	e.mu.Unlock()
	put(v2)

	// Power failure: every volatile line is lost, only flushed state
	// survives. Recovery on the same device must restore v2 — it was
	// served by a GET, so it is observed-durable.
	dev.Crash(0xdead_beef, 0)
	st2, rst, err := New(dev, cfg, Deps{})
	if err != nil {
		t.Fatal(err)
	}
	if rst.KeysRecovered != 1 || rst.KeysLost != 0 {
		t.Fatalf("recovery stats %+v, want exactly the re-put key recovered", rst)
	}
	e2 := st2.Shard(0)
	gr := e2.Get(nil, key)
	if gr.Status != StatusOK {
		t.Fatalf("recovered get: status %v, want OK (observed-durable re-put lost)", gr.Status)
	}
	hd := e2.Pool(gr.Pool).Header(gr.Off)
	got := e2.Pool(gr.Pool).ReadValue(gr.Off, hd.KLen, hd.VLen)
	if !bytes.Equal(got, v2) {
		t.Fatalf("recovered %x, want the re-put value %x", got, v2)
	}
}

// TestRecoveryOutOfRoomIsAnError leaves nine durable keys in each pool of a
// sixteen-object pool pair — a cleaning run cut short in its merge stage,
// with the merge-stage writes filling the new pool — so neither pool can
// take the other's survivors. Recovery must say so with ErrRecoveryFull,
// not panic, and leave an image that still resolves every key.
func TestRecoveryOutOfRoomIsAnError(t *testing.T) {
	cfg := Config{Buckets: 64, PoolSize: 16 * 128, VerifyTimeout: time.Hour}
	dev := nvm.New(cfg.Layout().DeviceSize())
	st, _, err := New(dev, cfg, Deps{})
	if err != nil {
		t.Fatal(err)
	}
	e := st.Shard(0)
	put := func(key string) {
		val := bytes.Repeat([]byte{'v'}, 48) // a 128-byte object
		if pr := e.PutInline(nil, []byte(key), val, crc.Checksum(val)); pr.Status != StatusOK {
			t.Fatalf("put %s: status %v", key, pr.Status)
		}
		e.Get(nil, []byte(key)) // verifies and persists it
	}
	for i := 0; i < 9; i++ {
		put(fmt.Sprintf("a%d", i))
	}
	e.mu.Lock()
	e.cleaning, e.merging = true, true // writes now go to pool 1
	e.mu.Unlock()
	for i := 0; i < 9; i++ {
		put(fmt.Sprintf("b%d", i))
	}

	dev.Crash(7, 0)
	if _, _, err := New(dev, cfg, Deps{}); !errors.Is(err, ErrRecoveryFull) {
		t.Fatalf("recovery error = %v, want ErrRecoveryFull", err)
	}
	l := cfg.Layout()
	pools := [2]*kv.Pool{kv.NewPool(dev, l.PoolBase(0, 0), l.PoolSize), kv.NewPool(dev, l.PoolBase(0, 1), l.PoolSize)}
	live := 0
	kv.NewTable(dev, l.TableBase(0), l.Buckets).Range(func(i int, en kv.Entry) bool {
		if _, ok := kv.ResolvePersisted(pools, en); ok {
			live++
		}
		return true
	})
	if live != 18 {
		t.Fatalf("after the failed recovery the image resolves %d keys, want 18", live)
	}
}
