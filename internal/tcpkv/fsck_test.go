package tcpkv

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"efactory/internal/crc"
	"efactory/internal/kv"
	"efactory/internal/nvm"
	"efactory/internal/store"
	"efactory/internal/wire"
)

func TestFsckCleanStore(t *testing.T) {
	cfg := smallConfig()
	dev := nvm.New(cfg.DeviceSize())
	srv, addr := startServer(t, dev, cfg)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := cl.Put([]byte(fmt.Sprintf("k%d", i)), bytes.Repeat([]byte{1}, 128)); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Get([]byte(fmt.Sprintf("k%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	cl.Close()
	srv.Close()

	r, err := Fsck(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.LiveKeys != 10 || r.LostKeys != 0 || !r.Consistent() {
		t.Fatalf("report = %+v", r)
	}
	if r.Objects != 10 {
		t.Fatalf("objects = %d", r.Objects)
	}
}

func TestFsckDetectsTornHeadAndRollback(t *testing.T) {
	cfg := smallConfig()
	dev := nvm.New(cfg.DeviceSize())
	srv, addr := startServer(t, dev, cfg)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	cl.Put([]byte("k"), []byte("stable"))
	cl.Get([]byte("k")) // durability
	// Torn update: alloc without writing the value.
	if _, err := cl.rpc(wire.Msg{Type: wire.TPut, Crc: 0xbad, Len: 64, Key: []byte("k")}); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	srv.Close()
	// Crash: only flushed lines survive.
	dev.Crash(1, 0)

	r, err := Fsck(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.TornHeads != 1 || r.LiveKeys != 1 || r.LostKeys != 0 {
		t.Fatalf("report = %+v", r)
	}
	var sb strings.Builder
	r.WriteReport(&sb)
	if !strings.Contains(sb.String(), "CONSISTENT") {
		t.Fatalf("report output: %s", sb.String())
	}
}

func TestFsckCountsStaleVersions(t *testing.T) {
	cfg := smallConfig()
	dev := nvm.New(cfg.DeviceSize())
	srv, addr := startServer(t, dev, cfg)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		cl.Put([]byte("k"), bytes.Repeat([]byte{byte(i)}, 256))
	}
	if _, err := cl.Get([]byte("k")); err != nil { // the head is durable
		t.Fatal(err)
	}
	cl.Close()
	srv.Close()

	r, err := Fsck(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Objects != 5 || r.LiveKeys != 1 {
		t.Fatalf("report = %+v", r)
	}
	if r.StaleBytes <= 0 {
		t.Fatalf("StaleBytes = %d; four stale versions should be reclaimable", r.StaleBytes)
	}
}

// TestFsckMatchesRecoveryMidMerge checks fsck against recovery on a crash
// image taken mid-merge after a DELETE and a torn re-PUT. The entry's
// current location still names the pre-delete version, intact and
// durable; only the entry's cut says it is dead, so recovery drops the
// key — and fsck, resolving entries with recovery's own resolver, must
// count exactly what recovery finds.
func TestFsckMatchesRecoveryMidMerge(t *testing.T) {
	cfg := Config{Buckets: 64, PoolSize: 64 << 10, VerifyTimeout: time.Hour}
	dev := nvm.New(cfg.DeviceSize())
	parked, resume, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	st, _, err := store.New(dev, cfg.storeConfig(), store.Deps{
		Spawn:       func(name string, fn func(h any)) { go func() { fn(nil); close(done) }() },
		CleanerWait: func(any) bool { parked <- struct{}{}; _, ok := <-resume; return ok },
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := st.Shard(0)
	put := func(key, val string) (land func()) {
		pr := eng.Put(nil, []byte(key), len(val), crc.Checksum([]byte(val)))
		if pr.Status != store.StatusOK {
			t.Fatalf("put %s: status %v", key, pr.Status)
		}
		return func() { dev.Write(eng.Pool(pr.Pool).Base()+int(pr.Off)+kv.ValueOffset(len(key)), []byte(val)) }
	}
	landBlocker := put("blocker", "b")
	put("k", "pre-delete")()
	if eng.Get(nil, []byte("k")).Status != store.StatusOK {
		t.Fatal("k unreadable before the DELETE")
	}
	st.StartCleaning()
	<-parked // compress stage: k migrated, blocker in flight
	if eng.Del(nil, []byte("k")) != store.StatusOK {
		t.Fatal("DELETE k failed")
	}
	put("blocker-2", "b2")
	landBlocker()
	resume <- struct{}{}
	<-parked           // merge stage: blocker-2 in flight
	put("k", "re-put") // torn: its value never lands

	dev.Crash(1, 0)
	close(resume) // the cleaner aborts without touching the image
	<-done

	r, err := Fsck(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, rst, err := store.New(dev, cfg.storeConfig(), store.Deps{})
	if err != nil {
		t.Fatal(err)
	}
	if r.LiveKeys != rst.KeysRecovered || r.LostKeys != rst.KeysLost || r.TornHeads != rst.RolledBack {
		t.Errorf("fsck live/lost/torn = %d/%d/%d, recovery found %d/%d/%d",
			r.LiveKeys, r.LostKeys, r.TornHeads, rst.KeysRecovered, rst.KeysLost, rst.RolledBack)
	}
	if rst.KeysLost != 2 { // k (deleted, re-PUT torn) and blocker-2
		t.Errorf("recovery lost %d keys, want 2: %+v", rst.KeysLost, rst)
	}
}

// TestFsckReportsUnflushedLinesOnFile: both devices share the volatile
// overlay, so a file-backed store with unflushed writes reports them too.
func TestFsckReportsUnflushedLinesOnFile(t *testing.T) {
	cfg := smallConfig()
	dev, err := nvm.OpenFile(filepath.Join(t.TempDir(), "store.nvm"), cfg.DeviceSize())
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	dev.Write(0, []byte("never flushed"))
	r, err := Fsck(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.UnflushedLines != 1 {
		t.Errorf("UnflushedLines = %d, want 1", r.UnflushedLines)
	}
}
