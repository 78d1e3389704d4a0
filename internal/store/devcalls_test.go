package store_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"efactory/internal/crc"
	"efactory/internal/nvm"
	"efactory/internal/store"
)

// callCounter is an nvm.Device that counts the calls which take the
// device's lock: every access but Size and Drain (Memory's Drain is a
// no-op that takes none). Each such call is one lock and unlock of the
// overlay, the emulator's own cost that TestEngineDeviceCalls bounds.
type callCounter struct {
	nvm.Device
	calls int
}

func (d *callCounter) Read(off int, dst []byte)          { d.calls++; d.Device.Read(off, dst) }
func (d *callCounter) Write(off int, src []byte)         { d.calls++; d.Device.Write(off, src) }
func (d *callCounter) Write8(off int, v uint64)          { d.calls++; d.Device.Write8(off, v) }
func (d *callCounter) ReadPersisted(off int, dst []byte) { d.calls++; d.Device.ReadPersisted(off, dst) }
func (d *callCounter) Flush(off, n int)                  { d.calls++; d.Device.Flush(off, n) }
func (d *callCounter) Zero(off, n int)                   { d.calls++; d.Device.Zero(off, n) }
func (d *callCounter) ReadLine(off int) [8]uint64        { d.calls++; return d.Device.ReadLine(off) }
func (d *callCounter) WriteLine(off int, w [8]uint64)    { d.calls++; d.Device.WriteLine(off, w) }

// TestEngineDeviceCalls bounds the device calls one engine op makes, on a
// store preloaded with 256 keys of 256 B and drained by the verifier: the
// mean per PutInline of an existing key, per object the verifier visits
// (one object per BGBatch, the idle verifier's width), per Get of a
// durable version, and per object a cleaning run then handles (the 512
// versions, half of them stale). An object header and a hash entry are one
// cache line or part of one, so each is read or written with one call; a
// word-wise header or entry pays a lock hold per 8-byte word (23.2, 26.2
// and 12.2 calls on this fixture). A PUT persists no forward link to its
// predecessor and the cleaner no transfer flag (10.1 and 27.1 calls with
// them). The merge stage's scan starts where stage 1's stopped (23.1
// calls per cleaned object when it re-read stage 1's headers from the
// pool's start). The cleaner's copies land durable behind the verifier's cursor,
// so the verifier visits none of them and the run leaves no durability
// lag (256 visits and 98,304 backlog bytes when the cursor stayed at the
// start of the new pool). The counts are deterministic: the fixture runs
// on one goroutine in virtual time.
func TestEngineDeviceCalls(t *testing.T) {
	const keys, vlen = 256, 256
	cfg := store.Config{Shards: 1, Buckets: 4096, PoolSize: 8 << 20, VerifyTimeout: time.Second}
	dev := &callCounter{Device: nvm.New(cfg.DeviceSize())}
	tick := &stepSink{}
	st, _, err := store.New(dev, cfg, store.Deps{
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
	val := bytes.Repeat([]byte{'v'}, vlen)
	sum := crc.Checksum(val)
	key := func(i int) []byte { return []byte(fmt.Sprintf("obj-%04d", i)) }
	putAll := func() {
		for i := 0; i < keys; i++ {
			if pr := eng.PutInline(nil, key(i), val, sum); pr.Status != store.StatusOK {
				t.Fatalf("put %d: %v", i, pr.Status)
			}
		}
	}
	putAll()
	eng.BGDrain(nil, 1)

	dev.calls = 0
	putAll()
	perPut := float64(dev.calls) / keys

	visited := func() int {
		s := eng.Stats()
		return s.BGVerified + s.BGSkipped + s.BGStale + s.BGInvalidated
	}
	v0 := visited()
	dev.calls = 0
	eng.BGDrain(nil, 1)
	visits := visited() - v0
	if visits < keys {
		t.Fatalf("verifier visited %d objects, want at least the %d new versions", visits, keys)
	}
	perVisit := float64(dev.calls) / float64(visits)

	dev.calls = 0
	for i := 0; i < keys; i++ {
		if r := eng.Get(nil, key(i)); r.Status != store.StatusOK || !r.Durable {
			t.Fatalf("get %d: status %v durable %v", i, r.Status, r.Durable)
		}
	}
	perGet := float64(dev.calls) / keys
	if s := eng.Stats(); s.GetFastPath < keys {
		t.Fatalf("%d of %d gets took the fast path; the fixture must serve durable versions", s.GetFastPath, keys)
	}

	cleaned := func() int { s := eng.Stats(); return s.CleanMoved + s.CleanDropped }
	c0 := cleaned()
	dev.calls = 0
	if !eng.StartCleaning() {
		t.Fatal("no cleaning run started")
	}
	objs := cleaned() - c0
	if s := eng.Stats(); s.Cleanings != 1 || objs != 2*keys {
		t.Fatalf("cleaning: %d runs over %d objects, want 1 over %d", s.Cleanings, objs, 2*keys)
	}
	perClean := float64(dev.calls) / float64(objs)
	if lag, _ := eng.DurabilityLag(); lag != 0 {
		t.Errorf("after a cleaning run the durability lag is %d bytes, want 0", lag)
	}
	v0 = visited()
	eng.BGDrain(nil, 1)
	if n := visited() - v0; n != 0 {
		t.Errorf("after a cleaning run the verifier visits %d objects, want 0", n)
	}

	t.Logf("device calls: %.1f per PutInline, %.1f per verifier visit (%d visits), %.1f per durable Get, %.1f per cleaned object",
		perPut, perVisit, visits, perGet, perClean)
	for _, c := range []struct {
		what     string
		got, max float64
	}{
		{"PutInline of an existing key", perPut, 9},
		{"verifier visit", perVisit, 10},
		{"durable Get", perGet, 3},
		{"cleaned object", perClean, 23},
	} {
		if c.got > c.max {
			t.Errorf("%s makes %.1f device calls, want at most %v", c.what, c.got, c.max)
		}
	}
}
