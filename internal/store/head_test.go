// The head rule under a slow cleaner, in virtual time: the cleaner runs as
// a coroutine of the test, so every interleaving of cleaning stages with
// PUT, torn PUT, DEL and GET on one key is chosen by the test and replayed
// exactly — no sleeps, no wall-clock timeouts.
package store_test

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"efactory/internal/crc"
	"efactory/internal/kv"
	"efactory/internal/nvm"
	"efactory/internal/store"
)

// coCleaner is the engine's clock and its cleaner's scheduler. The
// cleaner runs only inside step and hands control back at every
// CleanerWait — and, with charges set, at every Charge it makes, the
// simulator's cooperative schedule without the simulator.
type coCleaner struct {
	now     uint64
	charges bool
	running bool
	op      store.Op // the cleaner's last charge
	resume  chan struct{}
	parked  chan bool // true once the run has finished
	// request, if set, runs at every charge a request makes: the cleaner
	// can be stepped inside it, as the simulator would while the request
	// sleeps.
	request func(op store.Op)
}

func (c *coCleaner) Now() uint64 { return c.now }

func (c *coCleaner) Charge(h any, op store.Op, n int) {
	c.now++
	switch {
	case h == c:
		if c.charges {
			c.op = op
			c.yield()
		}
	case c.request != nil:
		c.request(op)
	}
}

func (c *coCleaner) yield() {
	c.parked <- false
	<-c.resume
}

// step runs the cleaner until it next parks and reports whether the run
// finished.
func (c *coCleaner) step() bool {
	c.resume <- struct{}{}
	done := <-c.parked
	c.running = !done
	return done
}

// headRig is a one-shard store whose cleaner is a coCleaner.
type headRig struct {
	t   *testing.T
	co  *coCleaner
	dev *nvm.Memory
	st  *store.Store
	eng *store.Engine
	vt  uint64 // VerifyTimeout in clock units
}

func newHeadRig(t *testing.T, charges bool, tweaks ...func(*store.Deps)) *headRig {
	t.Helper()
	cfg := store.Config{Shards: 1, Buckets: 64, PoolSize: 64 << 10, VerifyTimeout: time.Millisecond}
	co := &coCleaner{charges: charges, resume: make(chan struct{}), parked: make(chan bool)}
	deps := store.Deps{
		Sink:    co,
		NewLock: func() sync.Locker { return nopLocker{} },
		Spawn: func(name string, fn func(h any)) {
			co.running = true
			go func() {
				<-co.resume
				fn(co)
				co.parked <- true
			}()
		},
		CleanerWait: func(h any) bool { co.yield(); return true },
	}
	for _, tweak := range tweaks {
		tweak(&deps)
	}
	dev := nvm.New(cfg.DeviceSize())
	st, _, err := store.New(dev, cfg, deps)
	if err != nil {
		t.Fatal(err)
	}
	return &headRig{t: t, co: co, dev: dev, st: st, eng: st.Shard(0), vt: uint64(cfg.VerifyTimeout)}
}

// put allocates key and, if land, writes the value one-sidedly; a PUT
// that does not land is torn.
func (r *headRig) put(key, val string, land bool) uint64 {
	r.t.Helper()
	pr := r.eng.Put(nil, []byte(key), len(val), crc.Checksum([]byte(val)))
	if pr.Status != store.StatusOK {
		r.t.Fatalf("put %s: status %v", key, pr.Status)
	}
	if land {
		r.dev.Write(r.eng.Pool(pr.Pool).Base()+int(pr.Off)+kv.ValueOffset(len(key)), []byte(val))
	}
	return pr.Seq
}

func (r *headRig) get(key string) (val string, seq uint64, ok bool) {
	gr := r.eng.Get(nil, []byte(key))
	if gr.Status != store.StatusOK {
		return "", 0, false
	}
	pool := r.eng.Pool(gr.Pool)
	hd := pool.Header(gr.Off)
	return string(pool.ReadValue(gr.Off, hd.KLen, hd.VLen)), gr.Seq, true
}

// expire moves the clock past VerifyTimeout: every value still in flight
// is torn from now on.
func (r *headRig) expire() { r.co.now += r.vt + 1 }

// finish runs the cleaner to the end of its run, expiring whatever it
// waits on.
func (r *headRig) finish() {
	for r.co.running {
		r.expire()
		r.co.step()
	}
}

// stepToFinalSweep steps the cleaner (charges set) until its final sweep
// parks at the first entry, past the switch to merging.
func (r *headRig) stepToFinalSweep() {
	r.t.Helper()
	for r.co.op != store.OpCleanEntry {
		if r.co.step() {
			r.t.Fatal("the run ended before its final sweep parked")
		}
	}
}

// TestSlowCleanerServesNewestVersion is the slow-cleaner regression in
// virtual time. A torn PUT of another key parks the cleaner in each stage
// while one key goes: PUT v1 → migrated and staged → compress-stage PUT
// v2, made durable by a read → merge-stage torn PUT v3. Both reads must
// serve v2: the compress-stage one, and the one that rolls back from v3
// once v3 is invalidated. A read preferring the staged copy, or a v3
// chained past v2 to it, serves v1.
func TestSlowCleanerServesNewestVersion(t *testing.T) {
	r := newHeadRig(t, false)
	r.put("block-compress", "never lands", false)
	r.put("k", "v1", true)
	if v, _, _ := r.get("k"); v != "v1" {
		t.Fatalf("GET k = %q, want v1", v)
	}

	// Compress stage: k (newest) is migrated, then the cleaner parks on
	// the in-flight block-compress.
	if !r.st.StartCleaning() || r.co.step() {
		t.Fatal("the cleaner did not park in the compress stage")
	}
	if _, en, _ := r.eng.Table().Lookup(kv.HashKey([]byte("k"))); en.Other() == 0 {
		t.Fatal("k was not staged before the cleaner parked")
	}
	r.put("k", "v2", true)
	if v, _, _ := r.get("k"); v != "v2" {
		t.Errorf("mid-compress GET k = %q, want v2", v)
	}

	// Merge stage: block-compress expires, and a fresh torn PUT of another
	// key in the merge window parks the cleaner again.
	r.expire()
	r.put("block-merge", "never lands either", false)
	if r.co.step() {
		t.Fatal("the cleaner did not park in the merge stage")
	}
	r.put("k", "v3", false)
	r.expire()
	if v, _, _ := r.get("k"); v != "v2" {
		t.Errorf("GET k after v3 was invalidated = %q, want v2", v)
	}
	if n := r.st.StatsTotal().GetInvalidated; n != 1 {
		t.Errorf("GetInvalidated = %d, want 1 (v3)", n)
	}

	r.finish()
	if v, _, _ := r.get("k"); v != "v2" {
		t.Errorf("GET k after cleaning = %q, want v2", v)
	}
	if n := r.st.StatsTotal().Cleanings; n != 1 {
		t.Errorf("Cleanings = %d, want 1", n)
	}
}

// TestSweptTombstoneExports: k is migrated, deleted mid-compress and
// re-PUT torn, so the final sweep is left with only the pre-delete copy,
// below k's cut, and keeps the entry as a tombstone. That tombstone and
// its cut must still export, or a migration target never learns of the
// DELETE.
func TestSweptTombstoneExports(t *testing.T) {
	r := newHeadRig(t, false)
	r.put("block-compress", "never lands", false)
	r.put("k", "v1", true)
	if !r.st.StartCleaning() || r.co.step() {
		t.Fatal("the cleaner did not park in the compress stage")
	}
	if _, en, _ := r.eng.Table().Lookup(kv.HashKey([]byte("k"))); en.Other() == 0 {
		t.Fatal("k was not staged before the cleaner parked")
	}
	if s := r.eng.Del(nil, []byte("k")); s != store.StatusOK {
		t.Fatalf("del k: %v", s)
	}
	cut := r.put("k", "v3", false)
	r.finish()

	if _, _, ok := r.get("k"); ok {
		t.Error("k is readable after its re-PUT tore")
	}
	ek, ok := r.eng.ExportOne([]byte("k"))
	if !ok || !ek.Tombstone || ek.CutSeq != cut || len(ek.Versions) != 0 {
		t.Fatalf("ExportOne(k) = %+v, %v; want a tombstone with cut %d", ek, ok, cut)
	}
}

// TestKeyCreatedDuringFinalSweepSurvives: a PUT claims a fresh slot
// behind the final sweep's position, so the sweep never visits it. The
// entry must still name the pool its one location is in, or the next
// run's sweep flips it the wrong way — clearing the copy it just migrated
// — and the run after that zeroes the pool its location is left in.
func TestKeyCreatedDuringFinalSweepSurvives(t *testing.T) {
	r := newHeadRig(t, true)
	tab := r.eng.Table()
	bucket := func(k string) int { return tab.BucketIndex(kv.HashKey([]byte(k))) }
	var hi, lo string
	for i := 0; hi == "" || lo == ""; i++ {
		k := fmt.Sprintf("k%d", i)
		if b := bucket(k); b >= tab.N()/2 && hi == "" {
			hi = k
		} else if b < tab.N()/2 && lo == "" {
			lo = k
		}
	}
	r.put(hi, "hi", true)
	if !r.st.StartCleaning() {
		t.Fatal("cleaning did not start")
	}
	r.stepToFinalSweep()
	// The sweep is parked at hi, the only entry, past lo's home bucket.
	r.put(lo, "lo", true)
	r.finish()
	for range 2 {
		if !r.st.StartCleaning() {
			t.Fatal("cleaning did not start")
		}
		r.finish()
	}
	for k, want := range map[string]string{hi: "hi", lo: "lo"} {
		if v, _, ok := r.get(k); !ok || v != want {
			t.Errorf("GET %s after three cleanings = %q, %v; want %q", k, v, ok, want)
		}
	}
}

// TestPutAcrossMergeSwitchLandsInNewPool: a PUT's allocation charge is a
// yield point, and the cleaner switches from compressing to merging during
// it. The version must go to the new pool: appended to the old one past
// the merge window, it is never merged, and the final sweep flips k back
// to its migrated v1.
func TestPutAcrossMergeSwitchLandsInNewPool(t *testing.T) {
	r := newHeadRig(t, true)
	r.put("k", "v1", true)
	if !r.st.StartCleaning() {
		t.Fatal("cleaning did not start")
	}
	r.co.request = func(op store.Op) {
		if op == store.OpAlloc {
			r.co.request = nil
			r.stepToFinalSweep()
		}
	}
	r.put("k", "v2", true)
	r.finish()
	if v, _, _ := r.get("k"); v != "v2" {
		t.Errorf("GET k after cleaning = %q, want v2", v)
	}
}

// TestMergePutChainsToMigratedCopy: k's v1 is migrated past a dead v2, and
// a merge-stage PUT v3 tears. Rolling back from v3 must reach v1's copy: a
// v3 chained to v2 (the higher sequence number) rolls back into the pool
// this run leaves behind, and the next run zeroes it.
func TestMergePutChainsToMigratedCopy(t *testing.T) {
	r := newHeadRig(t, true)
	r.put("k", "v1", true)
	r.get("k")
	r.put("k", "v2", false)
	r.expire()
	if !r.st.StartCleaning() {
		t.Fatal("cleaning did not start")
	}
	r.stepToFinalSweep()
	r.put("k", "v3", false)
	r.finish()
	if !r.st.StartCleaning() || r.co.step() {
		t.Fatal("the second run did not park")
	}
	if v, _, _ := r.get("k"); v != "v1" {
		t.Errorf("GET k in the next run = %q, want v1", v)
	}
	r.finish()
	if v, _, _ := r.get("k"); v != "v1" {
		t.Errorf("GET k after it = %q, want v1", v)
	}
}

// TestBGCursorStaysOnRecycledPool: the verifier's superseded test charges
// a lookup, a yield in the simulator, and the cleaner recycles the pool
// being scanned during it. The cursor the cleaner reset must stay at 0:
// advanced past the old object, it lands mid-object in the fresh pool and
// the verifier stalls there until the next cleaning.
func TestBGCursorStaysOnRecycledPool(t *testing.T) {
	r := newHeadRig(t, true)
	r.put("k", strings.Repeat("1", 100), true) // superseded, never verified
	r.put("k", "v2", true)
	if !r.st.StartCleaning() {
		t.Fatal("cleaning did not start")
	}
	r.finish() // k now lives in pool 1; pool 0 still holds the old run
	r.co.request = func(op store.Op) {
		if op == store.OpBGLookup {
			r.co.request = nil
			if !r.st.StartCleaning() || r.co.step() {
				t.Fatal("the second run did not park")
			}
		}
	}
	if r.eng.BGStep(nil, 0) {
		t.Error("BGStep reported progress on a pool recycled under it")
	}
	r.finish()
	r.put("fresh", strings.Repeat("f", 200), true)
	r.eng.BGDrain(nil, 1)
	if lag, _ := r.eng.DurabilityLag(); lag != 0 {
		t.Errorf("backlog after a full drain = %d B, want 0", lag)
	}
	if n := r.st.StatsTotal().BGVerified; n != 1 {
		t.Errorf("BGVerified = %d, want 1 (fresh)", n)
	}
}

// TestHeadMonotoneUnderCleaning is the (stage, op) property: over random
// interleavings of cleaner steps — parking at every charge, so every
// stage boundary is reachable, and inside a request's charge — with PUT,
// torn PUT, DEL, expiry, the background verifier and GET on one key, a
// GET never returns a sequence number below one already returned, never
// one at or below an acknowledged DELETE, never nothing once it returned
// a version newer than the last DELETE, and always the bytes written
// under it.
func TestHeadMonotoneUnderCleaning(t *testing.T) {
	const key = "k"
	prop := func(script []uint8) bool {
		r := newHeadRig(t, true)
		defer r.finish()
		vals := map[uint64]string{}
		var last, seen, dead uint64
		check := func(at int) bool {
			v, seq, ok := r.get(key)
			if !ok && seen <= dead {
				return true
			}
			if seq < seen || seq <= dead || v != vals[seq] {
				t.Logf("op %d of %v: GET = seq %d %q; seen %d, dead through %d, wrote %q",
					at, script, seq, v, seen, dead, vals[seq])
				return false
			}
			seen = seq
			return true
		}
		for i, b := range script {
			switch b % 8 {
			case 0, 1: // PUT, landed or torn
				val := fmt.Sprintf("v%d", last+1)
				last = r.put(key, val, b%8 == 0)
				vals[last] = val
			case 2:
				if r.eng.Del(nil, []byte(key)) == store.StatusOK {
					dead = last
				}
			case 3:
				if !check(i) {
					return false
				}
			case 4:
				r.expire()
			case 5:
				if r.co.running || r.st.StartCleaning() {
					r.co.step()
				}
			case 6:
				r.eng.BGDrain(nil, 1)
			case 7: // step the cleaner inside the next request's charge
				r.co.request = func(store.Op) {
					r.co.request = nil
					if r.co.running {
						r.co.step()
					}
				}
			}
		}
		r.finish()
		return check(len(script))
	}
	cfg := &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestExportStateMatchesExportOne is the differential property of the
// mirror's compensation check: over random interleavings of PUT, torn
// PUT, DEL, GET, expiry, the background verifier, a durability-upgrade
// import and cleaner steps (parking at every charge, and inside a
// request's charge) on three keys, Engine.ExportState agrees after every
// step with ExportOne's tombstone bit, cut, newest seq and found verdict
// for every key.
func TestExportStateMatchesExportOne(t *testing.T) {
	keys := []string{"k0", "k1", "k2"}
	prop := func(script []uint8) bool {
		r := newHeadRig(t, true)
		defer r.finish()
		agree := func(at int) bool {
			for _, k := range keys {
				ek, ok := r.eng.ExportOne([]byte(k))
				tomb, cut, newest, found := r.eng.ExportState([]byte(k))
				if tomb != ek.Tombstone || cut != ek.CutSeq || newest != ek.NewestSeq() || found != ok {
					t.Logf("op %d of %v, key %s: ExportState = (%v, %d, %d, %v), ExportOne = (%v, %d, %d, %v)",
						at, script, k, tomb, cut, newest, found, ek.Tombstone, ek.CutSeq, ek.NewestSeq(), ok)
					return false
				}
			}
			return true
		}
		for i, b := range script {
			key := keys[int(b/10)%len(keys)]
			switch b % 10 {
			case 0, 1: // PUT, landed or torn
				r.put(key, fmt.Sprintf("v%d-%d", i, b), b%10 == 0)
			case 2:
				r.eng.Del(nil, []byte(key))
			case 3:
				r.get(key)
			case 4:
				r.expire()
			case 5:
				if r.co.running || r.st.StartCleaning() {
					r.co.step()
				}
			case 6:
				r.eng.BGDrain(nil, 1)
			case 7: // step the cleaner inside the next request's charge
				r.co.request = func(store.Op) {
					r.co.request = nil
					if r.co.running {
						r.co.step()
					}
				}
			case 8: // a durable copy of a pending head shadows it at its seq
				if ek, ok := r.eng.ExportOne([]byte(key)); ok && !ek.Tombstone {
					v := ek.Versions[len(ek.Versions)-1]
					v.Flags |= kv.FlagDurable
					ek.Versions = []store.ExportVersion{v}
					r.eng.ImportKey(nil, ek)
				}
			case 9: // re-PUT of the same value
				if v, _, ok := r.get(key); ok {
					r.put(key, v, true)
				}
			}
			if !agree(i) {
				return false
			}
		}
		r.finish()
		return agree(len(script))
	}
	scripts := 5000
	if raceEnabled {
		scripts /= 10
	}
	for seed := int64(1); seed <= 3; seed++ {
		cfg := &quick.Config{MaxCount: scripts, Rand: rand.New(rand.NewSource(seed))}
		if err := quick.Check(prop, cfg); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
