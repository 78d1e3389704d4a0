// Run-width equivalence: the background verifier persisting coalesced runs
// must land the store in exactly the state runs of one object (BGStep)
// do — same values served, same durability flags, same counters (modulo
// the BGBatched run counter), and the same post-crash image.
package store_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"efactory/internal/crc"
	"efactory/internal/kv"
	"efactory/internal/nvm"
	"efactory/internal/store"
)

// stepSink is a deterministic clock: every charge advances time by a
// fixed tick, so both engines under comparison see identical timestamps.
type stepSink struct{ now uint64 }

func (s *stepSink) Now() uint64                      { return s.now }
func (s *stepSink) Charge(h any, op store.Op, n int) { s.now += 100 }

// directStore builds a single-goroutine store over an in-memory device.
func directStore(t *testing.T) (*store.Store, *nvm.Memory, *stepSink) {
	t.Helper()
	cfg := store.Config{Shards: 1, Buckets: 256, PoolSize: 64 << 10, VerifyTimeout: 2 * time.Microsecond}
	dev := nvm.New(cfg.DeviceSize())
	tick := &stepSink{}
	deps := store.Deps{
		Sink:        tick,
		NewLock:     func() sync.Locker { return nopLocker{} },
		Spawn:       func(name string, fn func(h any)) { fn(nil) },
		CleanerWait: func(h any) bool { tick.now += 500; return true },
	}
	st, _, err := store.New(dev, cfg, deps)
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	return st, dev, tick
}

type nopLocker struct{}

func (nopLocker) Lock()   {}
func (nopLocker) Unlock() {}

// applyWorkload drives a fixed PUT / torn-PUT / DEL mix and then drains
// the background verifier through drain. The shape deliberately includes
// overwrites (stale versions), deletes, and torn writes (invalidation
// after VerifyTimeout) so both BG paths face every skip reason.
func applyWorkload(t *testing.T, st *store.Store, dev *nvm.Memory, drain func(eng *store.Engine)) {
	t.Helper()
	eng := st.Shard(0)
	put := func(key string, gen int, torn bool) {
		val := []byte(fmt.Sprintf("val-%s-g%02d-%s", key, gen, "xxxxxxxxxxxxxxxxxxxxxxxx"))
		pr := eng.Put(nil, []byte(key), len(val), crc.Checksum(val))
		if pr.Status != store.StatusOK {
			t.Fatalf("put %s g%d: status %v", key, gen, pr.Status)
		}
		if !torn {
			pool := eng.Pool(pr.Pool)
			dev.Write(pool.Base()+int(pr.Off)+kv.ValueOffset(len(key)), val)
		}
	}
	for gen := 0; gen < 6; gen++ {
		for k := 0; k < 10; k++ {
			key := fmt.Sprintf("key-%02d", k)
			torn := gen == 2 && k%4 == 3 // a slice of writers die mid-value
			put(key, gen, torn)
			if gen == 4 && k%5 == 2 {
				eng.Del(nil, []byte(key))
			}
		}
		if gen%2 == 1 {
			drain(eng)
		}
	}
	// Final drain: loop until the cursor parks. Torn values need the
	// VerifyTimeout clock to invalidate, which every drain advance covers
	// because each scan charges the sink.
	for i := 0; i < 200; i++ {
		drain(eng)
	}
}

// storeImage summarizes the externally observable state: per-key value
// and durability flag, plus the engine counters.
func storeImage(st *store.Store) (map[string]string, store.Stats) {
	eng := st.Shard(0)
	img := make(map[string]string)
	for k := 0; k < 10; k++ {
		key := fmt.Sprintf("key-%02d", k)
		gr := eng.Get(nil, []byte(key))
		if gr.Status != store.StatusOK {
			img[key] = fmt.Sprintf("status=%v", gr.Status)
			continue
		}
		pool := eng.Pool(gr.Pool)
		hd := pool.Header(gr.Off)
		img[key] = fmt.Sprintf("durable=%v val=%q", hd.Durable(), pool.ReadValue(gr.Off, hd.KLen, hd.VLen))
	}
	return img, st.StatsTotal()
}

func TestBGBatchMatchesBGStep(t *testing.T) {
	stA, devA, _ := directStore(t)
	applyWorkload(t, stA, devA, func(eng *store.Engine) {
		eng.BGStep(nil, eng.CurrentPool())
	})
	stB, devB, _ := directStore(t)
	applyWorkload(t, stB, devB, func(eng *store.Engine) {
		eng.BGBatch(nil, eng.CurrentPool(), 8)
	})

	imgA, statsA := storeImage(stA)
	imgB, statsB := storeImage(stB)
	for k, a := range imgA {
		if b := imgB[k]; a != b {
			t.Errorf("%s: BGStep %s, BGBatch %s", k, a, b)
		}
	}
	if statsB.BGBatched == 0 {
		t.Error("BGBatch drained the log without a single coalesced run")
	}
	statsA.BGBatched, statsB.BGBatched = 0, 0
	if statsA != statsB {
		t.Errorf("counters diverge:\n BGStep  %+v\n BGBatch %+v", statsA, statsB)
	}
	stA.Stop()
	stB.Stop()

	// Crash both (survival 0: only flushed lines persist) and compare the
	// recovered images — the batched flush ordering must persist exactly
	// what the per-object ordering does.
	for name, dev := range map[string]*nvm.Memory{"A": devA, "B": devB} {
		dev.Crash(42, 0)
		_ = name
	}
	recover := func(dev *nvm.Memory) map[string]string {
		cfg := store.Config{Shards: 1, Buckets: 256, PoolSize: 64 << 10, VerifyTimeout: 2 * time.Microsecond}
		tick := &stepSink{}
		st, _, err := store.New(dev, cfg, store.Deps{
			Sink:        tick,
			NewLock:     func() sync.Locker { return nopLocker{} },
			Spawn:       func(name string, fn func(h any)) { fn(nil) },
			CleanerWait: func(h any) bool { tick.now += 500; return true },
		})
		if err != nil {
			t.Fatalf("recovery: %v", err)
		}
		defer st.Stop()
		img, _ := storeImage(st)
		return img
	}
	recA, recB := recover(devA), recover(devB)
	for k, a := range recA {
		if b := recB[k]; a != b {
			t.Errorf("post-crash %s: BGStep %s, BGBatch %s", k, a, b)
		}
	}
}

// TestBGBatchDegeneratesToStep: a run width below one is a run of one
// object, like BGStep, and issues no coalesced run.
func TestBGBatchDegeneratesToStep(t *testing.T) {
	st, dev, _ := directStore(t)
	defer st.Stop()
	eng := st.Shard(0)
	val := bytes.Repeat([]byte{'v'}, 64)
	pr := eng.Put(nil, []byte("solo"), len(val), crc.Checksum(val))
	if pr.Status != store.StatusOK {
		t.Fatalf("put: %v", pr.Status)
	}
	pool := eng.Pool(pr.Pool)
	dev.Write(pool.Base()+int(pr.Off)+kv.ValueOffset(4), val)
	if n := eng.BGBatch(nil, eng.CurrentPool(), 0); n != 1 {
		t.Fatalf("BGBatch(max=0) = %d, want 1 (degenerate BGStep)", n)
	}
	if got := eng.Stats().BGVerified; got != 1 {
		t.Fatalf("BGVerified = %d, want 1", got)
	}
	if got := eng.Stats().BGBatched; got != 0 {
		t.Fatalf("BGBatched = %d, want 0 for the degenerate path", got)
	}
}

// TestAdaptiveBGBatchTracksBacklog: an idle shard verifies one object at
// a time; a backlogged shard scales up to the cap.
func TestAdaptiveBGBatchTracksBacklog(t *testing.T) {
	st, dev, _ := directStore(t)
	defer st.Stop()
	eng := st.Shard(0)
	if got := eng.AdaptiveBGBatch(16); got != 1 {
		t.Fatalf("empty log: adaptive batch = %d, want 1", got)
	}
	val := bytes.Repeat([]byte{'v'}, 1024)
	for i := 0; i < 48; i++ {
		key := []byte(fmt.Sprintf("lag-%02d", i))
		pr := eng.Put(nil, key, len(val), crc.Checksum(val))
		if pr.Status != store.StatusOK {
			t.Fatalf("put %d: %v", i, pr.Status)
		}
		pool := eng.Pool(pr.Pool)
		dev.Write(pool.Base()+int(pr.Off)+kv.ValueOffset(len(key)), val)
	}
	if got := eng.AdaptiveBGBatch(16); got != 16 {
		t.Fatalf("~50 KiB backlog: adaptive batch = %d, want the cap 16", got)
	}
	if got := eng.AdaptiveBGBatch(1); got != 1 {
		t.Fatalf("cap 1: adaptive batch = %d, want 1", got)
	}
}

// TestVirtualClockTimesEverySection: an engine off the wall clock times
// every section, so each section histogram counts exactly the work it
// names. The batch figure's bg-runs is the bg_flush count.
func TestVirtualClockTimesEverySection(t *testing.T) {
	st, _, _ := directStore(t)
	defer st.Stop()
	eng := st.Shard(0)
	const keys = 100 // more than one wall-clock sample period
	val := []byte("a value the verifier checks")
	for gen := 0; gen < 2; gen++ {
		for i := 0; i < keys; i++ {
			key := []byte(fmt.Sprintf("sec-%03d", i))
			if pr := eng.PutInline(nil, key, val, crc.Checksum(val)); pr.Status != store.StatusOK {
				t.Fatalf("put %d: %v", i, pr.Status)
			}
		}
	}
	eng.BGDrain(nil, 1) // one object per run: one bg_flush per verified object
	for i := 0; i < keys; i++ {
		if r := eng.Get(nil, []byte(fmt.Sprintf("sec-%03d", i))); r.Status != store.StatusOK {
			t.Fatalf("get %d: %v", i, r.Status)
		}
	}
	eng.Del(nil, []byte("sec-000"))

	s := eng.Stats()
	snap := st.Metrics().Snapshot()
	for _, c := range []struct {
		section string
		want    int
	}{
		{"put", s.Puts},
		{"alloc", s.Puts},
		{"get", s.Gets},
		{"lookup", s.Gets + s.Dels},
		{"get_scan", s.Gets},
		{"del", s.Dels},
		{"bg_scan", s.BGVerified + s.BGStale},
		{"bg_lookup", s.BGVerified + s.BGStale},
		{"bg_crc", s.BGVerified},
		{"bg_flush", s.BGVerified},
	} {
		if got := snap.MergedOp(c.section).Count; got != uint64(c.want) {
			t.Errorf("%s histogram has %d samples, want %d", c.section, got, c.want)
		}
	}
	if s.BGVerified != keys || s.BGStale != keys {
		t.Fatalf("verifier verified %d and skipped %d stale, want %d each", s.BGVerified, s.BGStale, keys)
	}
}

// loadForDrain fills a fresh store with verified-ready objects, so a
// drain benchmark measures pure background-verification work.
func loadForDrain(b *testing.B, st *store.Store, dev *nvm.Memory, n, vlen int) {
	b.Helper()
	eng := st.Shard(0)
	val := bytes.Repeat([]byte{'v'}, vlen)
	sum := crc.Checksum(val)
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("obj-%04d", i))
		pr := eng.Put(nil, key, len(val), sum)
		if pr.Status != store.StatusOK {
			b.Fatalf("load put %d: %v", i, pr.Status)
		}
		pool := eng.Pool(pr.Pool)
		dev.Write(pool.Base()+int(pr.Off)+kv.ValueOffset(len(key)), val)
	}
}

// benchClocks are the engine set-ups the engine benchmarks run under:
// "virtual" is a step clock with no-op locks, as the simulator runs the
// engine; "wall" is the default Deps (the wall clock and sync.Mutex), as
// tcpkv runs it.
var benchClocks = []struct {
	name string
	wall bool
}{{"virtual", false}, {"wall", true}}

// benchStore builds a one-shard bench store, on the wall clock when wall
// is set and on a step clock otherwise. Cleaning is off.
func benchStore(b *testing.B, wall bool) (*store.Store, *nvm.Memory) {
	b.Helper()
	cfg := store.Config{Shards: 1, Buckets: 4096, PoolSize: 8 << 20, VerifyTimeout: time.Second}
	dev := nvm.New(cfg.DeviceSize())
	var deps store.Deps
	if !wall {
		tick := &stepSink{}
		deps = store.Deps{
			Sink:        tick,
			NewLock:     func() sync.Locker { return nopLocker{} },
			Spawn:       func(name string, fn func(h any)) { fn(nil) },
			CleanerWait: func(h any) bool { tick.now += 500; return true },
		}
	}
	st, _, err := store.New(dev, cfg, deps)
	if err != nil {
		b.Fatalf("store.New: %v", err)
	}
	return st, dev
}

// BenchmarkBGStepDrain drains a 512-object backlog one object per lock
// acquisition: the classic §4.3.2 loop. Allocation count per op is the
// scratch-buffer regression gate — the verify path must not allocate per
// object.
func BenchmarkBGStepDrain(b *testing.B) {
	const objs = 512
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, dev := benchStore(b, false)
		loadForDrain(b, st, dev, objs, 256)
		eng := st.Shard(0)
		b.StartTimer()
		for eng.BGStep(nil, eng.CurrentPool()) {
		}
		b.StopTimer()
		if got := eng.Stats().BGVerified; got != objs {
			b.Fatalf("verified %d, want %d", got, objs)
		}
		st.Stop()
	}
	b.ReportAllocs()
}

// BenchmarkBGBatchDrain drains the same backlog with 16-object coalesced
// runs: one lock acquisition and one flush+drain pair per run.
func BenchmarkBGBatchDrain(b *testing.B) {
	const objs = 512
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, dev := benchStore(b, false)
		loadForDrain(b, st, dev, objs, 256)
		eng := st.Shard(0)
		b.StartTimer()
		for eng.BGBatch(nil, eng.CurrentPool(), 16) > 0 {
		}
		b.StopTimer()
		if got := eng.Stats().BGVerified; got != objs {
			b.Fatalf("verified %d, want %d", got, objs)
		}
		st.Stop()
	}
	b.ReportAllocs()
}

// BenchmarkEngineGet measures the hot read path (lookup + header checks +
// durability bookkeeping); with the scratch buffers it must be
// allocation-free.
func BenchmarkEngineGet(b *testing.B) {
	for _, c := range benchClocks {
		b.Run(c.name, func(b *testing.B) {
			st, dev := benchStore(b, c.wall)
			defer st.Stop()
			loadForDrain(b, st, dev, 256, 256)
			eng := st.Shard(0)
			for eng.BGBatch(nil, eng.CurrentPool(), 16) > 0 {
			}
			keys := make([][]byte, 256)
			for i := range keys {
				keys[i] = []byte(fmt.Sprintf("obj-%04d", i))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if gr := eng.Get(nil, keys[i%len(keys)]); gr.Status != store.StatusOK {
					b.Fatalf("get: %v", gr.Status)
				}
			}
		})
	}
}

// TestMirrorRunAllocs: a verifier run that ships mirror records builds
// them in scratch the engine reuses — the records, their key and value
// bytes, the verdicts and the offsets to persist — so once warm, writing
// 64 versions and draining them through Deps.Mirror allocates nothing,
// and each drain hands the hook all 64 records in one call.
func TestMirrorRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime's own bookkeeping allocates")
	}
	const keys = 64
	cfg := store.Config{Shards: 1, Buckets: 1024, PoolSize: 8 << 20, VerifyTimeout: time.Second}
	calls, recs := 0, 0
	st, _, err := store.New(nvm.New(cfg.DeviceSize()), cfg, store.Deps{
		Mirror: func(_ any, rs []store.ExportKey, ok []bool) {
			calls, recs = calls+1, recs+len(rs)
			for i := range ok {
				ok[i] = true
			}
		},
	})
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	defer st.Stop()
	eng := st.Shard(0)
	val := bytes.Repeat([]byte{'v'}, 4096)
	sum := crc.Checksum(val)
	var names [keys][]byte
	for k := range names {
		names[k] = []byte(fmt.Sprintf("obj-%02d", k))
	}
	round := func() {
		for _, k := range names {
			if pr := eng.PutInline(nil, k, val, sum); pr.Status != store.StatusOK {
				t.Fatalf("put %s: %v", k, pr.Status)
			}
		}
		eng.BGDrain(nil, 0)
	}
	round()
	calls, recs = 0, 0
	avg := testing.AllocsPerRun(20, round)
	if avg != 0 {
		t.Errorf("writing and mirroring %d versions allocates %.1f objects, want 0", keys, avg)
	}
	if calls != 21 || recs != 21*keys {
		t.Errorf("the hook got %d records in %d calls, want %d in 21", recs, calls, 21*keys)
	}
	if lag, _ := eng.DurabilityLag(); lag != 0 {
		t.Errorf("%d bytes left unverified", lag)
	}
}
