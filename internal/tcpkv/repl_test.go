package tcpkv

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"efactory/internal/crc"
	"efactory/internal/store"
)

// replPair is a primary a owning pgs placement groups at Replicas 2, with b
// attached as the backup of every one of them. The background verifiers
// are parked, so a version is flagged — and mirrored — only when the test
// reads it. midAppend, once set, runs inside b's next append handler,
// before the record is ingested, and is cleared.
type replPair struct {
	t         *testing.T
	a, b      *Server
	midAppend atomic.Pointer[func()]
}

func startReplPair(t *testing.T, pgs int, cfgB Config) *replPair {
	t.Helper()
	cfg := clusterTestConfig()
	cfg.disableBackground, cfgB.disableBackground = true, true
	return startReplPairWith(t, pgs, cfg, cfgB)
}

// startReplPairWith starts the pair with both configs as given. Unlike
// startReplPair it leaves the background verifiers running, which a
// cleaning test needs: the cleaner backs off from a busy version until a
// verifier or a read flags it.
func startReplPairWith(t *testing.T, pgs int, cfg, cfgB Config) *replPair {
	t.Helper()
	cfg.Replicas, cfgB.Replicas = 2, 2
	p := &replPair{t: t}
	var addrA string
	p.a, addrA = startClusterServer(t, "a", pgs, cfg)
	p.b, _ = startClusterServer(t, "b", 0, cfgB)
	p.b.SetReplCrash(func(point string) bool {
		if point == "backup-append" {
			if fn := p.midAppend.Swap(nil); fn != nil {
				(*fn)()
			}
		}
		return false
	})
	joinInstance(t, addrA, p.b)
	if err := p.a.WaitBackup("b", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	// The last attach's final drain runs under migOne after its map is
	// installed: wait it out, so no copy exports a key the test writes.
	p.a.migOne.Lock()
	p.a.migOne.Unlock()
	return p
}

func (p *replPair) eng(srv *Server, key []byte) *store.Engine {
	return srv.st.Shard(srv.st.ShardFor(key))
}

// write puts one version of key straight into the primary's engine —
// allocation, then the value a client would write one-sidedly — and
// returns its seq, 0 if the allocation failed. Engine.Put does not
// mirror; the flag does.
func (p *replPair) write(key []byte, val string) uint64 {
	eng := p.eng(p.a, key)
	pr := eng.Put(nil, key, len(val), crc.Checksum([]byte(val)))
	if pr.Status != store.StatusOK {
		return 0
	}
	eng.Pool(pr.Pool).WriteValue(pr.Off, len(key), []byte(val))
	return pr.Seq
}

func (p *replPair) put(key []byte, val string) uint64 {
	p.t.Helper()
	seq := p.write(key, val)
	if seq == 0 {
		p.t.Fatalf("put %s: the primary is full", key)
	}
	return seq
}

// settle reads key on the primary: the read flags the newest version, so
// it returns once that version is mirrored to a quorum.
func (p *replPair) settle(key []byte) store.GetResult {
	return p.eng(p.a, key).Get(nil, key)
}

// TestMirrorCompensatesConcurrentChange pins the mirror's compensation
// check. A write whose key did not move during its append costs no export
// on the primary; a newer PUT or a DELETE that lands in the primary's
// engine while the append is on the wire is shipped after it, so the
// backup ends at the primary's state — an acked DELETE is never
// resurrected by a stale mirror.
func TestMirrorCompensatesConcurrentChange(t *testing.T) {
	t.Run("unchanged", func(t *testing.T) {
		p := startReplPair(t, 4, clusterTestConfig())
		key := []byte("hot")
		before := p.a.Stats().KeysExported
		var last string
		for i := 0; i < 200; i++ {
			last = fmt.Sprintf("value-%03d", i)
			seq := p.put(key, last)
			if gr := p.settle(key); gr.Status != store.StatusOK || gr.Seq != seq || !gr.Durable {
				t.Fatalf("write %d: GET = %+v, want durable seq %d", i, gr, seq)
			}
		}
		if n := p.a.Stats().KeysExported - before; n != 0 {
			t.Errorf("the primary exported %d keys for 200 unchanged mirror appends, want 0", n)
		}
		ek, ok := p.eng(p.b, key).ExportOne(key)
		if !ok || ek.Tombstone || string(ek.Versions[len(ek.Versions)-1].Value) != last {
			t.Fatalf("backup holds %+v, %v; want newest value %q", ek, ok, last)
		}
	})

	t.Run("newer PUT mid-append", func(t *testing.T) {
		p := startReplPair(t, 4, clusterTestConfig())
		key := []byte("raced-put")
		p.put(key, "v1")
		var seq atomic.Uint64
		fn := func() { seq.Store(p.write(key, "v2")) }
		p.midAppend.Store(&fn)
		p.settle(key)
		newer := seq.Load()
		if newer == 0 {
			t.Fatal("the backup's append handler never ran the newer PUT")
		}
		_, _, primary, _ := p.eng(p.a, key).ExportState(key)
		tomb, _, backup, found := p.eng(p.b, key).ExportState(key)
		if primary != newer || !found || tomb || backup != primary {
			t.Fatalf("backup at seq %d (found %v, tombstone %v), primary at %d; want both at the newer PUT's %d",
				backup, found, tomb, primary, newer)
		}
	})

	t.Run("DELETE mid-append", func(t *testing.T) {
		p := startReplPair(t, 4, clusterTestConfig())
		key := []byte("raced-del")
		p.put(key, "v1")
		var deleted atomic.Bool
		fn := func() { deleted.Store(p.eng(p.a, key).Del(nil, key) == store.StatusOK) }
		p.midAppend.Store(&fn)
		p.settle(key)
		if !deleted.Load() {
			t.Fatal("the backup's append handler never ran the DELETE")
		}
		if tomb, _, _, found := p.eng(p.b, key).ExportState(key); found && !tomb {
			t.Fatal("the backup resurrected a key deleted on the primary")
		}
		if gr := p.eng(p.b, key).Get(nil, key); gr.Status == store.StatusOK {
			t.Fatalf("the backup serves seq %d of a deleted key", gr.Seq)
		}
	})
}

// TestBackupFullDemotionSaysWhy: a backup whose pools are too small for
// the primary's writes answers StFull, and the primary demotes it from
// every PG it could not mirror to. The demotions count under cause
// "full", and the deficit gauge reads one missing copy per such PG.
func TestBackupFullDemotionSaysWhy(t *testing.T) {
	const pgs = 4
	tiny := clusterTestConfig()
	tiny.PoolSize = 16 << 10
	p := startReplPair(t, pgs, tiny)
	val := string(make([]byte, 1024))
	demoted := func() int {
		n := 0
		for pg := 0; pg < pgs; pg++ {
			if len(p.a.ClusterMap().BackupsFor(pg)) == 0 {
				n++
			}
		}
		return n
	}
	for i := 0; i < 400 && demoted() < pgs; i++ {
		key := []byte(fmt.Sprintf("fill-%03d", i))
		p.put(key, val)
		if gr := p.settle(key); gr.Status != store.StatusOK || !gr.Durable {
			t.Fatalf("write %d: GET = %+v; a demotion must not fail the write", i, gr)
		}
	}
	n := demoted()
	if n == 0 {
		t.Fatal("the backup never filled up")
	}
	t.Logf("the backup was demoted from %d of %d PGs", n, pgs)
	snap := p.a.Metrics().Snapshot()
	for cause, want := range map[string]int{"full": n, "transport": 0, "status": 0} {
		got, ok := snap.CounterValue("efactory_repl_demotions_total", map[string]string{"cause": cause})
		if !ok || got != float64(want) {
			t.Errorf("demotions with cause %q = %v (registered %v), want %d", cause, got, ok, want)
		}
	}
	if got, _ := snap.GaugeValue("efactory_replication_factor_deficit"); got != float64(n) {
		t.Errorf("replication factor deficit = %v, want %d (one per demoted PG)", got, n)
	}
	if _, _, d, _, _ := p.a.ReplCounters(); d != uint64(n) {
		t.Errorf("ReplCounters demotions = %d, want %d", d, n)
	}
}

// TestBackupCleansUnderHotRewrites pins that a backup cleans its log like
// the primary it mirrors. The primary rewrites a few hot keys far past one
// pool's worth of versions while the live data stays tiny: both sides must
// reclaim the dead versions, so the backup never answers full and is
// never demoted (unlike TestBackupFullDemotionSaysWhy, whose live data
// outgrows the pool).
func TestBackupCleansUnderHotRewrites(t *testing.T) {
	const pgs = 4
	small := clusterTestConfig()
	small.PoolSize = 512 << 10
	small.CleanThreshold = 0.5
	p := startReplPairWith(t, pgs, small, small)
	var keys [][]byte
	for i := 0; i < 8; i++ {
		keys = append(keys, []byte(fmt.Sprintf("hot-%d", i)))
	}
	pad := string(make([]byte, 1000))
	last := make([]uint64, len(keys))
	// ~1 KiB versions, 300 per key: about five pools' worth in all.
	for i := 0; i < 300*len(keys); i++ {
		k := i % len(keys)
		if last[k] = p.write(keys[k], fmt.Sprintf("%06d", i)+pad); last[k] == 0 {
			t.Fatalf("write %d: the primary is full (%d cleanings)", i, p.a.Stats().Cleanings)
		}
		if gr := p.settle(keys[k]); gr.Status != store.StatusOK || gr.Seq != last[k] || !gr.Durable {
			t.Fatalf("write %d: GET = %+v, want durable seq %d", i, gr, last[k])
		}
	}
	for pg := 0; pg < pgs; pg++ {
		if len(p.a.ClusterMap().BackupsFor(pg)) == 0 {
			t.Errorf("the backup was demoted from PG %d", pg)
		}
	}
	if _, _, d, _, _ := p.a.ReplCounters(); d != 0 {
		t.Errorf("ReplCounters demotions = %d, want 0", d)
	}
	if got, _ := p.a.Metrics().Snapshot().GaugeValue("efactory_replication_factor_deficit"); got != 0 {
		t.Errorf("replication factor deficit = %v, want 0", got)
	}
	if n := p.b.Stats().Cleanings; n == 0 {
		t.Error("the backup never cleaned its log")
	} else {
		t.Logf("cleanings: primary %d, backup %d; exported %d, imported %d", p.a.Stats().Cleanings, n, p.a.Stats().KeysExported, p.b.Stats().KeysImported)
	}
	for k, key := range keys {
		if gr := p.eng(p.b, key).Get(nil, key); gr.Status != store.StatusOK || gr.Seq != last[k] {
			t.Errorf("backup GET %s = %+v, want seq %d", key, gr, last[k])
		}
	}
}

// TestVerifierRunIsOneFrame pins that one verifier run mirrors as one
// record frame. A backlog of 64 unflagged 4 KiB versions drains in one
// TReplAppend carrying 64 records, not 64 round trips, and every version
// is flagged. With the backup refusing the frame (it holds a newer map),
// the drain flags nothing and its cursor stays on the first record; once
// the primary has adopted that map, the next drain flags every key. The
// verifier's outcome counters count each object once across both drains.
func TestVerifierRunIsOneFrame(t *testing.T) {
	cfg := clusterTestConfig()
	cfg.Shards, cfg.disableBackground = 1, true
	p := startReplPairWith(t, 8, cfg, cfg)
	eng := p.a.st.Shard(0)
	val := make([]byte, 4096)
	counter := func(srv *Server, name string) float64 {
		v, ok := srv.Metrics().Snapshot().CounterValue(name, nil)
		if !ok {
			t.Fatalf("%s is not exported", name)
		}
		return v
	}
	type mark struct {
		frames, records, ingested float64
		bg                        store.Stats
	}
	now := func() mark {
		return mark{counter(p.a, "efactory_repl_appends_total"), counter(p.a, "efactory_repl_records_total"),
			counter(p.b, "efactory_repl_ingested_total"), eng.Stats()}
	}
	// moved checks what a drain did: frames shipped, records in them and
	// ingested by the backup, and the verifier's outcome counters.
	moved := func(leg string, from mark, frames, records float64, verified, stale int) {
		t.Helper()
		to := now()
		if got := to.frames - from.frames; got != frames {
			t.Errorf("%s: %v mirror frames, want %v", leg, got, frames)
		}
		if got := to.records - from.records; got != records {
			t.Errorf("%s: %v mirror records shipped, want %v", leg, got, records)
		}
		if got := to.ingested - from.ingested; got != records {
			t.Errorf("%s: the backup ingested %v records, want %v", leg, got, records)
		}
		got := [4]int{to.bg.BGVerified - from.bg.BGVerified, to.bg.BGSkipped - from.bg.BGSkipped,
			to.bg.BGStale - from.bg.BGStale, to.bg.BGInvalidated - from.bg.BGInvalidated}
		if want := [4]int{verified, 0, stale, 0}; got != want {
			t.Errorf("%s: verifier verified/skipped/stale/invalidated %v, want %v", leg, got, want)
		}
	}
	put := func(key string) store.PutResult {
		t.Helper()
		pr := eng.Put(nil, []byte(key), len(val), crc.Checksum(val))
		if pr.Status != store.StatusOK {
			t.Fatalf("put %s: status %v", key, pr.Status)
		}
		eng.Pool(pr.Pool).WriteValue(pr.Off, len(key), val)
		return pr
	}
	flagged := func(heads []store.PutResult) (n int) {
		for _, pr := range heads {
			if hd := eng.Pool(pr.Pool).Header(pr.Off); hd.Durable() {
				n++
			}
		}
		return n
	}

	from := now()
	heads := make([]store.PutResult, 64)
	for i := range heads {
		heads[i] = put(fmt.Sprintf("one-%02d", i))
	}
	eng.BGDrain(nil, p.a.cfg.BGBatch)
	moved("one frame", from, 1, 64, 64, 0)
	if n := flagged(heads); n != 64 {
		t.Errorf("one frame: %d of 64 versions flagged", n)
	}

	// The refusing leg: 64 keys, then the last four rewritten, so four
	// superseded versions sit behind the first record.
	if p.b.SetClusterMap(p.a.ClusterMap().WithAssign(0, "a")) <= p.a.ClusterMap().Epoch {
		t.Fatal("the backup did not take the newer map")
	}
	for i := range heads {
		heads[i] = put(fmt.Sprintf("two-%02d", i))
	}
	for i := 60; i < 64; i++ {
		heads[i] = put(fmt.Sprintf("two-%02d", i))
	}
	backlog, _ := eng.DurabilityLag()
	from = now()
	eng.BGDrain(nil, p.a.cfg.BGBatch)
	moved("refused", from, 0, 0, 0, 0)
	if n := flagged(heads); n != 0 {
		t.Errorf("refused: %d versions flagged without a quorum", n)
	}
	if after, _ := eng.DurabilityLag(); after != backlog {
		t.Errorf("refused: the backlog went from %d to %d bytes; the cursor must stay on the first record", backlog, after)
	}
	if p.a.ClusterMap().Epoch != p.b.ClusterMap().Epoch {
		t.Fatal("the primary did not adopt the backup's map")
	}
	// 68 objects: a run of 64 (60 records and the four superseded
	// versions), then a run of the last four.
	eng.BGDrain(nil, p.a.cfg.BGBatch)
	moved("accepted", from, 2, 64, 64, 4)
	if n := flagged(heads); n != 64 {
		t.Errorf("accepted: %d of 64 keys flagged", n)
	}
	if _, _, d, _, _ := p.a.ReplCounters(); d != 0 {
		t.Errorf("%d demotions, want 0", d)
	}
}
