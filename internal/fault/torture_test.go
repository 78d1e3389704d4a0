package fault

import (
	"fmt"
	"testing"
	"time"

	"efactory/internal/crc"
	"efactory/internal/nvm"
	"efactory/internal/store"
)

// Script constructors: hand-written workloads for surgical crash-point
// sweeps (the regression tests pinning specific engine bugs) are plain
// []Op, replayed through the same store fixture and driver as the seeded
// schedule.
func put(k, v string) Op { return Op{Kind: Put, Keys: [][]byte{[]byte(k)}, Vals: [][]byte{[]byte(v)}} }
func torn(k, v string) Op {
	return Op{Kind: TornPut, Keys: [][]byte{[]byte(k)}, Vals: [][]byte{[]byte(v)}}
}
func get(k string) Op { return Op{Kind: Get, Keys: [][]byte{[]byte(k)}} }
func del(k string) Op { return Op{Kind: Del, Keys: [][]byte{[]byte(k)}} }

// runScript executes a scripted workload under a Plan tripping at
// crashAt — no cleaning, no background steps, survival 0 (only flushed
// lines persist) — and returns the boundary count and oracle violations.
func runScript(t *testing.T, ops []Op, crashAt int64) (int64, []string) {
	t.Helper()
	cfg := Config{Shards: 1, Buckets: 32, PoolSize: 4096, CleanEvery: -1, BGEvery: -1, CrashAt: crashAt}
	res, err := runStore(cfg.WithDefaults(), ops)
	if err != nil {
		t.Fatalf("runStore: %v", err)
	}
	return res.Boundaries, res.Violations
}

// sweepScript sweeps the crash point over every boundary of the scripted
// workload and fails the test on any oracle violation.
func sweepScript(t *testing.T, ops []Op) {
	t.Helper()
	total, violations := runScript(t, ops, 0)
	if len(violations) != 0 {
		t.Fatalf("no-crash run violated the oracle: %v", violations)
	}
	if total <= 0 {
		t.Fatal("script produced no boundaries")
	}
	for k := int64(1); k <= total; k++ {
		if _, vs := runScript(t, ops, k); len(vs) != 0 {
			t.Errorf("crash at boundary %d/%d: %v", k, total, vs)
		}
	}
}

// TestSweepReputAfterDelete pins the delete-durability ordering bug: the
// re-PUT of a tombstoned key must publish the new location before
// clearing the tombstone, or a crash between the two persisted words
// resurrects the pre-delete version after an acknowledged DELETE.
func TestSweepReputAfterDelete(t *testing.T) {
	sweepScript(t, []Op{
		put("k", "v1-aaaaaaaaaaaaaaaa"),
		get("k"),
		del("k"),
		put("k", "v2-bbbbbbbbbbbbbbbb"),
		get("k"),
	})
}

// TestSweepTornReputAfterDelete pins the version-chain bug: a re-PUT of a
// tombstoned key must cut PrePtr at the tombstone. If it chains to the
// pre-delete version and its own value never lands, both live GET
// rollback and crash recovery serve the deleted data.
func TestSweepTornReputAfterDelete(t *testing.T) {
	sweepScript(t, []Op{
		put("k", "v1-aaaaaaaaaaaaaaaa"),
		get("k"),
		del("k"),
		torn("k", "v2-bbbbbbbbbbbbbbbb"),
		get("k"),
	})
}

// newTinyStore builds a deterministic single-shard store whose pool holds
// exactly two of the test's objects, so a third PUT fails pool-full.
func newTinyStore(t *testing.T) *store.Store {
	t.Helper()
	scfg := store.Config{Shards: 1, Buckets: 8, PoolSize: 256, VerifyTimeout: 2 * time.Microsecond}
	tick := &tickSink{}
	st, _, err := store.New(nvm.New(scfg.DeviceSize()), scfg, harnessDeps(tick, tick))
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	return st
}

// TestOpAllocObservedOnPoolFull pins the metrics bug: the OpAlloc section
// latency must be observed on the pool-full failure path too.
func TestOpAllocObservedOnPoolFull(t *testing.T) {
	st := newTinyStore(t)
	eng := st.Shard(0)
	val := make([]byte, 40)
	for i := 0; i < 2; i++ {
		eng.Put(nil, []byte(fmt.Sprintf("fill-%d", i)), len(val), crc.Checksum(val))
	}
	h := st.Metrics().Hist(0, int(store.OpAlloc))
	before := h.Count()
	if pr := eng.Put(nil, []byte("overflow"), len(val), crc.Checksum(val)); pr.Status != store.StatusFull {
		t.Fatalf("overflow put: %v", pr.Status)
	}
	if got := h.Count(); got != before+1 {
		t.Errorf("OpAlloc observations %d -> %d, want +1 on the pool-full path", before, got)
	}
}

// TestTortureSweepStore is the store-level acceptance sweep: three seeds,
// a crash at every charge/flush boundary of a mixed
// PUT/GET/DEL/torn-PUT/BG/clean workload, durability oracle on each run.
func TestTortureSweepStore(t *testing.T) {
	cfg := Config{Ops: 80}
	maxPoints := 0 // every boundary
	if testing.Short() {
		maxPoints = 40
	}
	sr, err := SweepStore(cfg, []uint64{1, 2, 3}, maxPoints)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	for _, v := range sr.Violations {
		t.Error(v)
	}
	if len(sr.Violations) == 0 && sr.Runs < 10 {
		t.Fatalf("sweep ran only %d runs", sr.Runs)
	}
}

// TestTortureWorkloadCoverage checks the default workload actually
// exercises the paths the sweep claims to cover: deletes, pool-full
// allocation failures (slot release), and log cleaning.
func TestTortureWorkloadCoverage(t *testing.T) {
	res, err := RunStore(Config{Seed: 1, Ops: 200})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.Stats.Dels == 0 || res.Stats.AllocFailures == 0 || res.Stats.SlotsReleased == 0 || res.Stats.Cleanings == 0 {
		t.Errorf("workload coverage too thin: %+v", res.Stats)
	}
	if res.Boundaries == 0 || res.Tripped {
		t.Errorf("counting run: boundaries=%d tripped=%v", res.Boundaries, res.Tripped)
	}
}

// TestTortureDeterminism: identical configs must produce identical runs.
func TestTortureDeterminism(t *testing.T) {
	cfg := Config{Seed: 7, Ops: 120, CrashAt: 300}
	a, err := RunStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Boundaries != b.Boundaries || a.Tripped != b.Tripped || len(a.Violations) != len(b.Violations) {
		t.Errorf("non-deterministic runs: %+v vs %+v", a, b)
	}
}

// TestTortureSweepStoreBatched reruns the store-level sweep with
// group-verified, group-flushed background persistence: every crash
// boundary inside a coalesced flush run must still recover consistently.
func TestTortureSweepStoreBatched(t *testing.T) {
	cfg := Config{Ops: 80, BGBatch: 4}
	maxPoints := 0 // every boundary
	if testing.Short() {
		maxPoints = 40
	}
	sr, err := SweepStore(cfg, []uint64{1, 2}, maxPoints)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	for _, v := range sr.Violations {
		t.Error(v)
	}
	if len(sr.Violations) == 0 && sr.Runs < 10 {
		t.Fatalf("sweep ran only %d runs", sr.Runs)
	}
}

// TestTortureBatchedDeterminism: the batched BG path must stay a pure
// function of the config, like the per-object path.
func TestTortureBatchedDeterminism(t *testing.T) {
	cfg := Config{Seed: 7, Ops: 120, BGBatch: 8, CrashAt: 300}
	a, err := RunStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Boundaries != b.Boundaries || a.Tripped != b.Tripped || len(a.Violations) != len(b.Violations) {
		t.Errorf("non-deterministic runs: %+v vs %+v", a, b)
	}
}

// TestTortureSweepStoreGetBatch reruns the store sweep with the batched
// multi-GET workload leg: every GET becomes a per-shard GetBatch, so
// crash boundaries land inside the engine's single-lock batch path too.
func TestTortureSweepStoreGetBatch(t *testing.T) {
	cfg := Config{Ops: 80, Shards: 2, GetBatch: true}
	maxPoints := 0 // every boundary
	if testing.Short() {
		maxPoints = 40
	}
	sr, err := SweepStore(cfg, []uint64{1, 2}, maxPoints)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	for _, v := range sr.Violations {
		t.Error(v)
	}
	if len(sr.Violations) == 0 && sr.Runs < 10 {
		t.Fatalf("sweep ran only %d runs", sr.Runs)
	}
}

// TestTortureGetBatchCoverageAndDeterminism: the batched leg must really
// exercise GetBatch and stay a pure function of the config.
func TestTortureGetBatchCoverageAndDeterminism(t *testing.T) {
	cfg := Config{Seed: 7, Ops: 120, Shards: 2, GetBatch: true}
	a, err := RunStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats.GetBatches == 0 {
		t.Errorf("GetBatch leg never hit the batch path: %+v", a.Stats)
	}
	cfg.CrashAt = 300
	b1, err := RunStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := RunStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if b1.Boundaries != b2.Boundaries || b1.Tripped != b2.Tripped || len(b1.Violations) != len(b2.Violations) {
		t.Errorf("non-deterministic batched runs: %+v vs %+v", b1, b2)
	}
}

// TestTortureSweepStoreTxn reruns the store-level sweep with the
// transactional workload leg: multi-key commits and snapshot reads, with
// a crash at every boundary of the commit protocol — staging charges and
// flushes, the commit-record append, the visibility flips, the applied
// mark. The oracle holds every commit to "all-in or all-out, and acked
// commits survive".
func TestTortureSweepStoreTxn(t *testing.T) {
	cfg := Config{Ops: 80, Shards: 2, Txn: true}
	maxPoints := 0 // every boundary
	if testing.Short() {
		maxPoints = 40
	}
	sr, err := SweepStore(cfg, []uint64{1, 2, 3}, maxPoints)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	for _, v := range sr.Violations {
		t.Error(v)
	}
	if len(sr.Violations) == 0 && sr.Runs < 10 {
		t.Fatalf("sweep ran only %d runs", sr.Runs)
	}
}

// TestTortureTxnCoverageAndDeterminism: the txn leg must really commit
// and snapshot-read through Store.Commit and Store.SnapshotGet, and stay
// a pure function of the config.
func TestTortureTxnCoverageAndDeterminism(t *testing.T) {
	cfg := Config{Seed: 7, Ops: 160, Shards: 2, Txn: true}
	a, err := RunStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Violations) != 0 {
		t.Fatalf("violations: %v", a.Violations)
	}
	if a.Stats.TxnCommits == 0 || a.Stats.TxnStages == 0 || a.Stats.TxnReads == 0 {
		t.Errorf("txn leg coverage too thin: %+v", a.Stats)
	}
	cfg.CrashAt = 300
	b1, err := RunStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := RunStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if b1.Boundaries != b2.Boundaries || b1.Tripped != b2.Tripped || len(b1.Violations) != len(b2.Violations) {
		t.Errorf("non-deterministic txn runs: %+v vs %+v", b1, b2)
	}
}

// TestTortureSweepStoreRecoveryCrashTxn crashes recovery itself on the
// transactional leg, over two shards and with half the unflushed lines
// surviving each crash: recovery then replays commit records (flipping
// their stages in place) and copies survivors a cut-short cleaning run
// left in the other pool, and every one of its boundaries is a crash
// point. Each result must pass the oracle and equal what an uninterrupted
// recovery restores.
func TestTortureSweepStoreRecoveryCrashTxn(t *testing.T) {
	cfg := Config{Ops: 60, Shards: 2, CleanEvery: 13, Txn: true, Survival: 0.5, RecCrashes: 1 << 20}
	points := 40
	if testing.Short() {
		points = 10
	}
	sr, err := SweepStore(cfg, []uint64{1, 2, 3}, points)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	for _, v := range sr.Violations {
		t.Error(v)
	}
}
