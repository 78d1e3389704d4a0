package efactory

import (
	"testing"

	"efactory/internal/fault"
)

// simTortureConfig keeps sim sweeps affordable: the discrete-event
// transport costs far more wall-clock per op than the direct store
// harness, so the workload is shorter and points are subsampled.
func simTortureConfig() fault.Config {
	return fault.Config{Ops: 40, CleanEvery: 25}
}

// TestSimTortureCountingRun sanity-checks the measuring run: no crash, no
// violations, and enough boundaries for a sweep to be meaningful.
func TestSimTortureCountingRun(t *testing.T) {
	res, err := RunSimTorture(simTortureConfig())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations in the no-crash run: %v", res.Violations)
	}
	if res.Tripped || res.Boundaries < 100 {
		t.Fatalf("counting run: tripped=%v boundaries=%d", res.Tripped, res.Boundaries)
	}
	if res.Stats.Puts == 0 || res.Stats.Dels == 0 {
		t.Fatalf("workload coverage too thin: %+v", res.Stats)
	}
}

// TestSimTortureSweep is the sim-transport acceptance sweep: crash points
// across the whole workload (subsampled — a sim run costs ~ms), recovery
// and oracle check after each.
func TestSimTortureSweep(t *testing.T) {
	points := 0 // every boundary (~550 per seed, a few ms each)
	if testing.Short() {
		points = 15
	}
	sr, err := fault.Sweep(RunSimTorture, simTortureConfig(), []uint64{1, 2, 3}, points)
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

// TestSimTortureDeterminism: identical configs must produce identical
// runs, including under a mid-workload crash.
func TestSimTortureDeterminism(t *testing.T) {
	cfg := simTortureConfig()
	cfg.Seed = 9
	cfg.CrashAt = 500
	a, err := RunSimTorture(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSimTorture(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Boundaries != b.Boundaries || a.Tripped != b.Tripped || len(a.Violations) != len(b.Violations) {
		t.Errorf("non-deterministic runs: %+v vs %+v", a, b)
	}
}

// TestSimTortureSweepGetBatch reruns the sim sweep with the batched
// multi-GET + hint-cache workload leg: crash points land inside
// doorbell-chained reads, hinted lookups, and their RPC fallbacks.
func TestSimTortureSweepGetBatch(t *testing.T) {
	cfg := simTortureConfig()
	cfg.GetBatch = true
	points := 0 // every boundary
	if testing.Short() {
		points = 15
	}
	sr, err := fault.Sweep(RunSimTorture, cfg, []uint64{1, 2}, points)
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

// TestSimTortureSweepTxn reruns the sim sweep with the transactional
// workload leg: multi-key commits (one doorbell-grouped RPC) and snapshot
// reads over the wire, so crash points land inside staging, the commit
// record, the visibility flips, and the commit response path.
func TestSimTortureSweepTxn(t *testing.T) {
	cfg := simTortureConfig()
	cfg.Txn = true
	points := 0 // every boundary
	if testing.Short() {
		points = 15
	}
	sr, err := fault.Sweep(RunSimTorture, cfg, []uint64{1, 2}, points)
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

// TestSimTortureSweepRecoveryCrashTxn crashes the sim server's recovery
// (efactory.Recover) at every one of its boundaries on the transactional
// leg, so a crash lands inside a commit replay and inside the copy of
// survivors a cut-short cleaning run left behind.
func TestSimTortureSweepRecoveryCrashTxn(t *testing.T) {
	cfg := simTortureConfig()
	cfg.Txn, cfg.RecCrashes = true, 1<<20
	points := 25
	if testing.Short() {
		points = 8
	}
	sr, err := fault.Sweep(RunSimTorture, cfg, []uint64{1, 2}, points)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	for _, v := range sr.Violations {
		t.Error(v)
	}
}

// TestSimTortureTxnCoverage: the sim txn leg must actually commit and
// snapshot-read through the server's store (Commit, SnapshotGet).
func TestSimTortureTxnCoverage(t *testing.T) {
	cfg := simTortureConfig()
	cfg.Txn = true
	cfg.Seed = 5
	cfg.Ops = 120
	res, err := RunSimTorture(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.Stats.TxnCommits == 0 || res.Stats.TxnReads == 0 {
		t.Errorf("txn leg coverage too thin: %+v", res.Stats)
	}
}
