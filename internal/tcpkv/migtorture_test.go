package tcpkv

import (
	"testing"

	"efactory/internal/fault"
)

// migTortureConfig sizes the migration torture run: pools big enough
// that the target never refuses an import frame (an import StFull would
// abort the migration, not crash it), cleaning still forced on the
// source mid-run.
func migTortureConfig() fault.Config {
	return fault.Config{Ops: 60, CleanEvery: 25, Buckets: 256, PoolSize: 256 << 10, VerifyTimeout: raceScale(tcpVerifyTimeout)}
}

// TestMigrationTortureCountingRun sanity-checks the no-crash run: the
// migration completes under live traffic, the oracle sees no
// violations, and the workload covers puts and deletes.
func TestMigrationTortureCountingRun(t *testing.T) {
	res, err := RunMigrationTorture(migTortureConfig())
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

// TestMigrationTortureSweep is the migration acceptance sweep: crash
// points spread across the whole run — before, during, and after the
// online migration, including inside drain rounds and the cutover
// sequence (the protocol additionally aborts at its next checkpoint
// once the plan trips, modeling the source dying mid-protocol). After
// every crash the source restarts from its persisted image and the
// oracle routes each key by the cluster's own authority rule; any
// acknowledged write the handoff lost fails the sweep with the seed and
// crash point.
// TestMigrationAbortSweep pins every phase of the migration protocol:
// the source dies deterministically at each named checkpoint — before
// the snapshot, inside a drain round, in the blocked window, just
// before and just after the cutover commit, and after the purge — with
// the device otherwise healthy. The random sweep above rarely lands
// inside the protocol (migration is fast relative to the workload);
// this one visits every phase on every run. The authority rule must
// hold at each point: if the newest-epoch map never reached the target
// the recovered source answers for the migrated group, otherwise the
// target does, and either way no acked write may be lost.
func TestMigrationAbortSweep(t *testing.T) {
	points := []string{
		"pre-snapshot", "drain", "blocked",
		"pre-cutover", "cutover-committed", "purged",
	}
	seeds := []uint64{1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, point := range points {
		for _, seed := range seeds {
			cfg := migTortureConfig()
			cfg.Seed = seed
			res, err := RunMigrationAbortTorture(cfg, point)
			if err != nil {
				t.Fatalf("abort@%s seed %d: %v", point, seed, err)
			}
			for _, v := range res.Violations {
				t.Errorf("abort@%s seed %d: %s", point, seed, v)
			}
		}
	}
}

func TestMigrationTortureSweep(t *testing.T) {
	points := 10
	if testing.Short() {
		points = 4
	}
	sr, err := fault.Sweep(RunMigrationTorture, migTortureConfig(), []uint64{1, 2}, points)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	for _, v := range sr.Violations {
		t.Error(v)
	}
	if len(sr.Violations) == 0 && sr.Runs < 8 {
		t.Fatalf("sweep ran only %d runs", sr.Runs)
	}
}

// sweepMigrationLeg sweeps the migration runner with one workload leg on:
// 3 seeds x 8 crash points.
func sweepMigrationLeg(t *testing.T, cfg fault.Config) {
	t.Helper()
	sr, err := fault.Sweep(RunMigrationTorture, cfg, []uint64{1, 2, 3}, 8)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	for _, v := range sr.Violations {
		t.Error(v)
	}
	if len(sr.Violations) == 0 && sr.Runs < 20 {
		t.Fatalf("sweep ran only %d runs", sr.Runs)
	}
}

// TestMigrationTortureSweepGetBatch: batched multi-GETs whose keys
// straddle both instances while one placement group moves between them —
// observed as one concurrent batch, like every routed multi-GET.
func TestMigrationTortureSweepGetBatch(t *testing.T) {
	cfg := migTortureConfig()
	cfg.GetBatch = true
	sweepMigrationLeg(t, cfg)
}

// TestMigrationTortureSweepTxn: multi-key commits and snapshot reads
// through the routed client across the handoff. Once the cutover splits
// the hot set, a commit spanning both instances is refused typed
// (ErrTxnCrossInstance) and records nothing; single-instance commits keep
// their all-in-or-all-out contract on either side.
func TestMigrationTortureSweepTxn(t *testing.T) {
	cfg := migTortureConfig()
	cfg.Txn = true
	sweepMigrationLeg(t, cfg)
}
