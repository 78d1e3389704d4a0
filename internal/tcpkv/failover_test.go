package tcpkv

import (
	"testing"

	"efactory/internal/fault"
)

// failoverTortureConfig sizes the failover torture run like the
// migration one: pools big enough that the backup never refuses an
// append, cleaning still forced on the primary mid-run.
func failoverTortureConfig() fault.Config {
	return fault.Config{Ops: 60, CleanEvery: 25, Buckets: 256, PoolSize: 256 << 10, VerifyTimeout: raceScale(tcpVerifyTimeout)}
}

// TestFailoverTortureCountingRun sanity-checks the no-crash run: the
// replicated cluster serves the whole workload, the primary then "dies"
// cleanly and the backup is promoted — the oracle must still hold (the
// promotion path itself may not lose anything even without a crash).
func TestFailoverTortureCountingRun(t *testing.T) {
	res, err := RunFailoverTorture(failoverTortureConfig())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations in the no-crash run: %v", res.Violations)
	}
	if res.Tripped || res.Boundaries < 50 {
		t.Fatalf("counting run: tripped=%v boundaries=%d", res.Tripped, res.Boundaries)
	}
	if res.Stats.Puts == 0 || res.Stats.Dels == 0 {
		t.Fatalf("workload coverage too thin: %+v", res.Stats)
	}
}

// TestFailoverAbortSweep pins every replication crash point with RF=2:
// the primary dies deterministically at the first visit of each — before
// and after mirroring a flagged record, and before and after mirroring a
// DELETE tombstone. After each death the backup is promoted and the
// oracle routes every key through the live client onto the promoted
// instance: no observed-durable write may be lost, no acked DELETE may
// resurrect, regardless of which side of the mirror the death landed on.
func TestFailoverAbortSweep(t *testing.T) {
	seeds := []uint64{1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, point := range failoverCrashPoints {
		for _, seed := range seeds {
			cfg := failoverTortureConfig()
			cfg.Seed = seed
			res, err := RunFailoverAbortTorture(cfg, point)
			if err != nil {
				t.Fatalf("abort@%s seed %d: %v", point, seed, err)
			}
			for _, v := range res.Violations {
				t.Errorf("abort@%s seed %d: %s", point, seed, v)
			}
		}
	}
}

// TestFailoverTortureSweep spreads primary deaths across random device
// boundaries — including post-ack deaths, where the backup must already
// hold everything the dead primary ever acknowledged.
func TestFailoverTortureSweep(t *testing.T) {
	points := 6
	if testing.Short() {
		points = 3
	}
	sr, err := fault.Sweep(RunFailoverTorture, failoverTortureConfig(), []uint64{1, 2}, points)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	for _, v := range sr.Violations {
		t.Error(v)
	}
	if len(sr.Violations) == 0 && sr.Runs < 6 {
		t.Fatalf("sweep ran only %d runs", sr.Runs)
	}
}

// TestBackupCrashDemotes kills the BACKUP mid-append instead: the
// primary must demote it, keep acking traffic alone, and afterwards
// still satisfy the full acknowledged history.
func TestBackupCrashDemotes(t *testing.T) {
	cfg := failoverTortureConfig()
	cfg.Ops = 80
	res, err := RunBackupCrashTorture(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, v := range res.Violations {
		t.Error(v)
	}
	if !res.Tripped {
		t.Fatal("the backup was never killed — the scenario did not run")
	}
}

// sweepFailoverLeg sweeps the failover runner with one workload leg on.
func sweepFailoverLeg(t *testing.T, cfg fault.Config) {
	t.Helper()
	sr, err := fault.Sweep(RunFailoverTorture, cfg, []uint64{1, 2, 3}, 8)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	for _, v := range sr.Violations {
		t.Error(v)
	}
}

// TestFailoverTortureSweepGetBatch sweeps the failover runner with the
// batched-read leg: the slow-cleaner family of TestTCPTortureSlowCleaner,
// which a replicated PG hits at the default VerifyTimeout because every
// cleaner flag waits on a mirror round trip.
func TestFailoverTortureSweepGetBatch(t *testing.T) {
	cfg := failoverTortureConfig()
	cfg.GetBatch = true
	sweepFailoverLeg(t, cfg)
}

// TestFailoverTortureSweepTxn is a KNOWN GAP: an acked commit is
// not quorum-atomic, so a primary death right after it can promote a
// backup holding part of the group.
func TestFailoverTortureSweepTxn(t *testing.T) {
	t.Skip("known gap, ROADMAP item 3 / parked 2PC: seeds 1-3 — 'torn transaction: 1 of N ops recovered' after promotion; " +
		"Store.Commit settles the mirror per key AFTER the commit, so all-in-or-all-out and acked-writes-survive-one-death do not hold together. " +
		"Repro: delete this Skip, go test ./internal/tcpkv -run TestFailoverTortureSweepTxn")
	cfg := failoverTortureConfig()
	cfg.Txn = true
	sweepFailoverLeg(t, cfg)
}
