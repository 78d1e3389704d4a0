package tcpkv

import (
	"errors"
	"fmt"

	"efactory/internal/cluster"
	"efactory/internal/fault"
	"efactory/internal/kv"
)

// migTorturePGs is the placement-group count of the migration torture
// cluster and migTorturePG the group that migrates: the default 8-key
// hot set spreads over all four groups, so the moving group always has
// live traffic and the staying groups always prove non-interference.
const (
	migTorturePGs = 4
	migTorturePG  = 1
)

// RunMigrationTorture executes one crash-point torture run of online
// migration: a two-instance cluster (file-backed source under a
// fault.Plan, healthy target) serves the standard mixed workload through
// a routed client while the source migrates one placement group to the
// target. Crash points land anywhere device boundaries do — including
// inside the snapshot, the drain rounds, the blocked window, and the
// cutover — and additionally abort the migration protocol itself at its
// next checkpoint, modeling the source process dying mid-protocol.
//
// After the run the source "restarts" (file reopen + recovery) and the
// durability oracle is checked against the cluster's own authority rule:
// if the cutover committed (the newest-epoch map reached the target),
// the migrated group's keys are read from the target; everything else is
// read from the recovered source. Zero tolerated outcomes differ from a
// plain single-node crash — the handoff must never lose an acknowledged
// write no matter where in the protocol the source dies.
func RunMigrationTorture(tc fault.Config) (fault.Result, error) {
	return runMigrationTorture(tc, "")
}

// RunMigrationAbortTorture is the deterministic variant: the source dies
// at the first visit of the named migration protocol checkpoint
// (pre-snapshot, drain, blocked, pre-cutover, cutover-committed,
// purged), with the device otherwise healthy. This pins every phase of
// the drain/cutover sequence regardless of where device boundaries fall.
func RunMigrationAbortTorture(tc fault.Config, abortAt string) (fault.Result, error) {
	return runMigrationTorture(tc, abortAt)
}

func runMigrationTorture(tc fault.Config, abortAt string) (fault.Result, error) {
	tc, cfg := tortureConfig(tc)
	plan := fault.NewPlan(tc.CrashAt)
	ctl := &crashCtl{plan: plan, abortAt: abortAt}
	dev, err := newFileDev(cfg.DeviceSize())
	if err != nil {
		return fault.Result{}, err
	}
	defer dev.remove()
	fx, err := startTortureCluster(tc, cfg, dev, plan, migTorturePGs)
	if err != nil {
		return fault.Result{}, err
	}
	defer fx.close()
	fx.srvA.migCrash = ctl.hook

	// The migration starts a quarter of the way in and races the workload.
	var migErr chan error
	violations := fx.drive(func(i int) {
		if i == tc.Ops/4 {
			migErr = make(chan error, 1)
			go func() {
				_, err := fx.srvA.MigratePG(migTorturePG, "b")
				migErr <- err
			}()
		}
		fx.clean(i)
	}, ctl.died)
	if migErr != nil {
		if merr := <-migErr; merr != nil && !errors.Is(merr, errMigrationAborted) {
			return fault.Result{}, fmt.Errorf("migration failed outside a crash point: %w", merr)
		}
	}
	// The protocol's own commit point decides post-crash authority: the
	// cutover happened iff the newest-epoch map reached the target.
	tm := fx.srvB.ClusterMap()
	committed := tm != nil && tm.Epoch > fx.joinEpoch

	res := fault.Result{Boundaries: plan.Boundaries(), Tripped: plan.Tripped(), Stats: fx.srvA.Stats()}

	// Source process restart: only flushed lines survive. The target keeps
	// running — it did not crash.
	fx.cc.Close()
	fx.srvA.Close()
	if err := dev.reopen(); err != nil {
		return res, err
	}
	srv2, err := NewServer(dev, cfg)
	if err != nil {
		return res, fmt.Errorf("source recovery failed: %w", err)
	}
	defer srv2.Close()
	res.Violations = append(violations, fx.oracle.Check(func(key string) ([]byte, bool) {
		if committed && cluster.PGOf(kv.HashKey([]byte(key)), migTorturePGs) == migTorturePG {
			return engineGet(fx.srvB, key)
		}
		return engineGet(srv2, key)
	})...)
	return res, nil
}
