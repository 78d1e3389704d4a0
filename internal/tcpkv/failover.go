// Failover torture: a replicated two-instance cluster under the mixed
// crash workload, where the PRIMARY dies — at a random device boundary
// or deterministically at a named replication crash point — and a
// surviving backup is promoted. The oracle then replays the acknowledged
// history against the promoted instance through the routed client: no
// observed-durable write may be lost and no acknowledged DELETE may
// resurrect, because under flag⇒quorum-durable every observation forced
// the flag and the flag forced the mirror. The backup-death variant
// kills the backup mid-append instead and asserts the primary demotes it
// and keeps serving alone.
package tcpkv

import (
	"fmt"
	"sync/atomic"

	"efactory/internal/fault"
	"efactory/internal/nvm"
)

// failoverPGs is the placement-group count of the failover torture
// cluster. The primary owns every group; the joiner attaches as backup
// to all of them before the workload starts, so promotion must account
// for every key the workload ever acked.
const failoverPGs = 4

// failoverCrashPoints are the deterministic primary-death points: the
// mirror of a flagged record (before and after the append round), and
// the mirror of a DELETE tombstone (before and after). "backup-append"
// is the backup-death variant handled by RunBackupCrashTorture.
var failoverCrashPoints = []string{
	"pre-mirror", "post-mirror", "del-pre-mirror", "del-post-mirror",
}

// RunFailoverTorture executes one primary-death run: crash points land
// wherever the fault plan's device boundaries put them (covering
// post-ack death — the primary dies after acking writes the backup must
// now own). RunFailoverAbortTorture pins the named replication
// checkpoints instead. Both end in srvA's death, srvB's promotion, and
// an oracle check routed through a live ClusterClient — which also
// exercises the client's own failover path: dead-pipe severing, the
// last-map refetch fallback (the seed instance is the dead one), and
// wrong-epoch convergence onto the promoted map.
func RunFailoverTorture(tc fault.Config) (fault.Result, error) {
	return runFailoverTorture(tc, "")
}

// RunFailoverAbortTorture kills the primary at the first visit of the
// named replication crash point (see failoverCrashPoints).
func RunFailoverAbortTorture(tc fault.Config, crashAt string) (fault.Result, error) {
	return runFailoverTorture(tc, crashAt)
}

// startFailoverCluster is the fixture at RF=2 on in-memory devices: a
// (primary, under plan) owns every PG, b attached as backup to all of
// them before any traffic.
func startFailoverCluster(tc fault.Config, plan *fault.Plan) (*tortureCluster, error) {
	tc, cfg := tortureConfig(tc)
	cfg.Replicas = 2
	return startTortureCluster(tc, cfg, nvm.New(cfg.DeviceSize()), plan, failoverPGs)
}

// routedGet is the oracle's post-crash read through the live routed
// client; after a primary death its cached map still names the dead
// instance, so every key exercises dead-pipe severing, the last-map
// refetch fallback, and re-routing onto the promoted map.
func (fx *tortureCluster) routedGet(key string) ([]byte, bool) {
	v, err := fx.cc.Get([]byte(key))
	return v, err == nil
}

func runFailoverTorture(tc fault.Config, crashAt string) (fault.Result, error) {
	plan := fault.NewPlan(tc.CrashAt)
	ctl := &crashCtl{plan: plan, abortAt: crashAt}
	fx, err := startFailoverCluster(tc, plan)
	if err != nil {
		return fault.Result{}, err
	}
	defer fx.close()
	fx.srvA.SetReplCrash(ctl.hook)

	// Each GET observation forces the flag, hence the mirror; a DELETE's
	// tombstone must be quorum-durable before its ack.
	violations := fx.drive(fx.clean, ctl.died)

	res := fault.Result{
		Boundaries: plan.Boundaries(),
		Tripped:    plan.Tripped() || ctl.aborted.Load(),
		Stats:      fx.srvA.Stats(),
	}

	// Primary process death, then promotion on the survivor. The backup
	// was attached to every PG, so the take must cover all of them.
	fx.srvA.Close()
	if _, err := fx.srvB.PromoteFrom("a"); err != nil {
		return res, fmt.Errorf("promotion failed: %w", err)
	}
	if pm := fx.srvB.ClusterMap(); pm == nil || pm.Epoch <= fx.joinEpoch {
		return res, fmt.Errorf("promotion did not advance the epoch")
	}
	res.Violations = append(violations, fx.oracle.Check(fx.routedGet)...)
	return res, nil
}

// RunBackupCrashTorture is the backup-death variant: the BACKUP dies at
// its append handler mid-run. The primary must demote it (shrinking the
// live set so the quorum stays satisfiable) and keep acking traffic
// alone; afterwards the oracle checks the primary — the only authority
// left — and the run asserts demotion actually happened.
func RunBackupCrashTorture(tc fault.Config) (fault.Result, error) {
	// No device plan on the primary: the only failure is the backup's.
	fx, err := startFailoverCluster(tc, nil)
	if err != nil {
		return fault.Result{}, err
	}
	defer fx.close()

	// The backup answers StError at its append handler from mid-run on,
	// then its process dies. ctl only models the backup's death: the
	// target never reports dead, so the workload keeps running — acks must
	// keep flowing from the primary.
	ctl := &crashCtl{abortAt: "backup-append"}
	var armed atomic.Bool // written by the workload, read by b's handler
	fx.srvB.SetReplCrash(func(point string) bool { return armed.Load() && ctl.hook(point) })
	killed := false
	violations := fx.drive(func(i int) {
		fx.clean(i)
		if i+1 == fx.tc.Ops/2 {
			armed.Store(true)
		}
		if !killed && ctl.aborted.Load() {
			// The hook fired: the backup's process is gone now.
			fx.srvB.Close()
			killed = true
		}
	}, func() bool { return false })
	if killed {
		// Demotion is the mechanism that kept acks flowing; require it.
		if _, _, demotions, _, _ := fx.srvA.ReplCounters(); demotions == 0 {
			violations = append(violations, "backup died but was never demoted")
		}
	}
	res := fault.Result{Tripped: killed, Stats: fx.srvA.Stats()}
	res.Violations = append(violations, fx.oracle.Check(fx.routedGet)...)
	return res, nil
}
