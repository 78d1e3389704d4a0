package bench

// Failover figure: availability shape of a replicated two-instance TCP
// cluster across a primary crash. A steady-state window on the replicated
// map, then the same workload while the primary is killed and the backup
// promoted, then steady state on the survivor. Like the rebalance figure
// this runs real sockets in real time — the measured quantity is the
// outage the failover protocol itself imposes (dead-pipe severing, the
// last-map fallback redial, wrong-epoch refetch against the bumped
// epoch), not a hardware model. Wired into cmd/efactory-bench
// (-fig failover).

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"efactory/internal/stats"
	"efactory/internal/tcpkv"
	"efactory/internal/ycsb"
)

// FailoverSpec sizes the failover experiment.
type FailoverSpec struct {
	Keys     int // distinct keys loaded (and quorum-drained) before the kill
	ValueLen int
	Workers  int // closed-loop routed clients
	PhaseOps int // measured ops per worker in the before/after phases
	PGs      int // placement groups, all owned by a and mirrored on b
	KillAt   time.Duration
}

// DefaultFailoverSpec returns the shape used by -fig failover.
func DefaultFailoverSpec(quick bool) FailoverSpec {
	s := FailoverSpec{
		Keys: 512, ValueLen: 256, Workers: 4, PhaseOps: 4000,
		PGs: 8, KillAt: 50 * time.Millisecond,
	}
	if quick {
		s.Keys, s.PhaseOps = 256, 1000
	}
	return s
}

// FigFailover measures the cluster across a primary crash: a steady-state
// window on the replicated map, then the same workload while instance a is
// killed and b is promoted under a bumped epoch, then steady state against
// the survivor. The "during" row carries the failed-op count (the outage)
// and the wrong-epoch rejects the promotion drew; the "after" row must
// show zero errors and zero further rejects — a converged client pays
// nothing for having lived through a failover.
func FigFailover(w io.Writer, spec FailoverSpec) ([]Result, error) {
	cfg := tcpkv.Config{
		Buckets:       4096,
		PoolSize:      64 << 20,
		Shards:        2,
		VerifyTimeout: 20 * time.Millisecond,
		Replicas:      2,
	}
	rb, err := startRoutedBench(cfg, spec.PGs, spec.Workers, spec.Keys, spec.ValueLen, spec.PhaseOps)
	if err != nil {
		return nil, err
	}
	defer rb.Close()
	srvA, srvB, addrB := rb.srvA, rb.srvB, rb.addrB

	// Drain the durability backlog so every loaded key is quorum-durable:
	// the post-failover steady state must find all of them.
	st := srvA.Store()
	drainTo := time.Now().Add(10 * time.Second)
	for {
		backlog := 0
		for s := 0; s < st.NumShards(); s++ {
			b, _ := st.Shard(s).DurabilityLag()
			backlog += b
		}
		if backlog == 0 {
			break
		}
		if time.Now().After(drainTo) {
			return nil, fmt.Errorf("durability backlog never drained: %d bytes", backlog)
		}
		time.Sleep(time.Millisecond)
	}

	// An op error is counted, not fatal: errors ARE the measurement during
	// the outage window.
	phase := func(name string, stop *atomic.Bool) Result {
		r, _ := rb.phase(name, stop)
		return r
	}
	counters := func() uint64 {
		we, _ := rb.counters()
		return we
	}

	before := phase("before", nil)
	if before.Errors != 0 {
		return nil, fmt.Errorf("before phase drew %d errors on a healthy cluster", before.Errors)
	}

	// During: workers run free; the controller kills the primary, promotes
	// the backup, and closes the window once a probe client sees the
	// promoted cluster serve again.
	we0 := counters()
	var stop atomic.Bool
	ctlErr := make(chan error, 1)
	go func() {
		defer stop.Store(true)
		time.Sleep(spec.KillAt)
		if err := srvA.Close(); err != nil {
			ctlErr <- fmt.Errorf("kill primary: %w", err)
			return
		}
		if _, err := srvB.PromoteFrom("a"); err != nil {
			ctlErr <- fmt.Errorf("promote: %w", err)
			return
		}
		probe, err := tcpkv.DialCluster(addrB, tcpkv.DefaultClusterClientConfig())
		if err != nil {
			ctlErr <- fmt.Errorf("probe dial: %w", err)
			return
		}
		defer probe.Close()
		convergeTo := time.Now().Add(10 * time.Second)
		for {
			if _, err := probe.Get(ycsb.Key(0, KeyLen)); err == nil {
				ctlErr <- nil
				return
			}
			if time.Now().After(convergeTo) {
				ctlErr <- fmt.Errorf("promoted cluster never served the probe")
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	during := phase("during", &stop)
	if err := <-ctlErr; err != nil {
		return nil, err
	}
	we1 := counters()
	during.WrongEpoch = we1 - we0

	after := phase("after", nil)
	we2 := counters()
	after.WrongEpoch = we2 - we1

	_, _, _, promotions, ingested := srvB.ReplCounters()
	out := []Result{before, during, after}
	fmt.Fprintf(w, "Failover: %d keys x %dB, %d workers, %d PGs a->b, primary killed after %s\n",
		spec.Keys, spec.ValueLen, spec.Workers, spec.PGs, spec.KillAt)
	tw := newTab(w)
	fmt.Fprintln(tw, "phase\tops\terrors\tMops/s\tmed\tp99\tp999\twrong-epoch")
	for _, r := range out {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.3f\t%s\t%s\t%s\t%d\n",
			r.Phase, r.Ops, r.Errors, r.Mops,
			stats.FmtDur(r.Median), stats.FmtDur(r.P99), stats.FmtDur(r.P999),
			r.WrongEpoch)
	}
	tw.Flush()
	fmt.Fprintf(w, "(backup ingested %d mirrored records pre-kill; %d promotion)\n", ingested, promotions)
	if promotions == 0 {
		return out, fmt.Errorf("backup reports zero promotions")
	}
	if ingested == 0 {
		return out, fmt.Errorf("backup ingested zero mirrored records before the kill")
	}
	if after.Errors != 0 {
		return out, fmt.Errorf("steady state drew %d errors after the failover", after.Errors)
	}
	return out, nil
}
