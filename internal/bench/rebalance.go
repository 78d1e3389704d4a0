package bench

// Rebalance figure: throughput and latency of a live two-instance TCP
// cluster before, during, and after an online shard migration. Unlike
// the simulated paper figures this one runs real sockets in real time —
// the point is the availability shape of the handoff protocol itself
// (drain rounds, the blocked cutover window, wrong-epoch redirects), not
// a hardware model. Wired into cmd/efactory-bench (-fig rebalance).

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"efactory/internal/cluster"
	"efactory/internal/stats"
	"efactory/internal/tcpkv"
	"efactory/internal/ycsb"
)

// RebalanceSpec sizes the rebalance experiment.
type RebalanceSpec struct {
	Keys       int // distinct keys loaded before measurement
	ValueLen   int
	Workers    int // closed-loop routed clients
	PhaseOps   int // measured ops per worker in the before/after phases
	PGs        int // placement groups in the map
	MigratePGs int // groups migrated a->b during the middle phase
}

// DefaultRebalanceSpec returns the shape used by -fig rebalance.
func DefaultRebalanceSpec(quick bool) RebalanceSpec {
	s := RebalanceSpec{
		Keys: 512, ValueLen: 256, Workers: 4, PhaseOps: 4000,
		PGs: 8, MigratePGs: 4,
	}
	if quick {
		s.Keys, s.PhaseOps = 256, 1000
	}
	return s
}

// FigRebalance measures the cluster under rebalancing: a steady-state
// window, then the same workload while half the placement groups migrate
// to a second instance, then steady state again on the split map. The
// "during" row carries the wrong-epoch reject count (stale clients being
// redirected) and the keys the migrations shipped; the "after" row's
// reject delta must be zero — converged routing costs nothing.
func FigRebalance(w io.Writer, spec RebalanceSpec) ([]Result, error) {
	cfg := tcpkv.Config{
		Buckets:  4096,
		PoolSize: 64 << 20,
		Shards:   2,
		// The cutover's blocked window waits out one verify window, so
		// this directly sets the worst-case stall the "during" phase sees.
		VerifyTimeout: 20 * time.Millisecond,
	}
	rb, err := startRoutedBench(cfg, spec.PGs, spec.Workers, spec.Keys, spec.ValueLen, spec.PhaseOps)
	if err != nil {
		return nil, err
	}
	defer rb.Close()
	srvA, ccs := rb.srvA, rb.ccs

	// Nothing dies in this figure: any failed op fails it.
	phase := func(name string, stop *atomic.Bool) (Result, error) {
		r, err := rb.phase(name, stop)
		if err != nil {
			return r, fmt.Errorf("%s phase: %d ops failed, first: %w", name, r.Errors, err)
		}
		return r, nil
	}

	before, err := phase("before", nil)
	if err != nil {
		return nil, err
	}

	// During: workers run free while the migrations proceed; the window
	// closes when the last cutover lands.
	we0, _ := rb.counters()
	var stop atomic.Bool
	migErr := make(chan error, 1)
	go func() {
		defer stop.Store(true)
		for pg := 0; pg < spec.MigratePGs; pg++ {
			if _, err := srvA.MigratePG(pg, "b"); err != nil {
				migErr <- fmt.Errorf("migrate pg %d: %w", pg, err)
				return
			}
		}
		migErr <- nil
	}()
	during, err := phase("during", &stop)
	if merr := <-migErr; merr != nil {
		return nil, merr
	}
	if err != nil {
		return nil, err
	}
	// Convergence is made explicit, not assumed from timing: the window
	// above closes the instant the last cutover lands, so a worker whose
	// router never touched the last-moved PG since would pay its redirect
	// in the "after" phase. One routed Get per migrated PG on every worker
	// settles every router before the steady-state baseline is sampled.
	for pg := 0; pg < spec.MigratePGs; pg++ {
		for i := 0; i < spec.Keys; i++ {
			key := ycsb.Key(uint64(i), KeyLen)
			if cluster.PGForKey(key, spec.PGs) != pg {
				continue
			}
			for _, cc := range ccs {
				if _, err := cc.Get(key); err != nil {
					return nil, fmt.Errorf("converge pg %d: %w", pg, err)
				}
			}
			break
		}
	}
	we1, moved := rb.counters()
	during.WrongEpoch = we1 - we0
	during.KeysMoved = moved

	after, err := phase("after", nil)
	if err != nil {
		return nil, err
	}
	we2, _ := rb.counters()
	after.WrongEpoch = we2 - we1

	out := []Result{before, during, after}
	fmt.Fprintf(w, "Rebalance: %d keys x %dB, %d workers, %d/%d PGs migrated a->b\n",
		spec.Keys, spec.ValueLen, spec.Workers, spec.MigratePGs, spec.PGs)
	tw := newTab(w)
	fmt.Fprintln(tw, "phase\tops\tMops/s\tmed\tp99\tp999\twrong-epoch\tkeys-moved")
	for _, r := range out {
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%s\t%s\t%s\t%d\t%d\n",
			r.Phase, r.Ops, r.Mops,
			stats.FmtDur(r.Median), stats.FmtDur(r.P99), stats.FmtDur(r.P999),
			r.WrongEpoch, r.KeysMoved)
	}
	tw.Flush()
	if after.WrongEpoch != 0 {
		return out, fmt.Errorf("steady state drew %d wrong-epoch rejects after convergence", after.WrongEpoch)
	}
	fmt.Fprintln(w, "(during-phase p99 absorbs the blocked cutover window; after-phase rejects are zero)")
	return out, nil
}
