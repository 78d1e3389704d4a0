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
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"efactory/internal/cluster"
	"efactory/internal/nvm"
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

// rebalancePhase drives the workers closed-loop until stop is set (or,
// with stop nil, for spec.PhaseOps ops each) and reports the merged
// throughput/latency of the window. 50/50 put/get over the loaded keys.
func rebalancePhase(spec RebalanceSpec, ccs []*tcpkv.ClusterClient, stop *atomic.Bool) (int, time.Duration, *stats.Recorder) {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		rec   stats.Recorder
		total int
	)
	start := time.Now()
	for wi, cc := range ccs {
		wg.Add(1)
		go func(wi int, cc *tcpkv.ClusterClient) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(wi)+1, 0x4eba1a4ce))
			local := &stats.Recorder{}
			val := make([]byte, spec.ValueLen)
			ops := 0
			for {
				if stop != nil {
					if stop.Load() {
						break
					}
				} else if ops >= spec.PhaseOps {
					break
				}
				key := ycsb.Key(uint64(rng.IntN(spec.Keys)), KeyLen)
				t0 := time.Now()
				var err error
				if rng.IntN(2) == 0 {
					err = cc.Put(key, val)
				} else {
					_, err = cc.Get(key)
				}
				if err != nil {
					panic(fmt.Sprintf("bench: rebalance op failed: %v", err))
				}
				local.Record(time.Since(t0))
				ops++
			}
			mu.Lock()
			rec.Merge(local)
			total += ops
			mu.Unlock()
		}(wi, cc)
	}
	wg.Wait()
	return total, time.Since(start), &rec
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
	newInstance := func() (*tcpkv.Server, string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, "", err
		}
		srv, err := tcpkv.NewServer(nvm.New(cfg.DeviceSize()), cfg)
		if err != nil {
			ln.Close()
			return nil, "", err
		}
		go srv.Serve(ln)
		return srv, ln.Addr().String(), nil
	}
	srvA, addrA, err := newInstance()
	if err != nil {
		return nil, err
	}
	defer srvA.Close()
	srvB, addrB, err := newInstance()
	if err != nil {
		return nil, err
	}
	defer srvB.Close()

	srvA.EnableCluster("a", addrA, spec.PGs)
	srvB.SetInstanceName("b", addrB)
	seedCl, err := tcpkv.Dial(addrA)
	if err != nil {
		return nil, err
	}
	m, err := seedCl.JoinRPC("b", addrB)
	seedCl.Close()
	if err != nil {
		return nil, err
	}
	srvB.SetClusterMap(m)

	ccs := make([]*tcpkv.ClusterClient, spec.Workers)
	for i := range ccs {
		cc, err := tcpkv.DialCluster(addrA, tcpkv.DefaultClusterClientConfig())
		if err != nil {
			return nil, err
		}
		defer cc.Close()
		ccs[i] = cc
	}

	// Load phase.
	val := make([]byte, spec.ValueLen)
	for i := 0; i < spec.Keys; i++ {
		if err := ccs[0].Put(ycsb.Key(uint64(i), KeyLen), val); err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
	}

	phase := func(name string, stop *atomic.Bool) Result {
		ops, elapsed, rec := rebalancePhase(spec, ccs, stop)
		r := Result{
			System: SysEFactory, Phase: name, ValLen: spec.ValueLen,
			Clients: spec.Workers, Ops: ops, Elapsed: elapsed,
			Mops: stats.Mops(ops, elapsed),
		}
		r.fillLatency(rec)
		return r
	}
	counters := func() (we, moved uint64) {
		weA, movedA, _ := srvA.ClusterCounters()
		weB, movedB, _ := srvB.ClusterCounters()
		return weA + weB, movedA + movedB
	}

	before := phase("before", nil)

	// During: workers run free while the migrations proceed; the window
	// closes when the last cutover lands.
	we0, _ := counters()
	var stop atomic.Bool
	var during Result
	var migWG sync.WaitGroup
	migWG.Add(1)
	migErr := make(chan error, 1)
	go func() {
		defer migWG.Done()
		for pg := 0; pg < spec.MigratePGs; pg++ {
			if _, err := srvA.MigratePG(pg, "b"); err != nil {
				migErr <- fmt.Errorf("migrate pg %d: %w", pg, err)
				return
			}
		}
		migErr <- nil
	}()
	go func() {
		migWG.Wait()
		stop.Store(true)
	}()
	during = phase("during", &stop)
	if err := <-migErr; err != nil {
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
	we1, moved := counters()
	during.WrongEpoch = we1 - we0
	during.KeysMoved = moved

	after := phase("after", nil)
	we2, _ := counters()
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
