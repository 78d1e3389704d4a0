package bench

import (
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"efactory/internal/nvm"
	"efactory/internal/stats"
	"efactory/internal/tcpkv"
	"efactory/internal/ycsb"
)

// routedBench is the two-instance loopback cluster the wall-clock figures
// (rebalance, failover) run on: a owns every placement group, b has
// joined — and with cfg.Replicas > 1 is attached as backup to all of them
// — with one routed client per worker and the keyset loaded through the
// first.
type routedBench struct {
	srvA, srvB *tcpkv.Server
	addrB      string
	ccs        []*tcpkv.ClusterClient
	keys       int
	valueLen   int
	phaseOps   int
}

func (rb *routedBench) Close() {
	for _, cc := range rb.ccs {
		cc.Close()
	}
	for _, srv := range []*tcpkv.Server{rb.srvA, rb.srvB} {
		if srv != nil {
			srv.Close()
		}
	}
}

func startRoutedBench(cfg tcpkv.Config, pgs, workers, keys, valueLen, phaseOps int) (rb *routedBench, err error) {
	rb = &routedBench{keys: keys, valueLen: valueLen, phaseOps: phaseOps}
	defer func() {
		if err != nil {
			rb.Close()
		}
	}()
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
	var addrA string
	if rb.srvA, addrA, err = newInstance(); err != nil {
		return nil, err
	}
	if rb.srvB, rb.addrB, err = newInstance(); err != nil {
		return nil, err
	}
	rb.srvA.EnableCluster("a", addrA, pgs)
	if _, err = rb.srvB.Join("b", rb.addrB, addrA); err != nil {
		return nil, err
	}
	if cfg.Replicas > 1 {
		// Early writes would miss their mirror otherwise.
		if err = rb.srvA.WaitBackup("b", 10*time.Second); err != nil {
			return nil, err
		}
	}
	for i := 0; i < workers; i++ {
		cc, err := tcpkv.DialCluster(addrA, tcpkv.DefaultClusterClientConfig())
		if err != nil {
			return nil, err
		}
		rb.ccs = append(rb.ccs, cc)
	}
	val := make([]byte, valueLen)
	for i := 0; i < keys; i++ {
		if err = rb.ccs[0].Put(ycsb.Key(uint64(i), KeyLen), val); err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
	}
	return rb, nil
}

// phase drives the workers closed-loop, 50/50 put/get over the loaded
// keys, until stop is set (or, with stop nil, for phaseOps ops each) and
// reports the window's merged throughput and latency. A failed op is
// counted, not fatal — during a failover the errors ARE the measurement —
// and only successful ops enter the latency recorder; the first error
// comes back for callers whose phases must be clean.
func (rb *routedBench) phase(name string, stop *atomic.Bool) (Result, error) {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		rec      stats.Recorder
		total    int
		failed   int
		firstErr error
	)
	start := time.Now()
	for wi, cc := range rb.ccs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(wi)+1, 0x4eba1a4ce))
			local := &stats.Recorder{}
			val := make([]byte, rb.valueLen)
			ops, errs := 0, 0
			var workerErr error // this worker's first
			for {
				if stop != nil {
					if stop.Load() {
						break
					}
				} else if ops >= rb.phaseOps {
					break
				}
				key := ycsb.Key(uint64(rng.IntN(rb.keys)), KeyLen)
				t0 := time.Now()
				var err error
				if rng.IntN(2) == 0 {
					err = cc.Put(key, val)
				} else {
					_, err = cc.Get(key)
				}
				ops++
				if err != nil {
					errs++
					if workerErr == nil {
						workerErr = err
					}
					continue
				}
				local.Record(time.Since(t0))
			}
			mu.Lock()
			rec.Merge(local)
			total += ops
			failed += errs
			if firstErr == nil {
				firstErr = workerErr
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	r := Result{
		System: SysEFactory, Phase: name, ValLen: rb.valueLen,
		Clients: len(rb.ccs), Ops: total, Errors: failed, Elapsed: elapsed,
		Mops: stats.Mops(total-failed, elapsed),
	}
	r.fillLatency(&rec)
	return r, firstErr
}

// counters sums both instances' cluster-layer counters.
func (rb *routedBench) counters() (wrongEpoch, keysMoved uint64) {
	weA, movedA, _ := rb.srvA.ClusterCounters()
	weB, movedB, _ := rb.srvB.ClusterCounters()
	return weA + weB, movedA + movedB
}
