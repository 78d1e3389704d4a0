package bench

import (
	"errors"
	"fmt"
	"time"

	"efactory/internal/baseline"
	"efactory/internal/efactory"
	"efactory/internal/model"
	"efactory/internal/obs"
	"efactory/internal/sim"
	"efactory/internal/stats"
	"efactory/internal/ycsb"
)

// isNotFound matches either store's not-found sentinel.
func isNotFound(err error) bool {
	return errors.Is(err, baseline.ErrNotFound) || errors.Is(err, efactory.ErrNotFound)
}

// KeyLen matches the paper's scalability experiment (32-byte keys, §6.2).
const KeyLen = 32

// Scale controls experiment sizes, so the same runners serve quick smoke
// benchmarks and full reproductions.
type Scale struct {
	NKeys        uint64 // distinct keys loaded before measurement
	OpsPerClient int    // measured operations per client
	PoolSize     int    // server data pool bytes (sized to avoid cleaning)
	Buckets      int
	// TraceSample enables end-to-end request tracing on every eFactory
	// client at a 1-in-N head-sampling cadence (0 = off, the default for
	// every figure; set by the tracing-overhead leg only).
	TraceSample int
}

// FullScale is the default for cmd/efactory-bench.
func FullScale() Scale {
	return Scale{NKeys: 1000, OpsPerClient: 1500, PoolSize: 192 << 20, Buckets: 16384}
}

// QuickScale keeps `go test -bench` fast.
func QuickScale() Scale {
	return Scale{NKeys: 200, OpsPerClient: 200, PoolSize: 48 << 20, Buckets: 4096}
}

// Result is one measured configuration.
type Result struct {
	System  System
	Mix     ycsb.Mix
	ValLen  int
	Clients int
	Ops     int
	// Batch is the multi-op PUT batch size (0 or 1 = unbatched Put). Set
	// by the batching experiments only.
	Batch int `json:",omitempty"`
	// Hint marks runs reading through the client-side location/durability
	// hint cache. Set by the multi-GET experiment only.
	Hint bool `json:",omitempty"`
	// Phase labels one window of the rebalance experiment: "before",
	// "during", or "after" the online migration. Set by FigRebalance only.
	Phase string `json:",omitempty"`
	// Leg names the path a transaction-sweep run drives ("put-seq",
	// "commit", "get-batch", "txn-read"). Set by FigTxn only.
	Leg string `json:",omitempty"`
	// TraceSample is the 1-in-N tracing cadence the run used (0 = tracing
	// off). Set by the tracing-overhead leg only.
	TraceSample int `json:",omitempty"`
	// WrongEpoch and KeysMoved are the cluster-layer counters for a
	// rebalance phase: rejects drawn by stale routed clients during the
	// window, and keys the migrations shipped. Set by FigRebalance only.
	WrongEpoch uint64 `json:",omitempty"`
	KeysMoved  uint64 `json:",omitempty"`
	// Errors counts ops that failed after exhausting the routed client's
	// retries — the unavailability window. Set by FigFailover only.
	Errors  int `json:",omitempty"`
	Elapsed time.Duration
	Mops    float64
	Mean    time.Duration
	Median  time.Duration
	P99     time.Duration
	P999    time.Duration
	// Hist is the full log-spaced latency histogram of the measured
	// operations (virtual time), exported to BENCH_*.json.
	Hist obs.HistSnapshot
	// Engine is the server-side telemetry snapshot, captured after the
	// run for eFactory systems only.
	Engine *obs.Snapshot `json:",omitempty"`
}

// fillLatency populates r's latency summary and histogram from rec.
func (r *Result) fillLatency(rec *stats.Recorder) {
	r.Mean = rec.Mean()
	r.Median = rec.Median()
	r.P99 = rec.P99()
	r.P999 = rec.P999()
	var h obs.Histogram
	rec.Each(func(d time.Duration) { h.Observe(uint64(d)) })
	r.Hist = h.Snapshot()
}

// captureEngine attaches the server's telemetry snapshot for eFactory
// clusters; a no-op for the baseline systems.
func (r *Result) captureEngine(c *Cluster) {
	if c.EF != nil {
		snap := c.EF.Metrics().Snapshot()
		r.Engine = &snap
	}
}

// RunMixed loads NKeys keys of valLen bytes, then drives nClients
// closed-loop clients through opsPerClient YCSB operations each and
// reports throughput and latency.
func RunMixed(par *model.Params, sys System, mix ycsb.Mix, nClients, valLen int, sc Scale, seed uint64) Result {
	c := Build(sim.NewEnv(seed), par, sys, nClients, sc.Buckets, sc.PoolSize)
	if sc.TraceSample > 0 {
		for _, cl := range c.Clients {
			if ec, ok := cl.(*efactory.Client); ok {
				ec.EnableTracing(sc.TraceSample, 0)
			}
		}
	}
	return drive(c, mix, valLen, sc, seed)
}

// drive is RunMixed's measurement loop over an already built cluster, so
// tests can run it against servers built with a tweaked config. It loads
// sc.NKeys keys of valLen bytes through c's first client, lets the
// background thread (where present) settle, then runs every client of c
// through sc.OpsPerClient operations of mix and reports throughput and
// latency.
func drive(c *Cluster, mix ycsb.Mix, valLen int, sc Scale, seed uint64) Result {
	env := c.Env
	var rec stats.Recorder
	var start, end time.Duration
	totalOps := 0

	env.Go("driver", func(p *sim.Proc) {
		// Load phase: populate every key so GETs always hit.
		loader := c.Clients[0]
		val := make([]byte, valLen)
		for i := range val {
			val[i] = byte(i)
		}
		for i := uint64(0); i < sc.NKeys; i++ {
			if err := loader.Put(p, ycsb.Key(i, KeyLen), val); err != nil {
				panic(fmt.Sprintf("bench: load put failed: %v", err))
			}
		}
		// Let the background thread (where present) settle so the
		// measured phase starts from the steady state.
		p.Sleep(20 * time.Millisecond)

		start = p.Now()
		done := sim.NewSignal(env)
		remaining := len(c.Clients)
		for ci, cl := range c.Clients {
			ci, cl := ci, cl
			env.Go(fmt.Sprintf("client-%d", ci), func(p *sim.Proc) {
				gen := ycsb.NewGenerator(mix, sc.NKeys, KeyLen, valLen, seed+uint64(ci)*1000+1)
				local := &stats.Recorder{}
				for n := 0; n < sc.OpsPerClient; n++ {
					op, key, value := gen.Next()
					t0 := p.Now()
					var err error
					if op == ycsb.OpGet {
						_, err = cl.Get(p, key)
					} else {
						err = cl.Put(p, key, value)
					}
					if err != nil && !isNotFound(err) {
						panic(fmt.Sprintf("bench: %s op failed: %v", c.System, err))
					}
					local.Record(p.Now() - t0)
				}
				rec.Merge(local)
				totalOps += sc.OpsPerClient
				remaining--
				if remaining == 0 {
					done.Fire(nil)
				}
			})
		}
		done.Wait(p)
		end = p.Now()
		c.Stop()
	})
	env.Run()

	elapsed := end - start
	r := Result{
		System: c.System, Mix: mix, ValLen: valLen, Clients: len(c.Clients),
		Ops: totalOps, Elapsed: elapsed,
		Mops: stats.Mops(totalOps, elapsed),
	}
	r.fillLatency(&rec)
	r.captureEngine(c)
	return r
}

// RunPutLatency measures durable (or scheme-native) PUT latency with a
// single client: the Figure 1 microbenchmark.
func RunPutLatency(par *model.Params, sys System, valLen, ops int, sc Scale, seed uint64) Result {
	env := sim.NewEnv(seed)
	c := Build(env, par, sys, 1, sc.Buckets, sc.PoolSize)
	var rec stats.Recorder
	env.Go("driver", func(p *sim.Proc) {
		cl := c.Clients[0]
		val := make([]byte, valLen)
		keys := sc.NKeys
		if keys > 256 {
			keys = 256
		}
		// Warm up allocation paths.
		for i := uint64(0); i < 8; i++ {
			cl.Put(p, ycsb.Key(i, KeyLen), val)
		}
		for n := 0; n < ops; n++ {
			key := ycsb.Key(uint64(n)%keys, KeyLen)
			t0 := p.Now()
			if err := cl.Put(p, key, val); err != nil {
				panic(fmt.Sprintf("bench: put failed: %v", err))
			}
			rec.Record(p.Now() - t0)
		}
		c.Stop()
	})
	env.Run()
	r := Result{System: sys, ValLen: valLen, Clients: 1, Ops: ops}
	r.fillLatency(&rec)
	r.captureEngine(c)
	return r
}

// RunGetLatency measures GET latency with a single client against a
// pre-loaded, settled store: the Figure 2 microbenchmark.
func RunGetLatency(par *model.Params, sys System, valLen, ops int, sc Scale, seed uint64) Result {
	env := sim.NewEnv(seed)
	c := Build(env, par, sys, 1, sc.Buckets, sc.PoolSize)
	var rec stats.Recorder
	env.Go("driver", func(p *sim.Proc) {
		cl := c.Clients[0]
		val := make([]byte, valLen)
		keys := sc.NKeys
		if keys > 256 {
			keys = 256
		}
		for i := uint64(0); i < keys; i++ {
			if err := cl.Put(p, ycsb.Key(i, KeyLen), val); err != nil {
				panic(fmt.Sprintf("bench: load failed: %v", err))
			}
		}
		p.Sleep(10 * time.Millisecond)
		// Warm pass: systems that persist on the read path (Forca) do
		// their one-time flush per object here, not in the measurement.
		for i := uint64(0); i < keys; i++ {
			if _, err := cl.Get(p, ycsb.Key(i, KeyLen)); err != nil {
				panic(fmt.Sprintf("bench: warm get failed: %v", err))
			}
		}
		for n := 0; n < ops; n++ {
			key := ycsb.Key(uint64(n)%keys, KeyLen)
			t0 := p.Now()
			if _, err := cl.Get(p, key); err != nil {
				panic(fmt.Sprintf("bench: get failed: %v", err))
			}
			rec.Record(p.Now() - t0)
		}
		c.Stop()
	})
	env.Run()
	r := Result{System: sys, ValLen: valLen, Clients: 1, Ops: ops}
	r.fillLatency(&rec)
	r.captureEngine(c)
	return r
}
