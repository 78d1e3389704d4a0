package bench

import (
	"fmt"
	"io"
	"time"

	"efactory/internal/efactory"
	"efactory/internal/model"
	"efactory/internal/sim"
	"efactory/internal/stats"
	"efactory/internal/ycsb"
)

// BatchSizes is the multi-op PUT sweep for the batching experiment.
var BatchSizes = []int{1, 2, 4, 8, 16}

// RunPutBatch measures multi-op PUT throughput with a single client
// issuing doorbell-batched PutBatch calls of the given size against a
// server whose background verifier coalesces up to bgBatch objects per
// group-verified, group-flushed run. batch == 1 with bgBatch <= 1 is the
// classic one-PUT, one-object-per-run configuration.
//
// Per-op latency is the batch call's elapsed time divided evenly over its
// ops: batching trades a little per-op completion latency for fewer
// notification rounds, and this accounting keeps that trade visible.
func RunPutBatch(par *model.Params, batch, bgBatch, valLen, ops int, sc Scale, seed uint64) Result {
	if batch < 1 {
		batch = 1
	}
	env := sim.NewEnv(seed)
	cfg := efactory.DefaultConfig()
	cfg.Buckets = sc.Buckets
	cfg.PoolSize = sc.PoolSize
	cfg.BGBatch = bgBatch
	srv := efactory.NewServer(env, par, cfg)
	cl := srv.AttachClient("c0")

	var rec stats.Recorder
	var start, end time.Duration
	total := 0

	env.Go("driver", func(p *sim.Proc) {
		val := make([]byte, valLen)
		for i := range val {
			val[i] = byte(i)
		}
		keys := sc.NKeys
		if keys > 256 {
			keys = 256
		}
		// Warm up allocation paths.
		for i := uint64(0); i < 8; i++ {
			cl.Put(p, ycsb.Key(i, KeyLen), val)
		}
		start = p.Now()
		kbuf := make([][]byte, batch)
		vbuf := make([][]byte, batch)
		for n := 0; n < ops; n += batch {
			m := batch
			if ops-n < m {
				m = ops - n
			}
			for j := 0; j < m; j++ {
				kbuf[j] = ycsb.Key(uint64(n+j)%keys, KeyLen)
				vbuf[j] = val
			}
			t0 := p.Now()
			for _, err := range cl.PutBatch(p, kbuf[:m], vbuf[:m]) {
				if err != nil {
					panic(fmt.Sprintf("bench: batched put failed: %v", err))
				}
			}
			per := (p.Now() - t0) / time.Duration(m)
			for j := 0; j < m; j++ {
				rec.Record(per)
			}
			total += m
		}
		end = p.Now()
		// Let the background verifier drain so the run's flush accounting
		// covers every measured object.
		p.Sleep(20 * time.Millisecond)
		srv.Stop()
	})
	env.Run()

	r := Result{
		System: SysEFactory, ValLen: valLen, Clients: 1,
		Ops: total, Batch: batch, Elapsed: end - start,
		Mops: stats.Mops(total, end-start),
	}
	r.fillLatency(&rec)
	snap := srv.Metrics().Snapshot()
	r.Engine = &snap
	return r
}

// FigBatch sweeps the end-to-end batching pipeline: client-side multi-op
// PUT batches (one allocation RPC + one doorbell-batched WRITE chain per
// batch) combined with group-verified, group-flushed background
// persistence sized to match. The paper's client-active scheme already
// moves durability off the critical path; batching amortizes what remains
// — per-message receive handling, doorbell posts, and per-object flush
// drains.
func FigBatch(w io.Writer, par *model.Params, sc Scale) []Result {
	const valLen = 256
	fmt.Fprintf(w, "Batch coalescing: multi-op PUT + batched background persistence (%dB values, 1 client)\n", valLen)
	tw := newTab(w)
	fmt.Fprintln(tw, "batch\tMops\tmed\tp99\tbg-runs\tbg-objs\tobjs/run\tbatched-runs")
	var out []Result
	for _, b := range BatchSizes {
		r := RunPutBatch(par, b, b, valLen, sc.OpsPerClient, sc, 33)
		out = append(out, r)
		var runs uint64
		var verified, batched float64
		if r.Engine != nil {
			runs = r.Engine.MergedOp("bg_flush").Count
			verified, _ = r.Engine.CounterValue("efactory_bg_objects_total", map[string]string{"outcome": "verified"})
			batched, _ = r.Engine.CounterValue("efactory_bg_batched_runs_total", nil)
		}
		perRun := 0.0
		if runs > 0 {
			perRun = verified / float64(runs)
		}
		fmt.Fprintf(tw, "%d\t%.3f\t%s\t%s\t%d\t%.0f\t%.2f\t%.0f\n",
			b, r.Mops, stats.FmtDur(r.Median), stats.FmtDur(r.P99),
			runs, verified, perRun, batched)
	}
	tw.Flush()
	return out
}
