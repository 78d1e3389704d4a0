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

// GetBatchSizes is the multi-GET sweep for the read-path experiment.
var GetBatchSizes = []int{1, 2, 4, 8, 16, 32}

// RunGetBatch measures doorbell-batched multi-GET throughput with a
// single client over a fully durable keyset: every key is loaded and the
// background verifier drained first, so the measured reads take the
// optimistic one-sided path and the sweep isolates what batching and the
// hint cache amortize — completion charges per chained group, and probe
// walks per key.
//
// Per-op latency is the batch call's elapsed time divided evenly over its
// keys, mirroring the multi-op PUT accounting.
func RunGetBatch(par *model.Params, batch int, hint bool, valLen, ops int, sc Scale, seed uint64) (Result, efactory.ClientStats) {
	if batch < 1 {
		batch = 1
	}
	env := sim.NewEnv(seed)
	cfg := efactory.DefaultConfig()
	cfg.Buckets = sc.Buckets
	cfg.PoolSize = sc.PoolSize
	srv := efactory.NewServer(env, par, cfg)
	cl := srv.AttachClient("c0")
	if hint {
		cl.EnableHintCache()
	}

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
		for i := uint64(0); i < keys; i++ {
			if err := cl.Put(p, ycsb.Key(i, KeyLen), val); err != nil {
				panic(fmt.Sprintf("bench: load put failed: %v", err))
			}
		}
		// Let the background verifier drain so the measured phase reads
		// durable objects over the one-sided path.
		p.Sleep(100 * time.Millisecond)
		// One warm pass populates the hint cache (when enabled) the way a
		// steady-state client would have: a PUT's hint names no table slot,
		// so each key's first read guesses its home bucket and learns the
		// slot.
		kbuf := make([][]byte, batch)
		for n := uint64(0); n < keys; n++ {
			kbuf[0] = ycsb.Key(n, KeyLen)
			if _, errs := cl.GetBatch(p, kbuf[:1]); errs[0] != nil {
				panic(fmt.Sprintf("bench: warm get failed: %v", errs[0]))
			}
		}
		cl.Stats = efactory.ClientStats{} // count the measured phase only

		start = p.Now()
		for n := 0; n < ops; n += batch {
			m := batch
			if ops-n < m {
				m = ops - n
			}
			for j := 0; j < m; j++ {
				kbuf[j] = ycsb.Key(uint64(n+j)%keys, KeyLen)
			}
			t0 := p.Now()
			_, errs := cl.GetBatch(p, kbuf[:m])
			for _, err := range errs {
				if err != nil {
					panic(fmt.Sprintf("bench: batched get failed: %v", err))
				}
			}
			per := (p.Now() - t0) / time.Duration(m)
			for j := 0; j < m; j++ {
				rec.Record(per)
			}
			total += m
		}
		end = p.Now()
		srv.Stop()
	})
	env.Run()

	r := Result{
		System: SysEFactory, ValLen: valLen, Clients: 1,
		Ops: total, Batch: batch, Hint: hint, Elapsed: end - start,
		Mops: stats.Mops(total, end-start),
	}
	r.fillLatency(&rec)
	snap := srv.Metrics().Snapshot()
	r.Engine = &snap
	return r, cl.Stats
}

// FigGetBatch sweeps the read path: multi-GET batch width × hint cache
// on/off. Batching amortizes the completion charge over a doorbell-chained
// group of one-sided READs; the hint cache replaces the per-key probe walk
// with one chained entry+object read at the cached location. The two
// compose — the widest batch with hints is the paper's read-path ceiling.
func FigGetBatch(w io.Writer, par *model.Params, sc Scale) []Result {
	const valLen = 256
	fmt.Fprintf(w, "Read-path scale-out: doorbell-batched multi-GET × hint cache (%dB values, 1 client)\n", valLen)
	tw := newTab(w)
	fmt.Fprintln(tw, "batch\thints\tMops\tmed\tp99\tpure\thinted\tfallback")
	var out []Result
	for _, hint := range []bool{false, true} {
		for _, b := range GetBatchSizes {
			r, cs := RunGetBatch(par, b, hint, valLen, sc.OpsPerClient, sc, 44)
			out = append(out, r)
			fmt.Fprintf(tw, "%d\t%v\t%.3f\t%s\t%s\t%d\t%d\t%d\n",
				b, hint, r.Mops, stats.FmtDur(r.Median), stats.FmtDur(r.P99),
				cs.PureReads, cs.HintedReads, cs.FallbackReads)
		}
	}
	tw.Flush()
	return out
}
