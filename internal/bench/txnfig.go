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

// TxnWidths is the N-key commit sweep: how the single-record commit
// protocol's cost amortizes as the write set grows.
var TxnWidths = []int{1, 2, 4, 8}

// RunTxn measures one leg of the transaction figure with a single client
// over the simulated transport. Legs:
//
//	"commit"   — N-key atomic TxnCommit, one commit record per call
//	"put-seq"  — the non-atomic baseline: N sequential single-key PUTs
//	"txn-read" — N-key snapshot read at one pinned cut
//	"get-batch"— the unbounded baseline: N-key doorbell-batched multi-GET
//
// Per-op latency is the call's elapsed time divided evenly over its keys,
// mirroring the batched-op accounting elsewhere, so "what does atomicity
// cost per write (or a consistent cut per read)" is a direct column read.
func RunTxn(par *model.Params, leg string, width, valLen, ops int, sc Scale, seed uint64) Result {
	if width < 1 {
		width = 1
	}
	env := sim.NewEnv(seed)
	cfg := efactory.DefaultConfig()
	cfg.Buckets = sc.Buckets
	cfg.PoolSize = sc.PoolSize
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
		if uint64(width) > keys {
			keys = uint64(width)
		}
		for i := uint64(0); i < keys; i++ {
			if err := cl.Put(p, ycsb.Key(i, KeyLen), val); err != nil {
				panic(fmt.Sprintf("bench: load put failed: %v", err))
			}
		}
		// Drain the background verifier: the read legs measure durable
		// objects, and the write legs start from a settled engine.
		p.Sleep(100 * time.Millisecond)

		kbuf := make([][]byte, width)
		vbuf := make([][]byte, width)
		start = p.Now()
		for n := 0; n < ops; n += width {
			m := width
			if ops-n < m {
				m = ops - n
			}
			for j := 0; j < m; j++ {
				kbuf[j] = ycsb.Key(uint64(n+j)%keys, KeyLen)
				vbuf[j] = val
			}
			t0 := p.Now()
			switch leg {
			case "commit":
				if _, err := cl.TxnCommit(p, kbuf[:m], vbuf[:m]); err != nil {
					panic(fmt.Sprintf("bench: txn commit failed: %v", err))
				}
			case "put-seq":
				for j := 0; j < m; j++ {
					if err := cl.Put(p, kbuf[j], vbuf[j]); err != nil {
						panic(fmt.Sprintf("bench: baseline put failed: %v", err))
					}
				}
			case "txn-read":
				_, errs := cl.TxnRead(p, kbuf[:m])
				for _, err := range errs {
					if err != nil {
						panic(fmt.Sprintf("bench: txn read failed: %v", err))
					}
				}
			case "get-batch":
				_, errs := cl.GetBatch(p, kbuf[:m])
				for _, err := range errs {
					if err != nil {
						panic(fmt.Sprintf("bench: baseline get failed: %v", err))
					}
				}
			default:
				panic(fmt.Sprintf("bench: unknown txn leg %q", leg))
			}
			per := (p.Now() - t0) / time.Duration(m)
			for j := 0; j < m; j++ {
				rec.Record(per)
			}
			total += m
		}
		end = p.Now()
		p.Sleep(20 * time.Millisecond)
		srv.Stop()
	})
	env.Run()

	r := Result{
		System: SysEFactory, ValLen: valLen, Clients: 1,
		Leg: leg, Batch: width, Ops: total, Elapsed: end - start,
		Mops: stats.Mops(total, end-start),
	}
	r.fillLatency(&rec)
	snap := srv.Metrics().Snapshot()
	r.Engine = &snap
	return r
}

// FigTxn sweeps the transactional write and read paths against their
// non-transactional baselines over the commit width. The commit pays one
// staged append per key plus one commit record per transaction, so its
// per-key gap to sequential PUTs narrows as the record amortizes;
// snapshot reads pay a cut pin per call over the multi-GET baseline.
func FigTxn(w io.Writer, par *model.Params, sc Scale) []Result {
	const valLen = 256
	fmt.Fprintf(w, "Transactions: N-key atomic commit and snapshot read vs non-transactional baselines (%dB values, 1 client)\n", valLen)
	tw := newTab(w)
	fmt.Fprintln(tw, "keys/op\tleg\tMops\tmean\tp99")
	var out []Result
	for _, width := range TxnWidths {
		for _, leg := range []string{"put-seq", "commit", "get-batch", "txn-read"} {
			r := RunTxn(par, leg, width, valLen, sc.OpsPerClient, sc, 53)
			out = append(out, r)
			fmt.Fprintf(tw, "%d\t%s\t%.3f\t%s\t%s\n",
				width, leg, r.Mops, stats.FmtDur(r.Mean), stats.FmtDur(r.P99))
		}
		fmt.Fprintln(tw, "\t\t\t\t")
	}
	tw.Flush()
	return out
}
