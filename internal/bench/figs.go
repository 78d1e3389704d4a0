package bench

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"efactory/internal/model"
	"efactory/internal/sim"
	"efactory/internal/stats"
	"efactory/internal/ycsb"
)

// ValueSizes are the paper's value-size sweep points.
var ValueSizes = []int{64, 256, 1024, 4096}

// ClientCounts is the Figure 10 scalability sweep.
var ClientCounts = []int{1, 2, 4, 8, 16}

func newTab(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// Fig1 reproduces Figure 1: median and p99 latency of writing remote NVMM
// with the four schemes (CA w/o persistence, SAW, IMM, RPC), one client,
// across value sizes.
func Fig1(w io.Writer, par *model.Params, sc Scale) []Result {
	fmt.Fprintln(w, "Figure 1: latency of writing to remote NVMM (µs)")
	tw := newTab(w)
	fmt.Fprintf(tw, "value\t")
	for _, sys := range Figure1Systems() {
		fmt.Fprintf(tw, "%s med\t%s p99\t", sys, sys)
	}
	fmt.Fprintln(tw)
	var out []Result
	for _, vs := range ValueSizes {
		fmt.Fprintf(tw, "%dB\t", vs)
		for _, sys := range Figure1Systems() {
			r := RunPutLatency(par, sys, vs, sc.OpsPerClient, sc, 11)
			out = append(out, r)
			fmt.Fprintf(tw, "%s\t%s\t", stats.FmtDur(r.Median), stats.FmtDur(r.P99))
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	return out
}

// Fig2 reproduces Figure 2: GET latency breakdown for Erda and Forca,
// splitting the CRC verification cost from the rest of the read path.
func Fig2(w io.Writer, par *model.Params, sc Scale) []Result {
	fmt.Fprintln(w, "Figure 2: GET latency breakdown (µs)")
	tw := newTab(w)
	fmt.Fprintln(tw, "value\tsystem\ttotal\tcrc\tother\tcrc-share")
	var out []Result
	for _, vs := range ValueSizes {
		crcCost := par.CRCTime(vs)
		for _, sys := range []System{SysErda, SysForca} {
			r := RunGetLatency(par, sys, vs, sc.OpsPerClient, sc, 22)
			out = append(out, r)
			total := r.Median
			share := float64(crcCost) / float64(total) * 100
			fmt.Fprintf(tw, "%dB\t%s\t%s\t%s\t%s\t%.0f%%\n",
				vs, sys, stats.FmtDur(total), stats.FmtDur(crcCost),
				stats.FmtDur(total-crcCost), share)
		}
	}
	tw.Flush()
	return out
}

// Fig9 reproduces Figure 9: end-to-end throughput with 8 clients across
// value sizes for the four workloads. mix selects one of the paper's
// subfigures (0=C/a, 1=B/b, 2=A/c, 3=update-only/d); pass -1 for all.
func Fig9(w io.Writer, par *model.Params, sc Scale, mix int) []Result {
	const clients = 8
	var out []Result
	mixes := ycsb.Workloads()
	for mi, m := range mixes {
		if mix >= 0 && mi != mix {
			continue
		}
		fmt.Fprintf(w, "Figure 9(%c): %s, %d clients — throughput (Mops/s)\n", 'a'+mi, m.Name, clients)
		tw := newTab(w)
		fmt.Fprintf(tw, "value\t")
		for _, sys := range Figure9Systems() {
			fmt.Fprintf(tw, "%s\t", sys)
		}
		fmt.Fprintln(tw)
		for _, vs := range ValueSizes {
			fmt.Fprintf(tw, "%dB\t", vs)
			var ef float64
			for _, sys := range Figure9Systems() {
				r := RunMixed(par, sys, m, clients, vs, sc, 33)
				out = append(out, r)
				if sys == SysEFactory {
					ef = r.Mops
				}
				fmt.Fprintf(tw, "%.3f\t", r.Mops)
			}
			_ = ef
			fmt.Fprintln(tw)
		}
		tw.Flush()
	}
	return out
}

// Fig10 reproduces Figure 10: throughput scalability with the number of
// client processes (32 B keys, 2048 B values).
func Fig10(w io.Writer, par *model.Params, sc Scale) []Result {
	const valLen = 2048
	var out []Result
	for mi, m := range ycsb.Workloads() {
		fmt.Fprintf(w, "Figure 10(%c): %s, 2048B values — throughput (Mops/s)\n", 'a'+mi, m.Name)
		tw := newTab(w)
		fmt.Fprintf(tw, "clients\t")
		for _, sys := range Figure9Systems() {
			fmt.Fprintf(tw, "%s\t", sys)
		}
		fmt.Fprintln(tw)
		for _, nc := range ClientCounts {
			fmt.Fprintf(tw, "%d\t", nc)
			for _, sys := range Figure9Systems() {
				r := RunMixed(par, sys, m, nc, valLen, sc, 44)
				out = append(out, r)
				fmt.Fprintf(tw, "%.3f\t", r.Mops)
			}
			fmt.Fprintln(tw)
		}
		tw.Flush()
	}
	return out
}

// Fig11 reproduces Figure 11: the average operation latency of eFactory
// with and without log cleaning running, for the four mixes (2048 B
// values). Cleaning is kept continuously active during the "with" run, as
// the paper measures the impact while cleaning is in progress.
func Fig11(w io.Writer, par *model.Params, sc Scale) []Result {
	const valLen = 2048
	const clients = 8
	fmt.Fprintln(w, "Figure 11: average latency with/without log cleaning (µs)")
	tw := newTab(w)
	fmt.Fprintln(tw, "workload\tw/o cleaning\tw/ cleaning\toverhead")
	var out []Result
	for _, m := range ycsb.Workloads() {
		base := RunMixed(par, SysEFactory, m, clients, valLen, sc, 55)
		clean := runMixedCleaning(par, m, clients, valLen, sc, 55)
		out = append(out, base, clean)
		over := float64(clean.Mean-base.Mean) / float64(base.Mean) * 100
		fmt.Fprintf(tw, "%s\t%s\t%s\t%+.0f%%\n",
			m.Name, stats.FmtDur(base.Mean), stats.FmtDur(clean.Mean), over)
	}
	tw.Flush()
	return out
}

// runMixedCleaning is RunMixed with a controller that keeps log cleaning
// continuously active during the measurement phase. It keeps its own loop
// because its load phase writes zero-filled values where RunMixed writes a
// byte pattern, and Figure 11's YCSB-B row depends on that.
func runMixedCleaning(par *model.Params, mix ycsb.Mix, nClients, valLen int, sc Scale, seed uint64) Result {
	env := sim.NewEnv(seed)
	c := Build(env, par, SysEFactory, nClients, sc.Buckets, sc.PoolSize)

	var rec stats.Recorder
	var start, end time.Duration
	totalOps := 0
	measuring := false
	stopCleaner := false

	env.Go("clean-controller", func(p *sim.Proc) {
		for !stopCleaner {
			if measuring && !c.EF.Cleaning() {
				c.EF.StartCleaning()
			}
			p.Sleep(20 * time.Microsecond)
		}
	})

	env.Go("driver", func(p *sim.Proc) {
		loader := c.Clients[0]
		val := make([]byte, valLen)
		for i := uint64(0); i < sc.NKeys; i++ {
			if err := loader.Put(p, ycsb.Key(i, KeyLen), val); err != nil {
				panic(fmt.Sprintf("bench: load put failed: %v", err))
			}
		}
		p.Sleep(20 * time.Millisecond)
		measuring = true
		start = p.Now()
		done := sim.NewSignal(env)
		remaining := nClients
		for ci, cl := range c.Clients {
			ci, cl := ci, cl
			env.Go(fmt.Sprintf("client-%d", ci), func(p *sim.Proc) {
				gen := ycsb.NewGenerator(mix, sc.NKeys, KeyLen, valLen, seed+uint64(ci)*1000+1)
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
						panic(fmt.Sprintf("bench: cleaning-run op failed: %v", err))
					}
					rec.Record(p.Now() - t0)
					totalOps++
				}
				remaining--
				if remaining == 0 {
					done.Fire(nil)
				}
			})
		}
		done.Wait(p)
		end = p.Now()
		stopCleaner = true
		// Let an in-flight cleaning run finish before stopping the server.
		for c.EF.Cleaning() {
			p.Sleep(100 * time.Microsecond)
		}
		c.Stop()
	})
	env.Run()

	elapsed := end - start
	r := Result{
		System: SysEFactory, Mix: mix, ValLen: valLen, Clients: nClients,
		Ops: totalOps, Elapsed: elapsed,
		Mops: stats.Mops(totalOps, elapsed),
	}
	r.fillLatency(&rec)
	r.captureEngine(c)
	return r
}
