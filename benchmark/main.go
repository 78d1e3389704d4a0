// Command benchmark is the repository's wall-clock benchmark: four
// closed-loop, fixed-op-count workloads driven from one process against
// in-process tcpkv servers on in-memory devices over loopback TCP. A timed
// run (-trace 0) yields the end-to-end metrics; a traced run (-trace 1)
// records spans from this package's own files around every client call
// and around a ladder of direct calls into each layer, and derives the
// per-layer metrics. See README.md for the metric dictionary.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

// metricDef names one metric; BENCHMARK.json repeats these tables and a
// test keeps the two in step.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: allowed worsening, as a share of the parent's median
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"read_p50_us", "us", "lower", 0.25},
	{"write_p50_us", "us", "lower", 0.25},
}

var perLayer = []metricDef{
	{name: "crc.ns_per_op", unit: "ns", better: "lower"},
	{name: "crc.mb_per_s", unit: "MB/s", better: "higher"},
	{name: "nvm.write_flush_ns_per_op", unit: "ns", better: "lower"},
	{name: "nvm.read_ns_per_op", unit: "ns", better: "lower"},
	{name: "nvm.flushed_lines_per_op", unit: "count", better: "lower"},
	{name: "kv.lookup_ns_per_op", unit: "ns", better: "lower"},
	{name: "kv.header_ns_per_op", unit: "ns", better: "lower"},
	{name: "kv.table_load", unit: "ratio", better: "lower"},
	{name: "store.put_ns_per_op", unit: "ns", better: "lower"},
	{name: "store.get_ns_per_op", unit: "ns", better: "lower"},
	{name: "store.putbatch_ns_per_key", unit: "ns", better: "lower"},
	{name: "store.getbatch_ns_per_key", unit: "ns", better: "lower"},
	{name: "store.bg_ns_per_obj", unit: "ns", better: "lower"},
	{name: "store.bg_stale_share", unit: "ratio", better: "lower"},
	{name: "store.cleanings", unit: "count", better: "lower"},
	{name: "store.clean_moved_per_run", unit: "count", better: "lower"},
	{name: "store.write_amp", unit: "ratio", better: "lower"},
	{name: "store.recover_ms", unit: "ms", better: "lower"},
	{name: "store.get_fastpath_share", unit: "ratio", better: "higher"},
	{name: "store.alloc_failures", unit: "count", better: "lower"},
	{name: "wire.codec_ns_per_op", unit: "ns", better: "lower"},
	{name: "wire.bytes_per_op", unit: "B", better: "lower"},
	{name: "tcpkv.call_us_1c", unit: "us", better: "lower"},
	{name: "tcpkv.rungs_us", unit: "us", better: "lower"},
	{name: "tcpkv.transport_self_us", unit: "us", better: "lower"},
	{name: "tcpkv.transport_share", unit: "ratio", better: "lower"},
	{name: "tcpkv.us_per_key_batched", unit: "us", better: "lower"},
	{name: "tcpkv.pure_read_share", unit: "ratio", better: "higher"},
	{name: "tcpkv.read_p99_us", unit: "us", better: "lower"},
	{name: "tcpkv.write_p99_us", unit: "us", better: "lower"},
	{name: "tcpkv.read_p999_us", unit: "us", better: "lower"},
	{name: "tcpkv.write_p999_us", unit: "us", better: "lower"},
	{name: "tcpkv.retries", unit: "count", better: "lower"},
	{name: "tcpkv.reconnects", unit: "count", better: "lower"},
	{name: "cluster.route_ns_per_op", unit: "ns", better: "lower"},
	{name: "cluster.routed_overhead_us", unit: "us", better: "lower"},
	{name: "cluster.wrong_epoch_rejects", unit: "count", better: "lower"},
	{name: "repl.appends_per_put", unit: "ratio", better: "lower"},
	{name: "repl.overhead_us_per_put", unit: "us", better: "lower"},
	{name: "repl.append_failures", unit: "count", better: "lower"},
	{name: "repl.lag_peak", unit: "B", better: "lower"},
	{name: "go.allocs_per_op", unit: "count", better: "lower"},
	{name: "go.bytes_per_op", unit: "B", better: "lower"},
	{name: "go.gc_cycles", unit: "count", better: "lower"},
	{name: "go.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "go.cpu_us_per_op", unit: "us", better: "lower"},
	{name: "bench.trace_overhead_pct", unit: "%", better: "lower"},
	{name: "bench.chunk_rate_iqr_pct", unit: "%", better: "lower"},
}

// value is one measured metric with the number of samples behind it.
type value struct {
	v       float64
	samples int
}

// report is one run of one workload in one mode.
type report struct {
	workload  string
	traced    bool
	opsSHA    string
	attempted int
	failed    int
	problems  []string // wrong outputs and broken workload assumptions
	notes     []string // one line per round, for whoever reads the table
	metrics   map[string]value
}

func (r *report) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

// defaultSeconds is the run length BENCHMARK.json pins as run_seconds.
const defaultSeconds = 12

type options struct {
	seed     uint64
	seconds  float64
	scale    float64
	traceOut string
}

// us is a duration in microseconds.
func us(d time.Duration) float64 { return float64(d) / 1e3 }

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// midMean is the mean of the values left after dropping the smallest and
// the largest: the median of three rounds, the middle three of five.
func midMean(vs []float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	if len(s) > 2 {
		s = s[1 : len(s)-1]
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(max(len(s), 1))
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is how
// the spread of a set of runs is judged.
func quartiles(vs []float64) (q1, q3 float64) {
	s := slices.Clone(vs)
	slices.Sort(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		j := min(max(int(pos), 1), len(s)-1)
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(0.25), at(0.75)
}

// spreadPct is the inter-quartile range as a percentage of the median.
func spreadPct(vs []float64) float64 {
	if len(vs) < 2 || median(vs) == 0 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return 100 * (q3 - q1) / median(vs)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// collect folds the rounds of one run into a report's shared fields and
// returns how many read and write calls were timed.
func collect(rep *report, outs []*roundOut) (reads, writes int) {
	for i, o := range outs {
		rep.notes = append(rep.notes, fmt.Sprintf("round %d: setup %.3f s, measured %.3f s, %.0f keys/s, read p50 %.1f us, write p50 %.1f us, chunk spread %.1f%%, peak verifier backlog %d B drained in %.3f s",
			i, o.setup.Seconds(), o.wall.Seconds(), o.rate(), us(o.read.Median()), us(o.write.Median()),
			spreadPct(o.chunkRates), o.lagPeak, o.drain.Seconds()))
		rep.attempted += o.attempted
		rep.failed += o.failed
		if o.invalid > 0 || o.failed > 0 {
			rep.problems = append(rep.problems, fmt.Sprintf("round %d: %d failed ops, %d invalid values, first: %v", i, o.failed, o.invalid, o.firstErr))
		}
		for _, p := range o.problems {
			rep.problems = append(rep.problems, fmt.Sprintf("round %d: %s", i, p))
		}
		reads += o.read.Count()
		writes += o.write.Count()
	}
	return reads, writes
}

// runTimed is the untraced run: the workload's rounds, each a set-up
// followed by its share of the measured ops. Each round yields its own
// set-up time, throughput (keys completed over the round's measured time:
// a mean, so that cleaning and mirror stalls count) and median latencies;
// the run reports the middle of the rounds (midMean), which one round
// slowed by a busy neighbour cannot move far.
func runTimed(s spec, opt options) (*report, error) {
	keys := makeKeys(s.keys)
	p := makePlan(s, opt.seed, opt.seconds, s.rounds)
	rep := &report{workload: s.name, opsSHA: p.sha, metrics: make(map[string]value)}
	var outs []*roundOut
	var setups, rates, reads, writes []float64
	for r := 0; r < s.rounds; r++ {
		o, err := runRound(s, keys, p, r, nil, false)
		if err != nil {
			return nil, fmt.Errorf("%s round %d: %w", s.name, r, err)
		}
		outs = append(outs, o)
		setups = append(setups, o.setup.Seconds())
		rates = append(rates, o.rate())
		reads = append(reads, us(o.read.Median()))
		writes = append(writes, us(o.write.Median()))
	}
	nread, nwrite := collect(rep, outs)
	rep.metrics["setup_s"] = value{midMean(setups), s.rounds}
	rep.metrics["ops_per_s"] = value{midMean(rates), rep.attempted - rep.failed}
	rep.metrics["read_p50_us"] = value{midMean(reads), nread}
	rep.metrics["write_p50_us"] = value{midMean(writes), nwrite}
	return rep, nil
}

// runTraced is the per-layer run: one untraced round (the reference for
// tracing overhead and the source of the tail percentiles), one traced
// round with a span around every client call, and the ladder.
func runTraced(s spec, opt options) (*report, error) {
	keys := makeKeys(s.keys)
	p := makePlan(s, opt.seed, opt.seconds, 2)
	rep := &report{workload: s.name, traced: true, opsSHA: p.sha, metrics: make(map[string]value)}
	calls := s.callsPerRound(opt.seconds) * s.clients
	rec := NewRecorder(calls + 4096)
	plain, err := runRound(s, keys, p, 0, nil, false)
	if err != nil {
		return nil, fmt.Errorf("%s untraced round: %w", s.name, err)
	}
	traced, err := runRound(s, keys, p, 1, rec, true)
	if err != nil {
		return nil, fmt.Errorf("%s traced round: %w", s.name, err)
	}
	lad, err := runLadder(s, keys, p.phases[0][0], opt.scale, rec)
	if err != nil {
		return nil, fmt.Errorf("%s ladder: %w", s.name, err)
	}
	collect(rep, []*roundOut{plain, traced})
	spans := rec.Spans()
	self := SelfTimes(spans)
	for _, sp := range spans {
		if sp.Parent == 0 && strings.HasPrefix(sp.Name, "measured-") {
			rep.notes = append(rep.notes, fmt.Sprintf("traced %s: %.3f s, of which %.3f s outside client calls (stamping, checking, the loop itself)",
				sp.Name, float64(sp.End-sp.Start)/1e9, float64(self[sp.ID])/1e9))
		}
	}
	if opt.traceOut != "" {
		if err := writeSpans(strings.ReplaceAll(opt.traceOut, "{workload}", s.name), spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}

	var d counters
	d.addDelta(plain.delta, counters{})
	d.addDelta(traced.delta, counters{})
	keysDone := float64(plain.keysOK + traced.keysOK)
	m := rep.metrics
	set := func(name string, v float64, samples int) { m[name] = value{v, samples} }

	crcNS, crcN := spanTotals(spans, "crc.Checksum")
	set("crc.ns_per_op", nsPerOp(spans, "crc.Checksum"), crcN)
	set("crc.mb_per_s", ratio(float64(crcN*s.vlen)*1e3, float64(crcNS)), crcN)
	_, nvmN := spanTotals(spans, "nvm.Read")
	set("nvm.write_flush_ns_per_op", nsPerOp(spans, "nvm.Write+Flush"), nvmN)
	set("nvm.read_ns_per_op", nsPerOp(spans, "nvm.Read"), nvmN)
	set("nvm.flushed_lines_per_op", ratio(d[cFlushedLines], keysDone), int(keysDone))
	_, kvN := spanTotals(spans, "kv.lookup")
	set("kv.lookup_ns_per_op", nsPerOp(spans, "kv.lookup"), kvN)
	set("kv.header_ns_per_op", nsPerOp(spans, "kv.header"), kvN)
	set("kv.table_load", traced.tableLoad, 1)
	for metric, span := range map[string]string{
		"store.put_ns_per_op": "store.Put", "store.get_ns_per_op": "store.Get",
		"store.putbatch_ns_per_key": "store.PutBatch", "store.getbatch_ns_per_key": "store.GetBatch",
		"store.bg_ns_per_obj": "store.BG", "wire.codec_ns_per_op": "wire.codec", "cluster.route_ns_per_op": "cluster.route",
	} {
		_, n := spanTotals(spans, span)
		set(metric, nsPerOp(spans, span), n)
	}
	visits := d[cBGVerified] + d[cBGSkipped] + d[cBGStale] + d[cBGInvalid]
	set("store.bg_stale_share", ratio(d[cBGStale], visits), int(visits))
	set("store.cleanings", d[cCleanings], 2)
	set("store.clean_moved_per_run", ratio(d[cCleanMoved], d[cCleanings]), int(d[cCleanings]))
	set("store.write_amp", 1+ratio(d[cCleanMoved], d[cPuts]), int(d[cPuts]))
	set("store.recover_ms", traced.recover.Seconds()*1e3, 1)
	set("store.get_fastpath_share", ratio(d[cGetFast], d[cGets]), int(d[cGets]))
	set("store.alloc_failures", d[cAllocFail], 2)
	set("wire.bytes_per_op", lad.wireBytesPerOp, kvN)

	// The ladder identity: one client's median call is the rungs below the
	// transport (store, wire, crc, each weighted by the stream's op mix)
	// plus what is left, which is tcpkv's own framing, the goroutine
	// hand-offs and the kernel's loopback path.
	putNS, getNS := m["store.put_ns_per_op"].v, m["store.get_ns_per_op"].v
	rungsUS := (lad.putShare*(putNS+m["crc.ns_per_op"].v) + (1-lad.putShare)*getNS + m["wire.codec_ns_per_op"].v) / 1e3
	set("tcpkv.call_us_1c", lad.callUS, lad.calls)
	set("tcpkv.rungs_us", rungsUS, lad.calls)
	set("tcpkv.transport_self_us", lad.callUS-rungsUS, lad.calls)
	set("tcpkv.transport_share", ratio(lad.callUS-rungsUS, lad.callUS), lad.calls)
	set("tcpkv.us_per_key_batched", lad.batchedUSPerKey, lad.calls)
	set("tcpkv.pure_read_share", ratio(d[cPureReads], d[cPureReads]+d[cFallbackReads]), int(d[cPureReads]+d[cFallbackReads]))
	set("tcpkv.read_p99_us", us(plain.read.P99()), plain.read.Count())
	set("tcpkv.write_p99_us", us(plain.write.P99()), plain.write.Count())
	set("tcpkv.read_p999_us", us(plain.read.P999()), plain.read.Count())
	set("tcpkv.write_p999_us", us(plain.write.P999()), plain.write.Count())
	set("tcpkv.retries", d[cRetries], 2)
	set("tcpkv.reconnects", d[cReconnects], 2)
	set("cluster.routed_overhead_us", lad.routedUS-lad.callUS, lad.calls)
	set("cluster.wrong_epoch_rejects", d[cWrongEpoch], 2)
	set("repl.appends_per_put", ratio(d[cReplAppends], d[cPuts]), int(d[cPuts]))
	set("repl.overhead_us_per_put", lad.writeMeanRF2US-lad.writeMeanRF1US, int(lad.putShare*float64(lad.calls)))
	set("repl.append_failures", d[cReplFailures], 2)
	set("repl.lag_peak", float64(max(plain.lagPeak, traced.lagPeak)), 2*chunks)
	set("go.allocs_per_op", ratio(d[cMallocs], keysDone), int(keysDone))
	set("go.bytes_per_op", ratio(d[cAllocBytes], keysDone), int(keysDone))
	set("go.gc_cycles", d[cGCs], 2)
	set("go.gc_pause_ms", d[cGCPauseNS]/1e6, int(d[cGCs]))
	set("go.cpu_us_per_op", ratio(d[cCPUNS]/1e3, keysDone), int(keysDone))
	set("bench.trace_overhead_pct", 100*ratio(plain.rate()-traced.rate(), plain.rate()), 2)
	allChunks := append(slices.Clone(plain.chunkRates), traced.chunkRates...)
	set("bench.chunk_rate_iqr_pct", spreadPct(allChunks), len(allChunks))
	return rep, nil
}

// print writes the metric table and, last, the one-line JSON result.
func (r *report) print(opt options) {
	defs, mode := endToEnd, "timed"
	if r.traced {
		defs, mode = perLayer, "traced"
	}
	fmt.Printf("# %s %s seed=%d seconds=%g scale=%g ops_sha256=%s\n", r.workload, mode, opt.seed, opt.seconds, opt.scale, r.opsSHA)
	fmt.Printf("# %-30s %-6s %16s %10s\n", "metric", "unit", "value", "samples")
	out := make(map[string]any, len(defs))
	for _, d := range defs {
		v := r.metrics[d.name]
		fmt.Printf("  %-30s %-6s %16.4f %10d\n", d.name, d.unit, v.v, v.samples)
		out[d.name] = map[string]any{"value": v.v, "unit": d.unit}
	}
	fmt.Printf("  %-30s %-6s %16d\n  %-30s %-6s %16d\n", "attempted", "count", r.attempted, "failed", "count", r.failed)
	for _, n := range r.notes {
		fmt.Printf("# %s\n", n)
	}
	for _, p := range r.problems {
		fmt.Printf("# INCORRECT %s\n", p)
	}
	line, err := json.Marshal(map[string]any{"correct": r.correct(), "attempted": r.attempted, "failed": r.failed, "metrics": out})
	if err != nil {
		panic(err) // only finite numbers and strings go in
	}
	fmt.Println(string(line))
}

// provenance says what produced the numbers.
func provenance(opt options) string {
	commit := "unknown" // go run stamps no VCS info, and the driver's checkout is no git repository
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				commit = kv.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); commit == "unknown" && err == nil {
		commit = strings.TrimSpace(string(out))
	}
	b, _ := json.Marshal(map[string]any{
		"commit": commit, "go": runtime.Version(), "nproc": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "seed": opt.seed,
	})
	return string(b)
}

func run(s spec, traced bool, opt options) (*report, error) {
	s = s.scaled(opt.scale)
	if traced {
		return runTraced(s, opt)
	}
	return runTimed(s, opt)
}

func main() {
	var (
		workload   = flag.String("workload", "all", "workload name, or all")
		seed       = flag.Uint64("seed", 1, "workload seed: the same seed gives the same op stream")
		seconds    = flag.Float64("seconds", defaultSeconds, "run length: fixes the measured op count at the workload's calls-per-second times this")
		trace      = flag.String("trace", "both", "0 = timed run (end-to-end metrics), 1 = traced run (per-layer metrics), both")
		traceOut   = flag.String("trace-out", ".bench_out/spans-{workload}.jsonl", "where a traced run writes its spans; empty = nowhere")
		scale      = flag.Float64("scale", 1, "shrinks key space and op counts; for the smoke test only")
		checkNoise = flag.Int("check-noise", 0, "run two sets of N timed runs per workload and compare their medians against the bounds")
	)
	flag.Parse()
	opt := options{seed: *seed, seconds: *seconds, scale: *scale, traceOut: *traceOut}
	if flag.NArg() > 0 || opt.seconds <= 0 || opt.scale <= 0 || !slices.Contains([]string{"0", "1", "both"}, *trace) {
		flag.Usage()
		os.Exit(2)
	}
	todo := specs
	if *workload != "all" {
		s, ok := specByName(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
			os.Exit(2)
		}
		todo = []spec{s}
	}
	fmt.Printf("# provenance %s\n", provenance(opt))
	if *checkNoise > 0 {
		if err := checkNoiseSets(todo, *checkNoise, opt); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	err := error(nil)
	for _, s := range todo {
		for _, traced := range []bool{false, true} {
			if (traced && *trace == "0") || (!traced && *trace == "1") {
				continue
			}
			rep, rerr := run(s, traced, opt)
			if rerr != nil {
				fmt.Fprintln(os.Stderr, rerr)
				os.Exit(1)
			}
			rep.print(opt)
			if !rep.correct() {
				err = errors.Join(err, fmt.Errorf("%s: %w", s.name, errIncorrect))
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// checkNoiseSets runs two sets of n timed runs per workload (seeds seed,
// seed+1, ... in each set) and compares, for every end-to-end metric, the
// two set medians against the metric's bound. It also prints each set's
// quartile spread, which should stay under a third of the bound.
func checkNoiseSets(todo []spec, n int, opt options) error {
	breaches := 0
	for _, s := range todo {
		var sets [2]map[string][]float64
		for set := range sets {
			sets[set] = make(map[string][]float64)
			for i := 0; i < n; i++ {
				o := opt
				o.seed = opt.seed + uint64(i)
				rep, err := run(s, false, o)
				if err != nil {
					return err
				}
				if !rep.correct() {
					rep.print(o)
					return fmt.Errorf("%s: %w", s.name, errIncorrect)
				}
				for _, d := range endToEnd {
					sets[set][d.name] = append(sets[set][d.name], rep.metrics[d.name].v)
				}
			}
		}
		fmt.Printf("# %s: two sets of %d runs\n# %-14s %14s %14s %9s %8s %9s %9s\n", s.name, n, "metric", "median A", "median B", "worse %", "bound %", "spread A%", "spread B%")
		for _, d := range endToEnd {
			a, b := median(sets[0][d.name]), median(sets[1][d.name])
			worse := 100 * (b - a) / a
			if d.better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > 100*d.bound {
				verdict = "  BREACH"
				breaches++
			}
			fmt.Printf("  %-14s %14.4f %14.4f %9.2f %8.1f %9.2f %9.2f%s\n", d.name, a, b, worse, 100*d.bound,
				spreadPct(sets[0][d.name]), spreadPct(sets[1][d.name]), verdict)
		}
	}
	if breaches > 0 {
		return fmt.Errorf("%d set medians differ by more than their bound", breaches)
	}
	return nil
}
