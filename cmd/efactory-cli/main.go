// Command efactory-cli is a client for efactory-server.
//
// Usage:
//
//	efactory-cli [-addr host:7420] put <key> <value>
//	efactory-cli [-addr host:7420] get <key>
//	efactory-cli [-addr host:7420] del <key>
//	efactory-cli [-addr host:7420] txn put <key>=<value> [<key>=<value> ...]
//	efactory-cli [-addr host:7420] txn get <key> [<key> ...]
//	efactory-cli [-addr host:7420] stats [-json]
//	efactory-cli [-addr host:7420] metrics [-json] [-cluster]
//	efactory-cli [-addr host:7420] top [-interval 1s] [-n 0] [-cluster]
//	efactory-cli [-addr host:7420] slow [-trace id] [-json]
//	efactory-cli [-addr host:7420] map [-json]
//	efactory-cli [-addr host:7420] migrate <pg> <target-instance>
//	efactory-cli [-addr host:7420] promote <dead-instance>
//	efactory-cli [-addr host:7420] bench [-n 10000] [-vlen 256] [-batch 1] [-getbatch 1] [-trace-sample 0] [-slow-ms 0]
//
// txn put commits every pair atomically (all keys become visible
// together, or none do — the commit is refused whole if any key is not
// owned by the addressed server); txn get reads every key at one
// consistent snapshot cut across shards.
//
// map prints the addressed server's current epoch-versioned cluster map
// (placement-group ownership and backup assignments per instance).
// migrate asks the addressed server — which must own the named placement
// group — to migrate it online to the target instance, and prints the
// cutover summary. promote asks the addressed server to fail over from a
// dead primary: it takes ownership of every placement group it backs up
// for that instance under a bumped map epoch, after settling its mirrored
// log tail.
//
// metrics prints the server's per-op latency histograms (merged across
// shards) and key gauges; -json dumps the raw telemetry snapshot. top
// refreshes a compact live view every interval (throughput from counter
// deltas, latency quantiles, durability lag); -n caps the number of
// refreshes (0 = until interrupted). With -cluster, metrics and top fan
// out over every instance in the addressed server's cluster map and
// merge the per-instance snapshots into one cluster-wide view. slow
// dumps the server's retained request traces (head-sampled at clients,
// tail-retained when slow, errored, wrong-epoch, or inside a migration
// window) as per-span timelines. bench drives a small closed-loop
// PUT/GET workload and prints achieved throughput and latency
// percentiles — wall-clock numbers over real TCP, not the simulation;
// -trace-sample N traces 1-in-N bench ops end to end.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"efactory/internal/obs"
	"efactory/internal/stats"
	"efactory/internal/tcpkv"
	"efactory/internal/trace"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7420", "server address")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}

	cl, err := tcpkv.Dial(*addr)
	if err != nil {
		fatal("connect: %v", err)
	}
	defer cl.Close()

	switch args[0] {
	case "put":
		if len(args) != 3 {
			usage()
		}
		if err := cl.Put([]byte(args[1]), []byte(args[2])); err != nil {
			fatal("put: %v", err)
		}
		fmt.Println("OK")
	case "get":
		if len(args) != 2 {
			usage()
		}
		val, err := cl.Get([]byte(args[1]))
		if errors.Is(err, tcpkv.ErrNotFound) {
			fatal("key not found")
		}
		if err != nil {
			fatal("get: %v", err)
		}
		fmt.Printf("%s\n", val)
	case "del":
		if len(args) != 2 {
			usage()
		}
		if err := cl.Delete([]byte(args[1])); err != nil {
			fatal("del: %v", err)
		}
		fmt.Println("OK")
	case "txn":
		if len(args) < 3 {
			usage()
		}
		switch args[1] {
		case "put":
			keys := make([][]byte, 0, len(args)-2)
			vals := make([][]byte, 0, len(args)-2)
			for _, pair := range args[2:] {
				k, v, ok := strings.Cut(pair, "=")
				if !ok || k == "" {
					fatal("txn put: want key=value, got %q", pair)
				}
				keys = append(keys, []byte(k))
				vals = append(vals, []byte(v))
			}
			id, err := cl.TxnCommit(keys, vals)
			if err != nil {
				fatal("txn put: %v", err)
			}
			fmt.Printf("committed txn %d (%d keys)\n", id, len(keys))
		case "get":
			keys := make([][]byte, len(args)-2)
			for i, a := range args[2:] {
				keys[i] = []byte(a)
			}
			vals, errs := cl.TxnRead(keys)
			for i := range keys {
				switch {
				case errors.Is(errs[i], tcpkv.ErrNotFound):
					fmt.Printf("%s: (not found)\n", keys[i])
				case errs[i] != nil:
					fatal("txn get %s: %v", keys[i], errs[i])
				default:
					fmt.Printf("%s: %s\n", keys[i], vals[i])
				}
			}
		default:
			usage()
		}
	case "stats":
		fs := flag.NewFlagSet("stats", flag.ExitOnError)
		asJSON := fs.Bool("json", false, "emit JSON")
		fs.Parse(args[1:])
		runStats(cl, *asJSON)
	case "metrics":
		fs := flag.NewFlagSet("metrics", flag.ExitOnError)
		asJSON := fs.Bool("json", false, "dump the raw telemetry snapshot as JSON")
		clusterWide := fs.Bool("cluster", false, "fan out over every instance in the cluster map and merge")
		fs.Parse(args[1:])
		runMetrics(cl, *asJSON, *clusterWide)
	case "top":
		fs := flag.NewFlagSet("top", flag.ExitOnError)
		interval := fs.Duration("interval", time.Second, "refresh period")
		iters := fs.Int("n", 0, "number of refreshes (0 = until interrupted)")
		clusterWide := fs.Bool("cluster", false, "fan out over every instance in the cluster map and merge")
		fs.Parse(args[1:])
		runTop(cl, *interval, *iters, *clusterWide)
	case "slow":
		fs := flag.NewFlagSet("slow", flag.ExitOnError)
		id := fs.Uint64("trace", 0, "filter to one trace ID (0 = all retained traces)")
		asJSON := fs.Bool("json", false, "emit raw JSON")
		fs.Parse(args[1:])
		runSlow(cl, *id, *asJSON)
	case "map":
		fs := flag.NewFlagSet("map", flag.ExitOnError)
		asJSON := fs.Bool("json", false, "emit JSON")
		fs.Parse(args[1:])
		runMap(cl, *asJSON)
	case "migrate":
		if len(args) != 3 {
			usage()
		}
		pg, err := strconv.Atoi(args[1])
		if err != nil {
			fatal("migrate: bad placement group %q", args[1])
		}
		sum, err := cl.MigrateRPC(pg, args[2])
		if err != nil {
			fatal("migrate: %v", err)
		}
		fmt.Printf("migrated pg %d to %q: map epoch %d, %d snapshot + %d drained + %d blocked keys, %d purged, blocked for %s\n",
			sum.PG, sum.Target, sum.Epoch,
			sum.SnapshotKeys, sum.DrainKeys, sum.BlockedKeys, sum.Purged, sum.BlockedFor)
	case "promote":
		if len(args) != 2 {
			usage()
		}
		epoch, err := cl.PromoteRPC(args[1])
		if err != nil {
			fatal("promote: %v", err)
		}
		fmt.Printf("promoted: took over every pg backed up for %q, map epoch now %d\n", args[1], epoch)
	case "bench":
		fs := flag.NewFlagSet("bench", flag.ExitOnError)
		n := fs.Int("n", 10000, "operations")
		vlen := fs.Int("vlen", 256, "value size in bytes")
		batch := fs.Int("batch", 1, "keys per multi-op PUT batch (1 = plain Put)")
		getBatch := fs.Int("getbatch", 1, "keys per multi-GET batch (1 = plain Get)")
		traceSample := fs.Int("trace-sample", 0, "trace 1 in N ops end to end (0 = tracing off)")
		slowMS := fs.Int("slow-ms", 0, "client-side tail retention: keep only traces at least this slow (0 = keep every sampled trace)")
		fs.Parse(args[1:])
		runBench(cl, *n, *vlen, *batch, *getBatch, *traceSample, *slowMS)
	default:
		usage()
	}
}

// runMap prints the server's current cluster map: epoch, instances, and
// which placement groups each instance owns.
func runMap(cl *tcpkv.Client, asJSON bool) {
	m, err := cl.ClusterMapRPC()
	if err != nil {
		fatal("map: %v (is clustering enabled? start the server with -instance)", err)
	}
	if asJSON {
		blob, err := json.MarshalIndent(m, "", "  ")
		if err != nil {
			fatal("map: %v", err)
		}
		fmt.Println(string(blob))
		return
	}
	fmt.Printf("epoch %d, %d placement groups, %d instances\n", m.Epoch, m.PGs, len(m.Instances))
	owned := make(map[string][]string)
	backs := make(map[string][]string)
	for pg, name := range m.Assign {
		owned[name] = append(owned[name], fmt.Sprintf("%d", pg))
		for _, b := range m.BackupsFor(pg) {
			backs[b] = append(backs[b], fmt.Sprintf("%d", pg))
		}
	}
	for _, in := range m.Instances {
		pgs := "-"
		if len(owned[in.Name]) > 0 {
			pgs = strings.Join(owned[in.Name], ",")
		}
		line := fmt.Sprintf("  %-12s %-21s pgs %s", in.Name, in.Addr, pgs)
		if len(backs[in.Name]) > 0 {
			line += fmt.Sprintf("  (backup for pgs %s)", strings.Join(backs[in.Name], ","))
		}
		fmt.Println(line)
	}
}

func runStats(cl *tcpkv.Client, asJSON bool) {
	st, err := cl.ServerStats()
	if err != nil {
		fatal("stats: %v", err)
	}
	// Per-shard breakdown; older servers reject the request, which is
	// not worth failing the whole command over.
	per, perErr := cl.ShardStats()
	if asJSON {
		out := struct {
			Total  tcpkv.Stats   `json:"total"`
			Shards []tcpkv.Stats `json:"shards,omitempty"`
		}{Total: st}
		if perErr == nil {
			out.Shards = per
		}
		blob, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fatal("stats: %v", err)
		}
		fmt.Println(string(blob))
		return
	}
	fmt.Printf("total: %+v\n", st)
	if perErr == nil && len(per) > 1 {
		for i, s := range per {
			fmt.Printf("shard %d: %+v\n", i, s)
		}
	}
}

// snapshotFetcher returns a function fetching one telemetry snapshot:
// from the addressed server alone, or — with clusterWide — merged across
// every instance in its cluster map via obs.MergeSnapshots. Fan-out
// connections are dialed per call so top keeps working while instances
// come and go; an unreachable instance is skipped with a note on stderr.
func snapshotFetcher(cl *tcpkv.Client, clusterWide bool) func() (obs.Snapshot, error) {
	if !clusterWide {
		return cl.Metrics
	}
	return func() (obs.Snapshot, error) {
		m, err := cl.ClusterMapRPC()
		if err != nil {
			return obs.Snapshot{}, fmt.Errorf("cluster map: %w (is clustering enabled? start the server with -instance)", err)
		}
		var snaps []obs.Snapshot
		for _, in := range m.Instances {
			pc, err := tcpkv.Dial(in.Addr)
			if err != nil {
				fmt.Fprintf(os.Stderr, "cluster: skipping %s (%s): %v\n", in.Name, in.Addr, err)
				continue
			}
			snap, err := pc.Metrics()
			pc.Close()
			if err != nil {
				fmt.Fprintf(os.Stderr, "cluster: skipping %s (%s): %v\n", in.Name, in.Addr, err)
				continue
			}
			snaps = append(snaps, snap)
		}
		if len(snaps) == 0 {
			return obs.Snapshot{}, fmt.Errorf("no reachable instances in the %d-instance map", len(m.Instances))
		}
		return obs.MergeSnapshots(snaps...), nil
	}
}

func runMetrics(cl *tcpkv.Client, asJSON, clusterWide bool) {
	snap, err := snapshotFetcher(cl, clusterWide)()
	if err != nil {
		fatal("metrics: %v", err)
	}
	if asJSON {
		blob, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			fatal("metrics: %v", err)
		}
		fmt.Println(string(blob))
		return
	}
	printMetrics(os.Stdout, snap)
}

// printMetrics renders the cross-shard latency table and key gauges.
func printMetrics(w *os.File, snap obs.Snapshot) {
	fmt.Fprintf(w, "%-12s %10s %10s %10s %10s %10s\n", "op", "count", "p50", "p99", "p99.9", "mean")
	for _, op := range snap.Ops {
		h := snap.MergedOp(op)
		if h.Count == 0 {
			continue
		}
		fmt.Fprintf(w, "%-12s %10d %10s %10s %10s %10s\n", op, h.Count,
			fmtNS(h.Quantile(0.5)), fmtNS(h.Quantile(0.99)), fmtNS(h.Quantile(0.999)), fmtNS(h.Mean()))
	}
	fmt.Fprintln(w)
	for _, name := range []string{
		"efactory_pool_occupancy", "efactory_table_load",
		"efactory_durability_lag_bytes", "efactory_durability_lag_oldest_ns",
		"efactory_cleaning",
	} {
		if v, ok := snap.GaugeValue(name); ok {
			fmt.Fprintf(w, "%-34s %g\n", name, v)
		}
	}
	fmt.Fprintf(w, "%-34s %d\n", "trace_events_total", snap.TraceTotal)
}

// counterSum sums every counter named name whose labels include want.
func counterSum(snap obs.Snapshot, name string, want map[string]string) float64 {
	var total float64
	for _, c := range snap.Counters {
		if c.Name != name {
			continue
		}
		match := true
		for k, v := range want {
			if c.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			total += c.Value
		}
	}
	return total
}

func runTop(cl *tcpkv.Client, interval time.Duration, iters int, clusterWide bool) {
	fetch := snapshotFetcher(cl, clusterWide)
	prev, err := fetch()
	if err != nil {
		fatal("top: %v", err)
	}
	prevT := time.Now()
	for i := 0; iters == 0 || i < iters; i++ {
		time.Sleep(interval)
		snap, err := fetch()
		if err != nil {
			fatal("top: %v", err)
		}
		now := time.Now()
		dt := now.Sub(prevT).Seconds()
		var b strings.Builder
		fmt.Fprintf(&b, "efactory top — %s  (refresh %v)\n\n", now.Format("15:04:05"), interval)
		fmt.Fprintf(&b, "%-6s %12s %12s %12s\n", "op", "ops/s", "p50", "p99")
		for _, op := range []string{"put", "get", "del"} {
			rate := (counterSum(snap, "efactory_ops_total", map[string]string{"op": op}) -
				counterSum(prev, "efactory_ops_total", map[string]string{"op": op})) / dt
			h := snap.MergedOp(op)
			fmt.Fprintf(&b, "%-6s %12.0f %12s %12s\n", op, rate,
				fmtNS(h.Quantile(0.5)), fmtNS(h.Quantile(0.99)))
		}
		fmt.Fprintln(&b)
		occ, _ := snap.GaugeValue("efactory_pool_occupancy")
		load, _ := snap.GaugeValue("efactory_table_load")
		shards := len(snap.Shards)
		if shards > 0 {
			occ /= float64(shards)
			load /= float64(shards)
		}
		lagB, _ := snap.GaugeValue("efactory_durability_lag_bytes")
		lagNS, _ := snap.GaugeValue("efactory_durability_lag_oldest_ns")
		cleaning, _ := snap.GaugeValue("efactory_cleaning")
		fmt.Fprintf(&b, "shards %d   pool occupancy %.1f%%   table load %.1f%%   cleaning %g\n",
			shards, occ*100, load*100, cleaning)
		fmt.Fprintf(&b, "durability lag: %.0f B backlog, oldest %s\n",
			lagB, fmtNS(lagNS))
		bgRate := (counterSum(snap, "efactory_bg_objects_total", map[string]string{"outcome": "verified"}) -
			counterSum(prev, "efactory_bg_objects_total", map[string]string{"outcome": "verified"})) / dt
		fmt.Fprintf(&b, "bg verified: %.0f obj/s   trace events: %d\n", bgRate, snap.TraceTotal)
		// Clear screen + home, then one frame.
		fmt.Print("\x1b[2J\x1b[H" + b.String())
		prev, prevT = snap, now
	}
}

// runSlow prints the server's retained request traces (TTraceDump RPC):
// one header line per trace plus its per-span timeline.
func runSlow(cl *tcpkv.Client, id uint64, asJSON bool) {
	traces, err := cl.TraceDump(id)
	if err != nil {
		fatal("slow: %v", err)
	}
	if asJSON {
		blob, err := json.MarshalIndent(traces, "", "  ")
		if err != nil {
			fatal("slow: %v", err)
		}
		fmt.Println(string(blob))
		return
	}
	if len(traces) == 0 {
		fmt.Println("(no retained traces)")
		return
	}
	for _, tr := range traces {
		fmt.Printf("trace %x kept=%s (%d spans)\n%s", tr.ID, tr.Why, len(tr.Spans), trace.Timeline(tr.Spans))
	}
}

// fmtNS renders nanoseconds with time.Duration's adaptive unit.
func fmtNS(ns float64) string {
	return time.Duration(ns).Round(10 * time.Nanosecond).String()
}

func runBench(cl *tcpkv.Client, n, vlen, batch, getBatch, traceSample, slowMS int) {
	if traceSample > 0 {
		cl.EnableTracing(traceSample, uint64(slowMS)*1e6)
	}
	if batch < 1 {
		batch = 1
	}
	if getBatch < 1 {
		getBatch = 1
	}
	val := make([]byte, vlen)
	for i := range val {
		val[i] = byte(i)
	}
	var putLat, getLat stats.Recorder
	t0 := time.Now()
	if batch > 1 {
		keys := make([][]byte, batch)
		vals := make([][]byte, batch)
		for i := 0; i < n; i += batch {
			m := batch
			if n-i < m {
				m = n - i
			}
			for j := 0; j < m; j++ {
				keys[j] = []byte(fmt.Sprintf("bench-%d", (i+j)%1024))
				vals[j] = val
			}
			s := time.Now()
			for _, err := range cl.PutBatch(keys[:m], vals[:m]) {
				if err != nil {
					fatal("bench put batch: %v", err)
				}
			}
			per := time.Since(s) / time.Duration(m)
			for j := 0; j < m; j++ {
				putLat.Record(per)
			}
		}
	} else {
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("bench-%d", i%1024)
			s := time.Now()
			if err := cl.Put([]byte(key), val); err != nil {
				fatal("bench put: %v", err)
			}
			putLat.Record(time.Since(s))
		}
	}
	putDur := time.Since(t0)
	t0 = time.Now()
	if getBatch > 1 {
		keys := make([][]byte, getBatch)
		for i := 0; i < n; i += getBatch {
			m := getBatch
			if n-i < m {
				m = n - i
			}
			for j := 0; j < m; j++ {
				keys[j] = []byte(fmt.Sprintf("bench-%d", (i+j)%1024))
			}
			s := time.Now()
			_, errs := cl.GetBatch(keys[:m])
			for _, err := range errs {
				if err != nil {
					fatal("bench get batch: %v", err)
				}
			}
			per := time.Since(s) / time.Duration(m)
			for j := 0; j < m; j++ {
				getLat.Record(per)
			}
		}
	} else {
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("bench-%d", i%1024)
			s := time.Now()
			if _, err := cl.Get([]byte(key)); err != nil {
				fatal("bench get: %v", err)
			}
			getLat.Record(time.Since(s))
		}
	}
	getDur := time.Since(t0)
	fmt.Printf("PUT: %d ops in %v (%.0f ops/s, p50/p99/p99.9 %v/%v/%v)\n",
		n, putDur, float64(n)/putDur.Seconds(),
		putLat.Median(), putLat.P99(), putLat.P999())
	fmt.Printf("GET: %d ops in %v (%.0f ops/s, p50/p99/p99.9 %v/%v/%v, %d pure / %d hinted / %d fallback)\n",
		n, getDur, float64(n)/getDur.Seconds(),
		getLat.Median(), getLat.P99(), getLat.P999(),
		cl.PureReads, cl.HintedReads, cl.FallbackReads)
	if tr := cl.Tracer(); tr != nil {
		fmt.Printf("traces: %d retained client-side (efactory-cli slow for the server's view)\n", tr.Retained())
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: efactory-cli [-addr host:port] put|get|del|txn|stats|metrics|top|slow|map|migrate|promote|bench ...")
	os.Exit(2)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
