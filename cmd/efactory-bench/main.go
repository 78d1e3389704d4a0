// Command efactory-bench regenerates the paper's evaluation figures
// (Figures 1, 2, 9a-9d, 10, 11 of Du et al., ICPP 2021) from the
// deterministic simulation and prints each as a table.
//
// Usage:
//
//	efactory-bench [-fig 1|2|9a|9b|9c|9d|9|10|11|batch|getbatch|trace|txn|all|rebalance|failover|torture] [-scale quick|full] [-jsondir dir]
//
// all runs every figure up to txn; rebalance, failover and torture run
// only when named. Full scale matches the experiment sizes used for
// EXPERIMENTS.md; quick scale is the same harness at smoke-test sizes.
// With -jsondir set, each figure's raw results — including the full
// log-spaced latency histogram per configuration and the engine telemetry
// snapshot for eFactory runs — are written to <dir>/BENCH_<fig>.json
// alongside the printed tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"efactory/internal/bench"
	"efactory/internal/model"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 1, 2, 9a-9d, 9, 10, 11, batch, getbatch, trace, txn, all, rebalance, failover, or torture")
	scale := flag.String("scale", "full", "experiment scale: quick or full")
	jsondir := flag.String("jsondir", "", "write each figure's raw results as BENCH_<fig>.json in this directory")
	flag.Parse()

	var sc bench.Scale
	switch *scale {
	case "quick":
		sc = bench.QuickScale()
	case "full":
		sc = bench.FullScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}
	par := model.Default()

	run := func(name string, fn func()) {
		t0 := time.Now()
		fn()
		fmt.Printf("(%s regenerated in %.1fs wall time)\n\n", name, time.Since(t0).Seconds())
	}
	save := func(key string, rs []bench.Result) {
		if *jsondir == "" {
			return
		}
		if err := os.MkdirAll(*jsondir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "jsondir: %v\n", err)
			os.Exit(1)
		}
		path := filepath.Join(*jsondir, "BENCH_"+key+".json")
		blob, err := json.MarshalIndent(rs, "", " ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "encode %s: %v\n", path, err)
			os.Exit(1)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", path, err)
			os.Exit(1)
		}
		fmt.Printf("(results saved to %s)\n", path)
	}

	any := false
	want := func(names ...string) bool {
		for _, n := range names {
			if *fig == n {
				any = true
				return true
			}
		}
		if *fig == "all" {
			any = true
			return true
		}
		return false
	}

	if want("1") {
		run("figure 1", func() { save("fig1", bench.Fig1(os.Stdout, &par, sc)) })
	}
	if want("2") {
		run("figure 2", func() { save("fig2", bench.Fig2(os.Stdout, &par, sc)) })
	}
	for i, sub := range []string{"9a", "9b", "9c", "9d"} {
		i, sub := i, sub
		if want(sub, "9") {
			run("figure "+sub, func() { save("fig"+sub, bench.Fig9(os.Stdout, &par, sc, i)) })
		}
	}
	if want("10") {
		run("figure 10", func() { save("fig10", bench.Fig10(os.Stdout, &par, sc)) })
	}
	if want("11") {
		run("figure 11", func() { save("fig11", bench.Fig11(os.Stdout, &par, sc)) })
	}
	if want("batch") {
		run("batch coalescing", func() { save("batch", bench.FigBatch(os.Stdout, &par, sc)) })
	}
	if want("getbatch") {
		run("multi-GET sweep", func() { save("getbatch", bench.FigGetBatch(os.Stdout, &par, sc)) })
	}
	if want("trace") {
		run("tracing overhead", func() { save("trace", bench.FigTrace(os.Stdout, &par, sc)) })
	}
	if want("txn") {
		run("txn commit sweep", func() { save("txn", bench.FigTxn(os.Stdout, &par, sc)) })
	}
	if *fig == "rebalance" {
		any = true
		run("rebalance", func() {
			rs, err := bench.FigRebalance(os.Stdout, bench.DefaultRebalanceSpec(*scale == "quick"))
			if err != nil {
				fmt.Fprintf(os.Stderr, "rebalance: %v\n", err)
				os.Exit(1)
			}
			save("rebalance", rs)
		})
	}
	if *fig == "failover" {
		any = true
		run("failover", func() {
			rs, err := bench.FigFailover(os.Stdout, bench.DefaultFailoverSpec(*scale == "quick"))
			if err != nil {
				fmt.Fprintf(os.Stderr, "failover: %v\n", err)
				os.Exit(1)
			}
			save("failover", rs)
		})
	}
	if *fig == "torture" {
		any = true
		violations := 0
		run("torture sweep", func() { violations = bench.Torture(os.Stdout, bench.DefaultTortureSpec(*scale == "quick")) })
		if violations > 0 {
			os.Exit(1)
		}
	}
	if !any {
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
		os.Exit(2)
	}
}
