// Command efactory-torture sweeps deterministic crash points across the
// engine's transports and checks every recovered image against the
// durability oracle: acked-durable data survives bit-exactly, deleted
// keys stay deleted, no torn value is ever served, versions never go
// backwards.
//
// Usage:
//
//	efactory-torture [-transport store|sim|tcp|all|mig|failover] [-seeds n]
//	                 [-points k] [-ops n] [-keys n] [-survival f]
//	                 [-get-batch] [-txn]
//
// "all" is store + sim + tcp. The store and sim runners also sweep a +rec
// row: the plain workload, with each crash image's first recovery itself
// crashed at up to 8 of its own boundaries before the image is recovered
// again and checked. mig and failover replay the two-instance
// cluster runners (online migration with a source crash; primary death
// and promotion at RF=2) over the same seeded schedule. -points <= 0
// sweeps every boundary (store and sim only; the wall-clock runners are
// capped). Exits 1 if any crash point leaves the store in a state
// inconsistent with the acknowledged history.
package main

import (
	"flag"
	"fmt"
	"os"

	"efactory/internal/bench"
)

func main() {
	transport := flag.String("transport", "all", "runner to torture: store, sim, tcp, all (those three), or the cluster runners mig, failover")
	seeds := flag.Int("seeds", 3, "number of workload seeds (1..n)")
	points := flag.Int("points", 0, "crash points per seed (<= 0 = every boundary; wall-clock runners are capped)")
	ops := flag.Int("ops", 60, "workload length per run")
	keys := flag.Int("keys", 0, "hot keyset size (0 = harness default)")
	survival := flag.Float64("survival", 0, "fraction of unflushed dirty lines surviving each crash (0 = strict power failure)")
	getBatch := flag.Bool("get-batch", true, "also sweep a leg whose GETs go through batched multi-GET + hint cache")
	txnLeg := flag.Bool("txn", true, "also sweep a leg with multi-key transactional commits and snapshot reads")
	flag.Parse()

	spec := bench.TortureSpec{
		Points:   *points,
		Ops:      *ops,
		Keys:     *keys,
		Survival: *survival,
		GetBatch: *getBatch,
		Txn:      *txnLeg,
	}
	switch *transport {
	case "all":
		spec.Transports = []string{"store", "sim", "tcp"}
	case "store", "sim", "tcp", "mig", "failover":
		spec.Transports = []string{*transport}
	default:
		fmt.Fprintf(os.Stderr, "unknown transport %q\n", *transport)
		os.Exit(2)
	}
	if *seeds < 1 {
		fmt.Fprintln(os.Stderr, "-seeds must be >= 1")
		os.Exit(2)
	}
	for s := 1; s <= *seeds; s++ {
		spec.Seeds = append(spec.Seeds, uint64(s))
	}

	if bench.Torture(os.Stdout, spec) > 0 {
		os.Exit(1)
	}
}
