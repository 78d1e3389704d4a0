package bench

// Crash-point torture as a bench "figure": not a performance number but
// a correctness matrix — every transport's harness swept over seeds and
// crash boundaries, each run recovered and checked against the
// durability oracle. Wired into cmd/efactory-bench (-fig torture) and
// cmd/efactory-torture so CI and operators share one entry point.

import (
	"fmt"
	"io"

	"efactory/internal/efactory"
	"efactory/internal/fault"
	"efactory/internal/tcpkv"
)

// tcpPointsCap bounds a "sweep everything" request on the wall-clock
// transports (tcp, mig, failover): each of their runs costs real sockets,
// file I/O, and a server restart or promotion, so an every-boundary sweep
// (thousands of runs) is not viable there.
const tcpPointsCap = 12

// clusterPoolFloor is the smallest pool the cluster runners sweep with
// (the size their tests use): below it the workload fills the backup
// until it answers StFull and is demoted — ROADMAP item 2's bug, not
// this sweep's subject.
const clusterPoolFloor = 256 << 10

// TortureSpec parameterizes a torture sweep across transports.
type TortureSpec struct {
	Transports []string // any of "store", "sim", "tcp", "mig", "failover"
	Seeds      []uint64
	Points     int // crash points per seed; <= 0 sweeps every boundary (capped for tcp)
	Ops        int // workload length per run
	Keys       int // hot keyset size (0 = harness default)
	BGBatch    int // background verification batch size (<= 1: per-object)
	Survival   float64
	GetBatch   bool // also sweep a leg whose GETs go through batched multi-GET + hint cache
	Txn        bool // also sweep a leg with multi-key commits and snapshot reads
}

// DefaultTortureSpec returns the sweep shape used by -fig torture: quick
// is the CI smoke matrix, full sweeps every boundary on the deterministic
// transports.
func DefaultTortureSpec(quick bool) TortureSpec {
	if quick {
		return TortureSpec{
			Transports: []string{"store", "sim", "tcp"},
			Seeds:      []uint64{1, 2},
			Points:     25,
			Ops:        40,
			GetBatch:   true,
			Txn:        true,
		}
	}
	return TortureSpec{
		Transports: []string{"store", "sim", "tcp"},
		Seeds:      []uint64{1, 2, 3},
		Points:     0, // every boundary (store, sim); tcp capped
		Ops:        60,
		GetBatch:   true,
		Txn:        true,
	}
}

// tortureRunner resolves a transport name to its Runner; wallClock marks
// the runners over real sockets, whose runs are neither cheap nor
// bit-reproducible.
func tortureRunner(transport string) (run fault.Runner, wallClock, ok bool) {
	switch transport {
	case "store":
		return fault.RunStore, false, true
	case "sim":
		return efactory.RunSimTorture, false, true
	case "tcp":
		return tcpkv.RunTCPTorture, true, true
	case "mig":
		return tcpkv.RunMigrationTorture, true, true
	case "failover":
		return tcpkv.RunFailoverTorture, true, true
	}
	return nil, false, false
}

// Torture runs the sweep matrix and prints one row per transport. It
// returns the total number of oracle violations (0 = every crash point on
// every transport recovered to a state consistent with the acked
// history); an unknown transport or a harness error counts as a
// violation so callers can exit nonzero on it.
func Torture(w io.Writer, spec TortureSpec) int {
	cfg := fault.Config{Ops: spec.Ops, Keys: spec.Keys, BGBatch: spec.BGBatch, Survival: spec.Survival}
	if spec.Ops > 0 {
		// Trigger cleaning a couple of times inside the shortened workload.
		cfg.CleanEvery = spec.Ops/3 + 1
	}
	fmt.Fprintf(w, "Crash-point torture: seeds=%v ops=%d bg-batch=%d survival=%.2f\n", spec.Seeds, spec.Ops, spec.BGBatch, spec.Survival)
	fmt.Fprintf(w, "%-12s %6s %-14s %s\n", "transport", "runs", "boundaries", "violations")
	total := 0
	for _, tr := range spec.Transports {
		run, wallClock, ok := tortureRunner(tr)
		if !ok {
			fmt.Fprintf(w, "%-12s unknown transport\n", tr)
			total++
			continue
		}
		points := spec.Points
		if wallClock && (points <= 0 || points > tcpPointsCap) {
			fmt.Fprintf(w, "(%s: capping sweep at %d points per seed — wall-clock runs)\n", tr, tcpPointsCap)
			points = tcpPointsCap
		}
		cfg := cfg
		if tr == "mig" || tr == "failover" {
			cfg.PoolSize = max(cfg.PoolSize, clusterPoolFloor)
		}
		legs := []struct {
			label string
			cfg   fault.Config
		}{{tr, cfg}}
		if spec.GetBatch {
			gb := cfg
			gb.GetBatch = true
			legs = append(legs, struct {
				label string
				cfg   fault.Config
			}{tr + "+gb", gb})
		}
		if spec.Txn {
			tx := cfg
			tx.Txn = true
			legs = append(legs, struct {
				label string
				cfg   fault.Config
			}{tr + "+txn", tx})
		}
		for _, leg := range legs {
			sr, err := fault.Sweep(run, leg.cfg, spec.Seeds, points)
			if err != nil {
				fmt.Fprintf(w, "%-12s harness error after %d runs: %v\n", leg.label, sr.Runs, err)
				total++
				continue
			}
			// Sprint first: a width verb on a slice pads every element.
			fmt.Fprintf(w, "%-12s %6d %-14s %d\n", leg.label, sr.Runs, fmt.Sprint(sr.Boundaries), len(sr.Violations))
			for _, v := range sr.Violations {
				fmt.Fprintf(w, "  VIOLATION [%s] %s\n", leg.label, v)
			}
			total += len(sr.Violations)
		}
	}
	if total == 0 {
		fmt.Fprintln(w, "all crash points recovered consistently")
	}
	return total
}
