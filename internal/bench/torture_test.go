package bench

import (
	"slices"
	"testing"

	"efactory/internal/fault"
)

// TestTortureRowsPinned pins the deterministic rows of
//
//	efactory-torture -transport store|sim -seeds 2 -points 25 -ops 30
//
// Every leg must recover every crash point, and each seed's boundary
// count — every charge, flush and drain of the workload — must stay as
// measured: a change that adds, drops or moves one on a write path moves
// these lists. The +rec legs run the plain workload, so their counts are
// the plain legs'; what they add is a crash inside each recovery.
func TestTortureRowsPinned(t *testing.T) {
	want := map[string][]int64{
		"store": {365, 333}, "store+gb": {457, 376}, "store+txn": {725, 684}, "store+rec": {365, 333},
		"sim": {424, 407}, "sim+gb": {473, 384}, "sim+txn": {910, 827}, "sim+rec": {424, 407},
	}
	spec := TortureSpec{Seeds: []uint64{1, 2}, Points: 25, Ops: 30, GetBatch: true, Txn: true}
	for _, tr := range []string{"store", "sim"} {
		run, _, _ := tortureRunner(tr)
		for _, leg := range tortureLegs(tr, spec) {
			sr, err := fault.Sweep(run, leg.cfg, spec.Seeds, spec.Points)
			if err != nil {
				t.Errorf("%s: harness error after %d runs: %v", leg.label, sr.Runs, err)
				continue
			}
			for _, v := range sr.Violations {
				t.Errorf("%s: %s", leg.label, v)
			}
			if !slices.Equal(sr.Boundaries, want[leg.label]) {
				t.Errorf("%s boundaries = %v, want %v", leg.label, sr.Boundaries, want[leg.label])
			}
		}
	}
}
