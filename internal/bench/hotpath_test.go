package bench

import (
	"io"
	"testing"

	"efactory/internal/model"
)

// TestHotpathAdaptiveMatchesBestStatic is the figure's acceptance claim,
// checked deterministically at quick scale: across every arrival leg the
// load-adaptive dispatcher's throughput stays within a small tolerance of
// the best static batch width for that leg, and on the bursty leg —
// where no single static width fits both the burst and the idle window —
// it strictly beats the unbatched static default.
func TestHotpathAdaptiveMatchesBestStatic(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulated sweep")
	}
	par := model.Default()
	results := FigHotpath(io.Discard, &par, QuickScale())

	byLeg := map[string]map[int]Result{} // leg -> static width -> result
	adaptive := map[string]Result{}
	for _, r := range results {
		if r.Adaptive {
			adaptive[r.Leg] = r
			continue
		}
		if byLeg[r.Leg] == nil {
			byLeg[r.Leg] = map[int]Result{}
		}
		byLeg[r.Leg][r.Batch] = r
	}

	for leg, statics := range byLeg {
		ad, ok := adaptive[leg]
		if !ok {
			t.Fatalf("leg %s: no adaptive run in figure output", leg)
		}
		best := 0.0
		bestW := 0
		for w, r := range statics {
			if r.Mops > best {
				best, bestW = r.Mops, w
			}
		}
		if ad.Mops < 0.95*best {
			t.Errorf("leg %s: adaptive %.3f Mops < 95%% of best static (width %d, %.3f Mops)",
				leg, ad.Mops, bestW, best)
		}
	}

	// The bursty leg is the one the controller exists for: static width 1
	// drowns in per-op rounds during each burst, while wide static widths
	// pay linger during the idle tail. Adaptive must clearly beat the
	// unbatched default there, not just match it.
	bursty := adaptive["uniform/bursty"]
	w1 := byLeg["uniform/bursty"][1]
	if bursty.Mops < 1.2*w1.Mops {
		t.Errorf("bursty leg: adaptive %.3f Mops not >= 1.2x static width 1 (%.3f Mops)",
			bursty.Mops, w1.Mops)
	}
	if bursty.Batch <= 1 {
		t.Errorf("bursty leg: adaptive controller never grew past width %d", bursty.Batch)
	}
}

// TestHotpathDeterministic pins the sim-reproducibility contract the
// figure relies on: the same seed and scale give bit-identical results.
func TestHotpathDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two simulated runs")
	}
	par := model.Default()
	leg := hotpathLegs()[0]
	sc := QuickScale()
	a := RunHotpath(&par, leg, 0, 64, 400, sc, 7)
	b := RunHotpath(&par, leg, 0, 64, 400, sc, 7)
	if a.Mops != b.Mops || a.Elapsed != b.Elapsed || a.P99 != b.P99 {
		t.Fatalf("adaptive hotpath run not deterministic: %+v vs %+v", a, b)
	}
}

// TestBatchWidthBurstGrowth: a standing backlog drives the width to its cap
// within a handful of rounds (multiplicative growth).
func TestBatchWidthBurstGrowth(t *testing.T) {
	var b batchWidth
	for rounds := 1; b.observe(512) < hotpathMaxWidth; rounds++ {
		if rounds >= 6 {
			t.Fatalf("width %d after %d rounds, want the cap %d within 6 (multiplicative growth)", b.width, rounds, hotpathMaxWidth)
		}
	}
}

// TestBatchWidthDecayDamped: a lull shorter than the decay streak does not
// shrink the width (a gap inside a burst), but a sustained idle run walks
// it back down to 1.
func TestBatchWidthDecayDamped(t *testing.T) {
	var b batchWidth
	for i := 0; i < 8; i++ {
		b.observe(512)
	}
	for i := 0; i < widthDecayStreak-1; i++ {
		if w := b.observe(0); w != hotpathMaxWidth {
			t.Fatalf("width decayed to %d after a %d-round lull, want %d", w, i+1, hotpathMaxWidth)
		}
	}
	if w := b.observe(576); w != hotpathMaxWidth {
		t.Fatalf("width=%d after pressure resumed, want %d", w, hotpathMaxWidth)
	}
	for i := 0; i < 64; i++ {
		b.observe(0)
	}
	if b.width != 1 {
		t.Fatalf("width=%d after sustained idle, want 1", b.width)
	}
}

// TestBatchWidthSteadyStateHolds: a queue matching the current width
// neither grows nor decays it.
func TestBatchWidthSteadyStateHolds(t *testing.T) {
	var b batchWidth
	for i := 0; i < 6; i++ {
		b.observe(256)
	}
	w := b.width
	for i := 0; i < 100; i++ {
		if got := b.observe(w); got != w {
			t.Fatalf("width drifted from %d to %d under steady load", w, got)
		}
	}
}

// TestBatchWidthClamps: no backlog grows the width past hotpathMaxWidth,
// and no idle run shrinks it below 1.
func TestBatchWidthClamps(t *testing.T) {
	var b batchWidth
	for i := 0; i < 32; i++ {
		if w := b.observe(1 << 20); w > hotpathMaxWidth {
			t.Fatalf("width %d past the cap %d", w, hotpathMaxWidth)
		}
	}
	for i := 0; i < 256; i++ {
		if w := b.observe(0); w < 1 {
			t.Fatalf("width %d below 1", w)
		}
	}
	if b.width != 1 {
		t.Fatalf("width=%d after a long idle run, want the floor 1", b.width)
	}
}
