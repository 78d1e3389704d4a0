package bench

import (
	"fmt"
	"io"
	"math/rand/v2"
	"time"

	"efactory/internal/efactory"
	"efactory/internal/model"
	"efactory/internal/sim"
	"efactory/internal/stats"
	"efactory/internal/ycsb"
)

// HotpathWidths is the static PutBatch sweep the adaptive dispatcher is
// judged against: unbatched, the mid knee, and the widest batch.
var HotpathWidths = []int{1, 8, 64}

// The adaptive dispatcher's width bound and decay damping (see batchWidth).
const (
	hotpathMaxWidth  = 64
	widthDecayStreak = 4
)

// batchWidth is the adaptive dispatcher's AIMD law for the PutBatch width.
// It starts at 1, so an idle client pays no batching latency until load
// proves otherwise. A queue of at least twice the width doubles it, up to
// hotpathMaxWidth: growth is immediate, so a burst is absorbed within a
// round or two. widthDecayStreak consecutive rounds with at most half a
// width queued halve it, down to 1: decay is damped, so a brief lull
// inside a burst does not collapse the batch. It is driven by queue
// lengths alone — no clocks, no randomness — so the figure stays
// bit-reproducible.
type batchWidth struct{ width, lowStreak int }

// observe feeds one dispatch round's queue length and returns the width
// to dispatch with.
func (b *batchWidth) observe(queued int) int {
	b.width = max(b.width, 1)
	switch {
	case queued >= 2*b.width:
		b.width = min(b.width*2, hotpathMaxWidth)
		b.lowStreak = 0
	case queued <= b.width/2:
		if b.lowStreak++; b.lowStreak >= widthDecayStreak {
			b.width = max(b.width/2, 1)
			b.lowStreak = 0
		}
	default:
		b.lowStreak = 0
	}
	return b.width
}

// hotpathLinger is how long a static-width batcher holds a partial batch
// open waiting for it to fill before dispatching anyway — the classic
// Nagle-style knob the adaptive controller exists to remove. The
// adaptive dispatcher never lingers: it sizes the batch to what is
// already queued.
const hotpathLinger = 5 * time.Microsecond

// hotpathLeg is one offered-load pattern of the hot-path figure.
type hotpathLeg struct {
	Name string
	// Zipf selects the key chooser: YCSB scrambled-Zipfian when true,
	// uniform otherwise.
	Zipf bool
	// Gap is the steady inter-arrival gap (open loop). Used when Burst
	// is zero.
	Gap time.Duration
	// Burst, when non-zero, switches to a bursty arrival process:
	// Burst ops spaced BurstGap apart, then an IdleGap pause.
	Burst    int
	BurstGap time.Duration
	IdleGap  time.Duration
}

func hotpathLegs() []hotpathLeg {
	return []hotpathLeg{
		// Saturating: offered load far above even the widest batch's
		// service capacity — throughput is decided by batching alone.
		{Name: "uniform/sat", Gap: 200 * time.Nanosecond},
		{Name: "zipf/sat", Zipf: true, Gap: 200 * time.Nanosecond},
		// Light: offered load far below capacity — every configuration
		// is arrival-bound, and wide static batches only add linger.
		{Name: "uniform/light", Gap: 20 * time.Microsecond},
		{Name: "zipf/light", Zipf: true, Gap: 20 * time.Microsecond},
		// Bursty: saturating bursts separated by idle windows — the leg
		// a single static width cannot win, whichever it picks.
		{Name: "uniform/bursty", Burst: 256, BurstGap: 200 * time.Nanosecond, IdleGap: 500 * time.Microsecond},
	}
}

// arrivalTimes expands a leg into each op's arrival offset.
func (l hotpathLeg) arrivalTimes(ops int) []time.Duration {
	at := make([]time.Duration, ops)
	var t time.Duration
	for i := range at {
		at[i] = t
		if l.Burst > 0 {
			if (i+1)%l.Burst == 0 {
				t += l.IdleGap
			} else {
				t += l.BurstGap
			}
		} else {
			t += l.Gap
		}
	}
	return at
}

// RunHotpath drives one open-loop PUT workload through a single
// dispatcher: ops arrive on the leg's schedule, queue, and are issued as
// PutBatch calls. width > 0 uses that static batch width (lingering up
// to hotpathLinger for partial batches to fill); width == 0 lets
// batchWidth size each dispatch from the queue it actually sees.
// Latency is sojourn time — completion minus arrival — so queueing delay
// from undersized batches and linger from oversized ones both count.
func RunHotpath(par *model.Params, leg hotpathLeg, width, valLen, ops int, sc Scale, seed uint64) Result {
	env := sim.NewEnv(seed)
	cfg := efactory.DefaultConfig()
	cfg.Buckets = sc.Buckets
	cfg.PoolSize = sc.PoolSize
	cfg.BGBatch = 16 // background runs size themselves from durability lag (Engine.AdaptiveBGBatch)
	srv := efactory.NewServer(env, par, cfg)
	cl := srv.AttachClient("c0")

	adaptive := width == 0
	var ctrl batchWidth
	maxW := hotpathMaxWidth
	if !adaptive && width > maxW {
		maxW = width
	}

	var rec stats.Recorder
	var start, end time.Duration
	widthPeak := 1

	env.Go("driver", func(p *sim.Proc) {
		rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
		var chooser ycsb.Chooser
		if leg.Zipf {
			chooser = ycsb.NewScrambledZipfian(sc.NKeys)
		} else {
			chooser = ycsb.NewUniform(sc.NKeys)
		}
		val := make([]byte, valLen)
		for i := range val {
			val[i] = byte(i)
		}
		// Draw every op's key up front so the chooser's rng stream does
		// not depend on batching decisions.
		keyIdx := make([]uint64, ops)
		for i := range keyIdx {
			keyIdx[i] = chooser.Next(rng)
		}
		at := leg.arrivalTimes(ops)

		// Warm up allocation paths.
		for i := uint64(0); i < 8; i++ {
			cl.Put(p, ycsb.Key(i, KeyLen), val)
		}

		kbuf := make([][]byte, maxW)
		vbuf := make([][]byte, maxW)
		start = p.Now()
		next := 0 // next op to arrive
		head := 0 // oldest queued op
		queued := func() int { return next - head }
		admit := func() {
			for next < ops && start+at[next] <= p.Now() {
				next++
			}
		}
		for head < ops {
			admit()
			if queued() == 0 {
				p.Sleep(start + at[next] - p.Now())
				continue
			}
			w := width
			if adaptive {
				w = ctrl.observe(queued())
				if w > widthPeak {
					widthPeak = w
				}
			} else if queued() < w && next < ops {
				// Linger for the batch to fill, but dispatch early when
				// no arrival can make the deadline.
				deadline := start + at[head] + hotpathLinger
				for queued() < w && next < ops && start+at[next] < deadline {
					p.Sleep(start + at[next] - p.Now())
					admit()
				}
			}
			m := min(w, queued())
			for j := 0; j < m; j++ {
				kbuf[j] = ycsb.Key(keyIdx[head+j], KeyLen)
				vbuf[j] = val
			}
			for _, err := range cl.PutBatch(p, kbuf[:m], vbuf[:m]) {
				if err != nil {
					panic(fmt.Sprintf("bench: hotpath put failed: %v", err))
				}
			}
			done := p.Now()
			for j := 0; j < m; j++ {
				rec.Record(done - (start + at[head+j]))
			}
			head += m
		}
		end = p.Now()
		// Let the background verifier drain so the run's flush accounting
		// covers every measured object.
		p.Sleep(20 * time.Millisecond)
		srv.Stop()
	})
	env.Run()

	r := Result{
		System: SysEFactory, ValLen: valLen, Clients: 1,
		Leg: leg.Name, Adaptive: adaptive, Batch: width,
		Ops: ops, Elapsed: end - start,
		Mops: stats.Mops(ops, end-start),
	}
	if adaptive {
		r.Batch = widthPeak // peak width the controller reached
	}
	r.fillLatency(&rec)
	snap := srv.Metrics().Snapshot()
	r.Engine = &snap
	return r
}

// FigHotpath sweeps static PutBatch widths against the load-adaptive
// controller across steady (saturating and light, uniform and Zipfian)
// and bursty arrival patterns. The point of the figure: each static
// width wins somewhere — wide batches at saturation, narrow ones under
// light load — while the adaptive dispatcher matches the best static
// choice everywhere and beats every static choice when the load itself
// shifts (the bursty leg).
func FigHotpath(w io.Writer, par *model.Params, sc Scale) []Result {
	const valLen = 256
	ops := sc.OpsPerClient * 8 // cheap single-client sim; more ops = more adaptation rounds
	fmt.Fprintf(w, "Write hot path: static batch widths vs load-adaptive dispatch (%dB values, open loop, %d ops/leg)\n", valLen, ops)
	tw := newTab(w)
	fmt.Fprintln(tw, "leg\twidth\tMops\tmean\tp99\tbg-objs/run")
	var out []Result
	for _, leg := range hotpathLegs() {
		for _, width := range append(append([]int{}, HotpathWidths...), 0) {
			r := RunHotpath(par, leg, width, valLen, ops, sc, 47)
			out = append(out, r)
			label := fmt.Sprintf("%d", width)
			if r.Adaptive {
				label = fmt.Sprintf("adaptive(peak %d)", r.Batch)
			}
			perRun := 0.0
			if r.Engine != nil {
				runs := r.Engine.MergedOp("bg_flush").Count
				verified, _ := r.Engine.CounterValue("efactory_bg_objects_total", map[string]string{"outcome": "verified"})
				if runs > 0 {
					perRun = verified / float64(runs)
				}
			}
			fmt.Fprintf(tw, "%s\t%s\t%.3f\t%s\t%s\t%.2f\n",
				leg.Name, label, r.Mops,
				stats.FmtDur(r.Mean), stats.FmtDur(r.P99), perRun)
		}
		fmt.Fprintln(tw, "\t\t\t\t\t")
	}
	tw.Flush()
	return out
}
