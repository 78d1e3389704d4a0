package store

import (
	"strconv"

	"efactory/internal/kv"
	"efactory/internal/obs"
	"efactory/internal/trace"
)

// Metric op indexes. The first numOps entries coincide with the CostSink
// Op values, so the engine can feed section timings straight through; the
// tail adds whole-request latencies the sink never sees as a unit.
const (
	mopPut = numSections + iota
	mopGet
	mopDel
	numMetricOps
)

// MetricOpNames returns the op-name table the store's obs.Registry is
// built with: index == store.Op for the sink ops, then "put"/"get"/"del"
// whole-request latencies.
func MetricOpNames() []string {
	names := make([]string, numMetricOps)
	names[OpLookup] = "lookup"
	names[OpAlloc] = "alloc"
	names[OpGetScan] = "get_scan"
	names[OpCRC] = "crc"
	names[OpFlush] = "flush"
	names[OpBGScan] = "bg_scan"
	names[OpBGLookup] = "bg_lookup"
	names[OpBGCRC] = "bg_crc"
	names[OpBGFlush] = "bg_flush"
	names[OpCleanCopy] = "clean_copy"
	names[OpCleanEntry] = "clean_entry"
	names[mopPut] = "put"
	names[mopGet] = "get"
	names[mopDel] = "del"
	return names
}

// traceRingCap bounds the structured trace ring (per store, all shards).
const traceRingCap = 4096

// sectionSample is the wall-clock sampling period of section latencies.
const sectionSample = 64

// section is an open engine section of kind op; t0 is its start on the
// sink clock when it is timed.
type section struct {
	op    Op
	t0    uint64
	timed bool
}

// timed reports whether the section of kind op that request h is about to
// run is timed. On a sink whose clock is free (the simulator's virtual
// clock, a test's step clock) every section is. A wall-clock read costs
// tens of nanoseconds under mu, so there a shard times every section of a
// traced request and, per section kind, the first and every
// sectionSample-th after it. Callers hold mu.
func (e *Engine) timed(h any, op Op) bool {
	if !e.wall {
		return true
	}
	n := e.sections[op]
	e.sections[op]++
	if n%sectionSample == 0 {
		return true
	}
	_, tc := trace.Unwrap(h)
	return tc != nil
}

// begin opens a section of kind op for request h, reading the clock only
// when the section is timed. Callers hold mu.
func (e *Engine) begin(h any, op Op) section {
	s := section{op: op, timed: e.timed(h, op)}
	if s.timed {
		s.t0 = e.sink.Now()
	}
	return s
}

// end closes s. A timed section records its latency on the sink clock
// from its start to now: virtual nanoseconds under the simulator (Charge
// sleeps the acting process), wall-clock nanoseconds over TCP (Charge is
// free but the native work is not). A traced request's section also
// records a span with the same boundaries.
func (e *Engine) end(h any, s section) {
	if !s.timed {
		return
	}
	now := e.sink.Now()
	if tc := e.record(h, int(s.op), now-s.t0); tc != nil {
		tc.AddSpan(trace.Span{Name: e.obs.OpNames()[s.op], Shard: e.shard, StartNS: s.t0, EndNS: now})
	}
}

// observeMop records a whole-request put/get/del latency from t0 to now,
// on every request, and returns now, so a batch's next request can start
// there. A traced request records no span: the transport's root span
// already covers the request, and a duplicate would double-count coverage.
func (e *Engine) observeMop(h any, op int, t0 uint64) uint64 {
	now := e.sink.Now()
	e.record(h, op, now-t0)
	return now
}

// record adds one latency sample to op's histogram. When request h is
// traced, its trace ID becomes the bucket's exemplar and its trace
// context is returned; untraced requests pay one type assertion.
func (e *Engine) record(h any, op int, ns uint64) *trace.Ctx {
	_, tc := trace.Unwrap(h)
	if tc == nil {
		e.obs.Observe(e.shard, op, ns)
		return nil
	}
	e.obs.Hist(e.shard, op).ObserveTraced(ns, tc.TraceID)
	return tc
}

// trace appends a structured event to the store's trace ring.
func (e *Engine) trace(op, outcome string, keyHash, seq uint64) {
	e.obs.Trace(obs.Event{
		TimeNS: e.sink.Now(), Shard: e.shard,
		Op: op, Outcome: outcome, KeyHash: keyHash, Seq: seq,
	})
}

// PoolUsage returns pool i's allocated bytes and capacity.
func (e *Engine) PoolUsage(i int) (used, capacity int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.pools[i].Used(), e.pools[i].Cap()
}

// Occupancy returns the working pool's used fraction (the number the
// cleaner threshold watches).
func (e *Engine) Occupancy() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	pool := e.pools[e.writePool()]
	return float64(pool.Used()) / float64(pool.Cap())
}

// TableLoad returns the hash table's occupied-entry fraction.
func (e *Engine) TableLoad() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	used := 0
	e.table.RangeAll(func(int, kv.Entry) bool { used++; return true })
	return float64(used) / float64(e.table.N())
}

// DurabilityLag measures the not-yet-verified backlog — the paper's
// central consistency/performance tradeoff. It returns the number of log
// bytes the background verifier has not yet passed over and the age (on
// the sink clock) of the oldest still-unverified object at a cursor. Both
// are zero when the verifier has caught up.
func (e *Engine) DurabilityLag() (backlogBytes int, oldestNS uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.sink.Now()
	for pi, pool := range e.pools {
		if e.bgCursor[pi]+kv.HeaderSize > pool.Used() {
			continue
		}
		hd := pool.Header(uint64(e.bgCursor[pi]))
		if hd.Magic == kv.Magic && hd.Valid() && !hd.Durable() && now > hd.CreatedAt {
			if age := now - hd.CreatedAt; age > oldestNS {
				oldestNS = age
			}
		}
	}
	return e.backlogLocked(), oldestNS
}

// backlogLocked returns the log bytes the background verifier has not yet
// passed over, in both pools. Callers hold mu.
func (e *Engine) backlogLocked() (n int) {
	for pi, pool := range e.pools {
		n += max(pool.Used()-e.bgCursor[pi], 0)
	}
	return n
}

// registerMetrics wires every shard's gauges and counters into the
// store's registry. Gauges are closures evaluated only at scrape time, so
// they cost nothing between scrapes; the ones that take the engine lock
// (occupancy, durability lag, table load) briefly contend with request
// handling, exactly like a Stats() call.
func (s *Store) registerMetrics() {
	r := s.reg
	for i := range s.engines {
		e := s.engines[i]
		shard := strconv.Itoa(i)
		lbl := map[string]string{"shard": shard}
		for pi := 0; pi < 2; pi++ {
			pi := pi
			r.AddGauge("efactory_pool_used_bytes", "Allocated bytes in the data pool.",
				map[string]string{"shard": shard, "pool": strconv.Itoa(pi)},
				func() float64 { u, _ := e.PoolUsage(pi); return float64(u) })
		}
		r.AddGauge("efactory_pool_capacity_bytes", "Capacity of each data pool.", lbl,
			func() float64 { _, c := e.PoolUsage(0); return float64(c) })
		r.AddGauge("efactory_pool_occupancy", "Working pool used fraction (cleaning triggers when free fraction drops below the threshold).", lbl,
			func() float64 { return e.Occupancy() })
		r.AddGauge("efactory_table_load", "Hash-table occupied-entry fraction.", lbl,
			func() float64 { return e.TableLoad() })
		r.AddGauge("efactory_cleaning", "1 while a log-cleaning run is in progress.", lbl,
			func() float64 {
				if e.Cleaning() {
					return 1
				}
				return 0
			})
		r.AddGauge("efactory_durability_lag_bytes", "Log bytes not yet passed by the background verifier.", lbl,
			func() float64 { b, _ := e.DurabilityLag(); return float64(b) })
		r.AddGauge("efactory_durability_lag_oldest_ns", "Age (sink clock) of the oldest still-unverified object at a verifier cursor.", lbl,
			func() float64 { _, a := e.DurabilityLag(); return float64(a) })
		r.AddGauge("efactory_bg_batch_width", "Adaptive batch cap the most recent background run used (lag-driven, see Engine.AdaptiveBGBatch).", lbl,
			func() float64 {
				e.mu.Lock()
				defer e.mu.Unlock()
				return float64(e.lastBGBatch)
			})

		counter := func(name, help string, labels map[string]string, get func(Stats) int) {
			r.AddCounter(name, help, labels, func() float64 { return float64(get(e.Stats())) })
		}
		opLbl := func(op string) map[string]string {
			return map[string]string{"shard": shard, "op": op}
		}
		counter("efactory_ops_total", "Requests handled.", opLbl("put"), func(st Stats) int { return st.Puts })
		counter("efactory_ops_total", "Requests handled.", opLbl("get"), func(st Stats) int { return st.Gets })
		counter("efactory_ops_total", "Requests handled.", opLbl("del"), func(st Stats) int { return st.Dels })
		outLbl := func(o string) map[string]string {
			return map[string]string{"shard": shard, "outcome": o}
		}
		counter("efactory_get_outcomes_total", "RPC-path GET resolutions.", outLbl("fast_path"), func(st Stats) int { return st.GetFastPath })
		counter("efactory_get_outcomes_total", "RPC-path GET resolutions.", outLbl("verified"), func(st Stats) int { return st.GetVerified })
		counter("efactory_get_outcomes_total", "RPC-path GET resolutions.", outLbl("rolled_back"), func(st Stats) int { return st.GetRolledBack })
		counter("efactory_get_outcomes_total", "RPC-path GET resolutions.", outLbl("invalidated"), func(st Stats) int { return st.GetInvalidated })
		counter("efactory_get_batches_total", "Multi-key GetBatch calls handled (one lock acquisition each).", lbl, func(st Stats) int { return st.GetBatches })
		counter("efactory_put_batches_total", "Multi-op PutBatch calls handled (one lock acquisition each).", lbl, func(st Stats) int { return st.PutBatches })
		counter("efactory_hinted_lookups_total", "Slot-hinted lookup outcomes.", outLbl("hit"), func(st Stats) int { return st.HintedLookups })
		counter("efactory_hinted_lookups_total", "Slot-hinted lookup outcomes.", outLbl("stale"), func(st Stats) int { return st.HintedStale })
		counter("efactory_bg_objects_total", "Background verifier outcomes.", outLbl("verified"), func(st Stats) int { return st.BGVerified })
		counter("efactory_bg_objects_total", "Background verifier outcomes.", outLbl("skipped"), func(st Stats) int { return st.BGSkipped })
		counter("efactory_bg_objects_total", "Background verifier outcomes.", outLbl("stale"), func(st Stats) int { return st.BGStale })
		counter("efactory_bg_objects_total", "Background verifier outcomes.", outLbl("invalidated"), func(st Stats) int { return st.BGInvalidated })
		counter("efactory_bg_batched_runs_total", "Multi-object coalesced flush runs issued by batched background persistence.", lbl, func(st Stats) int { return st.BGBatched })
		counter("efactory_cleanings_total", "Completed log-cleaning runs.", lbl, func(st Stats) int { return st.Cleanings })
		counter("efactory_clean_objects_total", "Cleaner per-object outcomes.", outLbl("moved"), func(st Stats) int { return st.CleanMoved })
		counter("efactory_clean_objects_total", "Cleaner per-object outcomes.", outLbl("dropped"), func(st Stats) int { return st.CleanDropped })
		counter("efactory_alloc_failures_total", "PUTs rejected because the pool or table was full.", lbl, func(st Stats) int { return st.AllocFailures })
		counter("efactory_slots_released_total", "Freshly claimed table slots given back after a pool-full PUT.", lbl, func(st Stats) int { return st.SlotsReleased })
	}
}
