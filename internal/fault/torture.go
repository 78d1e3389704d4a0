package fault

import (
	"fmt"
	"sync"
	"time"

	"efactory/internal/client"
	"efactory/internal/crc"
	"efactory/internal/kv"
	"efactory/internal/nvm"
	"efactory/internal/store"
	"efactory/internal/txn"
)

// Config parameterizes one store-level torture run: a seeded mixed
// workload (PUT / torn PUT / GET / DEL plus periodic background
// verification and log cleaning) driven directly against a store.Store
// whose device and cost sink are wrapped under a Plan, crashed at the
// CrashAt-th boundary (or at the end when CrashAt <= 0), recovered on
// the raw device, and checked against the durability Oracle.
type Config struct {
	Seed     uint64
	Ops      int // workload length (default 200)
	Keys     int // hot keyset size (default 8)
	Shards   int // store shards (default 1)
	Buckets  int // hash buckets per shard (default 128)
	PoolSize int // bytes per data pool (default 8 KiB — small, so the
	// workload exercises pool-full PUTs and log cleaning)
	ValueLen      int           // value size (default 48)
	CleanEvery    int           // StartCleaning every N ops (default 80; <0 never)
	BGEvery       int           // one BGStep per shard every N ops (default 7; <0 never)
	BGBatch       int           // background batch size (<= 1: per-object BGStep)
	VerifyTimeout time.Duration // in-flight write invalidation bound (default 2µs virtual)
	Survival      float64       // fraction of unflushed dirty lines surviving the crash (default 0: strict power failure)
	CrashAt       int64         // trip at this boundary; <= 0 = run to completion, crash at end
	GetBatch      bool          // serve the GET slice as 4-key batched multi-GETs (client transports also enable the hint cache)
	// Txn carves a transactional leg out of the GET slice: multi-key
	// atomic commits (2-4 distinct hot keys each) and snapshot multi-key
	// reads. The crash sweep then visits every boundary of the commit
	// protocol — staging charges and flushes, the commit-record append and
	// flush, the visibility flips, the applied mark — and the oracle holds
	// commits to "all-in or all-out, and acked commits survive".
	Txn bool
}

// TxnMaxOps is the widest transactional commit the torture workload
// issues (key count per commit is 2..TxnMaxOps, distinct hot keys).
const TxnMaxOps = 4

// GetBatchFan is the batch width of the GetBatch workload leg: each GET op
// becomes one multi-GET over the drawn key plus three more hot keys.
const GetBatchFan = 4

// WithDefaults fills zero fields with the default workload shape shared
// by every transport's torture runner.
func (c Config) WithDefaults() Config {
	if c.Ops == 0 {
		c.Ops = 200
	}
	if c.Keys == 0 {
		c.Keys = 8
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Buckets == 0 {
		c.Buckets = 128
	}
	if c.PoolSize == 0 {
		c.PoolSize = 6 << 10
	}
	if c.ValueLen == 0 {
		c.ValueLen = 48
	}
	if c.CleanEvery == 0 {
		c.CleanEvery = 70
	}
	if c.BGEvery == 0 {
		c.BGEvery = 7
	}
	if c.VerifyTimeout == 0 {
		c.VerifyTimeout = 2 * time.Microsecond
	}
	return c
}

// CleanDue reports whether the workload starts log cleaning before op i.
func (c Config) CleanDue(i int) bool {
	return c.CleanEvery > 0 && i > 0 && i%c.CleanEvery == 0
}

// Result is the outcome of one torture run.
type Result struct {
	Boundaries int64 // boundaries counted (a CrashAt<=0 run measures the workload's total)
	Tripped    bool
	Stats      store.Stats // pre-crash engine counters (workload coverage)
	Violations []string
}

// tickSink is a deterministic virtual clock: every charge advances time
// by a fixed tick, so VerifyTimeout-based invalidation fires at
// reproducible boundaries and the whole run is a pure function of the
// seed and crash point.
type tickSink struct{ now uint64 }

func (s *tickSink) Now() uint64                      { return s.now }
func (s *tickSink) Charge(h any, op store.Op, n int) { s.now += 100 }

// nopLocker matches the simulation's locking model: the harness drives
// the engine from a single goroutine (the cleaner is spawned inline), so
// mutual exclusion holds by construction.
type nopLocker struct{}

func (nopLocker) Lock()   {}
func (nopLocker) Unlock() {}

// WorkloadValue builds a value unique per (seed, key, op index), so the
// oracle can tell versions apart bit-exactly. Every transport's torture
// runner uses it, which keeps workloads comparable across transports.
func WorkloadValue(seed uint64, key string, op, vlen int) []byte {
	base := fmt.Sprintf("s%x:%s:o%d:", seed, key, op)
	if vlen < len(base)+1 {
		vlen = len(base) + 1
	}
	v := make([]byte, vlen)
	for i := range v {
		v[i] = '.'
	}
	copy(v, base)
	return v
}

// harnessDeps is the deterministic single-goroutine environment the store
// harness builds its engines in: the cleaner is spawned inline, and its
// wait for in-flight values just advances the clock, so VerifyTimeout
// eventually declares them dead and the run terminates even against a
// frozen device.
func harnessDeps(tick *tickSink, sink store.CostSink) store.Deps {
	return store.Deps{
		Sink:        sink,
		NewLock:     func() sync.Locker { return nopLocker{} },
		Spawn:       func(name string, fn func(h any)) { fn(nil) },
		CleanerWait: func(h any) bool { tick.now += 500; return true },
	}
}

// StoreGet is a GET straight off st's engines — how a harness reads a
// recovered store without a transport in the way.
func StoreGet(st *store.Store, key []byte) ([]byte, bool) {
	eng := st.Shard(st.ShardFor(key))
	return engineValue(eng, eng.Get(nil, key))
}

func engineValue(eng *store.Engine, gr store.GetResult) ([]byte, bool) {
	if gr.Status != store.StatusOK {
		return nil, false
	}
	pool := eng.Pool(gr.Pool)
	hd := pool.Header(gr.Off)
	return pool.ReadValue(gr.Off, hd.KLen, hd.VLen), true
}

// statusErr maps an engine status to the protocol core's sentinels.
func statusErr(st store.Status) error {
	switch st {
	case store.StatusOK:
		return nil
	case store.StatusNotFound:
		return client.ErrNotFound
	}
	return client.ErrServerFull
}

// storeTarget drives a store.Store directly — no transport, one
// goroutine, a virtual clock — as a Target.
type storeTarget struct {
	cfg     Config
	plan    *Plan
	dev     *Device
	st      *store.Store
	mgr     *txn.Manager
	claimed map[string]bool // keys ever successfully allocated
}

func (t *storeTarget) Dead() bool { return t.plan.Tripped() }

func (t *storeTarget) Tick(i int) {
	if t.cfg.CleanDue(i) {
		t.st.StartCleaning()
		if t.plan.Tripped() {
			return
		}
	}
	if t.cfg.BGEvery > 0 && i%t.cfg.BGEvery == 0 {
		for s := 0; s < t.st.NumShards(); s++ {
			eng := t.st.Shard(s)
			if t.cfg.BGBatch > 1 {
				eng.BGBatch(nil, eng.CurrentPool(), t.cfg.BGBatch)
			} else {
				eng.BGStep(nil, eng.CurrentPool())
			}
		}
	}
}

func (t *storeTarget) engine(key []byte) *store.Engine { return t.st.Shard(t.st.ShardFor(key)) }

// TornPut is the allocation half of a PUT: the value never follows.
func (t *storeTarget) TornPut(key, value []byte) error {
	_, err := t.alloc(key, value)
	return err
}

func (t *storeTarget) alloc(key, value []byte) (store.PutResult, error) {
	pr := t.engine(key).Put(nil, key, len(value), crc.Checksum(value))
	if pr.Status == store.StatusOK {
		t.claimed[string(key)] = true
	}
	return pr, statusErr(pr.Status)
}

// Put allocates, then writes the value one-sided, as a client would.
func (t *storeTarget) Put(key, value []byte) error {
	pr, err := t.alloc(key, value)
	if err == nil {
		t.dev.Write(t.engine(key).Pool(pr.Pool).Base()+int(pr.Off)+kv.ValueOffset(len(key)), value)
	}
	return err
}

func (t *storeTarget) Get(key []byte) ([]byte, error) {
	if v, ok := StoreGet(t.st, key); ok {
		return v, nil
	}
	return nil, client.ErrNotFound
}

// GetBatch issues one engine multi-GET per shard group, in shard order —
// a map walk here would make boundary numbering depend on Go's map
// iteration. Engine.GetBatch resolves its reads sequentially under one
// lock, which is what lets RunStore ask Drive for the per-index check.
func (t *storeTarget) GetBatch(keys [][]byte) ([][]byte, []error) {
	vals, errs := make([][]byte, len(keys)), make([]error, len(keys))
	for sh := 0; sh < t.st.NumShards(); sh++ {
		var group [][]byte
		var idx []int
		for i, k := range keys {
			if t.st.ShardFor(k) == sh {
				group, idx = append(group, k), append(idx, i)
			}
		}
		if len(group) == 0 {
			continue
		}
		eng := t.st.Shard(sh)
		for j, gr := range eng.GetBatch(nil, group, nil) {
			v, ok := engineValue(eng, gr)
			if !ok {
				errs[idx[j]] = client.ErrNotFound
			}
			vals[idx[j]] = v
		}
	}
	return vals, errs
}

func (t *storeTarget) Delete(key []byte) error { return statusErr(t.engine(key).Del(nil, key)) }

func (t *storeTarget) TxnCommit(keys, vals [][]byte) (uint64, []error) {
	id, _, st := t.mgr.Commit(nil, keys, vals)
	if st == store.StatusOK {
		// The flip claimed table slots in memory even if the device froze
		// mid-commit, so the capacity invariant counts these keys either way.
		for _, k := range keys {
			t.claimed[string(k)] = true
		}
	}
	errs := make([]error, len(keys))
	for i := range errs {
		errs[i] = statusErr(st)
	}
	return id, errs
}

func (t *storeTarget) TxnRead(keys [][]byte) ([][]byte, []error) {
	vals, errs := make([][]byte, len(keys)), make([]error, len(keys))
	for i, r := range t.mgr.SnapshotGet(nil, keys) {
		vals[i], errs[i] = r.Value, statusErr(r.Status)
	}
	return vals, errs
}

// RunStore executes one seeded torture run against a freshly built store
// and returns the boundary count and every oracle violation found. The
// run is deterministic: the same Config always yields the same Result.
func RunStore(cfg Config) (Result, error) {
	cfg = cfg.WithDefaults()
	return runStore(cfg, Workload(cfg))
}

// runStore is the store fixture: build a store under a Plan, drive ops,
// crash, recover injection-free on the raw device, check the oracle.
func runStore(cfg Config, ops []Op) (Result, error) {
	plan := NewPlan(cfg.CrashAt)
	scfg := store.Config{
		Shards:        cfg.Shards,
		Buckets:       cfg.Buckets,
		PoolSize:      cfg.PoolSize,
		VerifyTimeout: cfg.VerifyTimeout,
	}
	dev := nvm.New(scfg.DeviceSize())
	fdev := WrapDevice(dev, plan)
	tick := &tickSink{}
	st, _, err := store.New(fdev, scfg, harnessDeps(tick, WrapSink(plan, tick)))
	if err != nil {
		return Result{}, err
	}
	t := &storeTarget{cfg: cfg, plan: plan, dev: fdev, st: st,
		mgr: txn.NewManager(st, nopLocker{}), claimed: make(map[string]bool)}
	oracle := NewOracle()
	violations := Drive(t, oracle, ops, true)
	st.Stop()

	res := Result{Boundaries: plan.Boundaries(), Tripped: plan.Tripped(), Stats: st.StatsTotal()}

	// Capacity invariant: every occupied table slot must belong to a key
	// that was successfully allocated at least once — a PUT that failed on
	// pool-full must not permanently consume the slot it claimed. One slot
	// of slack covers an op that straddled the crash point.
	occ := 0
	for i := 0; i < st.NumShards(); i++ {
		occ += st.Shard(i).Table().Occupied()
	}
	slack := 0
	if res.Tripped {
		slack = 1
	}
	if occ > len(t.claimed)+slack {
		violations = append(violations, fmt.Sprintf(
			"table leak: %d slots occupied but only %d distinct keys ever allocated", occ, len(t.claimed)))
	}

	// Power failure: the volatile overlay is resolved by the survival
	// lottery (Survival 0 = only explicitly flushed lines persist), then
	// the store is rebuilt, injection-free, on the raw device.
	dev.Crash(cfg.Seed^0xc4a5_4ed, cfg.Survival)
	tick2 := &tickSink{now: tick.now}
	st2, _, err := store.New(dev, scfg, harnessDeps(tick2, tick2))
	if err != nil {
		return res, fmt.Errorf("recovery failed: %w", err)
	}
	res.Violations = append(violations, oracle.Check(func(k string) ([]byte, bool) {
		return StoreGet(st2, []byte(k))
	})...)
	st2.Stop()
	return res, nil
}

// SweepResult aggregates a seed × crash-point matrix.
type SweepResult struct {
	Runs       int
	Boundaries []int64 // per seed: total boundaries of the full workload
	Violations []string
}

// Runner executes one torture run for some transport (store, sim, tcp).
type Runner func(Config) (Result, error)

// SweepStore sweeps the direct store-level runner.
func SweepStore(cfg Config, seeds []uint64, maxPoints int) (SweepResult, error) {
	return Sweep(RunStore, cfg, seeds, maxPoints)
}

// Sweep runs, for each seed, one full-length measuring run (crash at
// the end) plus one run per crash point K. maxPoints <= 0 sweeps every
// boundary; otherwise K values are evenly subsampled.
func Sweep(run Runner, cfg Config, seeds []uint64, maxPoints int) (SweepResult, error) {
	var sr SweepResult
	for _, seed := range seeds {
		c := cfg
		c.Seed = seed
		c.CrashAt = 0
		base, err := run(c)
		if err != nil {
			return sr, err
		}
		sr.Runs++
		sr.Boundaries = append(sr.Boundaries, base.Boundaries)
		for _, v := range base.Violations {
			sr.Violations = append(sr.Violations, fmt.Sprintf("seed=%d K=end: %s", seed, v))
		}
		for _, k := range SweepPoints(base.Boundaries, maxPoints) {
			c.CrashAt = k
			r, err := run(c)
			if err != nil {
				return sr, fmt.Errorf("seed=%d K=%d: %w", seed, k, err)
			}
			sr.Runs++
			for _, v := range r.Violations {
				sr.Violations = append(sr.Violations, fmt.Sprintf("seed=%d K=%d: %s", seed, k, v))
			}
		}
	}
	return sr, nil
}

// SweepPoints returns the crash points to visit for a workload of b
// boundaries: all of them, or max evenly spaced ones.
func SweepPoints(b int64, max int) []int64 {
	if b <= 0 {
		return nil
	}
	if max <= 0 || int64(max) >= b {
		pts := make([]int64, b)
		for i := range pts {
			pts[i] = int64(i) + 1
		}
		return pts
	}
	pts := make([]int64, 0, max)
	var last int64
	for i := 0; i < max; i++ {
		k := int64(1)
		if max > 1 {
			k = 1 + int64(i)*(b-1)/int64(max-1)
		} else {
			k = (b + 1) / 2
		}
		if k != last {
			pts = append(pts, k)
			last = k
		}
	}
	return pts
}
