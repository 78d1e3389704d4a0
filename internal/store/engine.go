// Package store is the eFactory storage engine, extracted from the two
// transports that used to carry private copies of it. One Engine owns one
// shard: a hash-table region, a pair of log-structured data pools with
// version chains and durability flags (§4.2-4.3), the background
// verification cursor (§4.3.2), the two-stage log cleaner (§4.4), and
// crash recovery. The engine is parameterized over a CostSink (virtual
// time in simulation, wall clock over TCP) and a Deps bundle (locking,
// goroutine spawning, cleaner pacing), so the simulation server and the
// TCP server are both thin protocol adapters over the same code.
//
// Store composes N engines into a sharded keyspace: each shard owns its
// own device region, background cursor, and cleaner, and clients route
// requests by the same key-hash split (cluster.ShardOf).
package store

import (
	"errors"
	"slices"
	"sync"
	"time"

	"efactory/internal/kv"
	"efactory/internal/nvm"
	"efactory/internal/obs"
)

// Config sizes an engine fleet.
type Config struct {
	Shards   int // number of shards; 0 or 1 means the classic single engine
	Buckets  int // hash buckets PER SHARD
	PoolSize int // bytes per data pool (each shard has two)
	// VerifyTimeout bounds how long an incomplete write may stay pending
	// before being invalidated (measured on the sink's clock).
	VerifyTimeout time.Duration
	// CleanThreshold triggers log cleaning when the working pool's free
	// fraction drops below it. Zero disables automatic cleaning.
	CleanThreshold float64
}

// Layout returns the device layout this config implies.
func (c Config) Layout() kv.Layout {
	shards := c.Shards
	if shards <= 0 {
		shards = 1
	}
	return kv.Layout{Shards: shards, Buckets: c.Buckets, PoolSize: c.PoolSize}
}

// DeviceSize returns the NVM capacity a store with this config needs.
func (c Config) DeviceSize() int { return c.Layout().DeviceSize() }

// Deps injects the transport-specific runtime: how to lock, how to spawn
// the cleaner, how the cleaner waits for in-flight writes, and what to do
// around a cleaning run. Nil fields get real-time defaults (sync.Mutex,
// plain goroutines), which is what the TCP transport wants; the simulation
// transport overrides everything with cooperative-scheduler equivalents.
type Deps struct {
	// Sink is the engine clock and cost model. Nil means wall clock.
	Sink CostSink
	// NewLock returns the lock guarding one engine's metadata, and the
	// store's transaction commit lock. The simulation supplies a no-op
	// locker: its scheduler runs one process at a time and the engine
	// only yields inside Charge, so mutual exclusion holds by
	// construction (a real mutex would deadlock it).
	NewLock func() sync.Locker
	// Spawn starts the cleaner. h is passed through to the engine's
	// callbacks (the simulation passes the spawned *sim.Proc).
	Spawn func(name string, fn func(h any))
	// CleanerWait pauses the cleaner while a value it needs is still in
	// flight. It returns false to abort the cleaning run (shutdown).
	CleanerWait func(h any) bool
	// OnCleanStart and OnCleanEnd run outside the engine lock at the
	// boundaries of a cleaning run (the simulation broadcasts the
	// client notifications from them). Either may be nil.
	OnCleanStart func(h any)
	OnCleanEnd   func(h any)
	// Mirror, when non-nil, must make each verified version in recs
	// durable on the replica set BEFORE the engine persists its
	// durability flag: the flag⇒durable invariant generalizes to
	// flag⇒quorum-durable, so no flag may be set until the record would
	// survive this node's death. It sets ok[i] for each record that
	// reached a quorum; one left false keeps its flag clear — the version
	// stays valid-but-unverified and a later pass retries. A background
	// verifier run passes all of its records in one call, in log order;
	// the other verify sites pass one. It is called WITHOUT the engine
	// lock held (it does network I/O), and recs and ok are only valid
	// until it returns. Nil keeps the single-node behavior bit-identical.
	Mirror func(h any, recs []ExportKey, ok []bool)
	// MirrorNeeded, when non-nil, reports whether key currently has any
	// replicas Mirror must reach. A false return lets the engine set the
	// durability flag WITHOUT dropping its lock around Mirror — the
	// unreplicated fast path keeps single-node interleavings identical to
	// an engine with no Mirror at all. Skipped flags are safe across a
	// later backup attach because the attach snapshot exports every
	// already-flagged version: a flag set under the backup-free map
	// completes before the attach's export can run. Nil means Mirror is
	// always consulted.
	MirrorNeeded func(key []byte) bool
}

func (d *Deps) fillDefaults() {
	if d.Sink == nil {
		d.Sink = realSink{}
	}
	if d.NewLock == nil {
		d.NewLock = func() sync.Locker { return &sync.Mutex{} }
	}
	if d.Spawn == nil {
		d.Spawn = func(name string, fn func(h any)) { go fn(nil) }
	}
	if d.CleanerWait == nil {
		d.CleanerWait = func(h any) bool { time.Sleep(time.Millisecond); return true }
	}
}

// Status is the outcome of an engine operation; transports map it to wire
// statuses.
type Status uint8

const (
	StatusOK Status = iota
	StatusNotFound
	StatusFull
)

// PutResult tells the transport where the allocation landed so it can hand
// the client a one-sided write target. Seq is the allocated version's
// sequence number — migration drain uses it to decide when a dirty key
// has settled on the source.
type PutResult struct {
	Status Status
	Pool   int    // data pool index within the shard
	Off    uint64 // pool-relative object offset
	Len    int    // total object length
	Seq    uint64 // sequence number of the allocated version
}

// GetResult tells the transport where the durable version lives. Slot,
// Seq, and Durable describe the resolved entry and version so transports
// can hand clients hint-cache material: Slot is the table bucket the key
// lives in, Seq the served version's sequence number, and Durable whether
// its durability flag was set when the result was produced. Value is the
// served version's value when the caller asked for it and it fit
// (GetInto, GetBatchInto), and nil otherwise; an empty value is non-nil.
type GetResult struct {
	Status  Status
	Pool    int
	Off     uint64
	Len     int // total object length
	KLen    int
	Slot    int
	Seq     uint64
	Durable bool
	Value   []byte
}

// Engine is one shard of the storage engine.
type Engine struct {
	shard int
	cfg   Config
	deps  Deps
	sink  CostSink
	dev   nvm.Device
	obs   *obs.Registry

	table *kv.Table
	pools [2]*kv.Pool

	mu       sync.Locker // guards all metadata below
	cur      int         // index of the current working pool (the mark bit entries carry)
	cleaning bool        // log cleaning in progress
	merging  bool        // cleaning is in the merge stage (writes go to new pool)
	nextSeq  uint64
	bgCursor [2]int
	stopped  bool
	stats    Stats

	// lastBGBatch is the adaptive batch cap of the most recent BGBatch run
	// wider than one — the efactory_bg_batch_width gauge (guarded by mu).
	lastBGBatch int

	// wall is set on the wall-clock sink (Deps.Sink nil), where sections
	// are sampled; sections counts each kind run there (guarded by mu).
	// See timed.
	wall     bool
	sections [numSections]uint32

	// Scratch buffers for the hot GET and verify paths (guarded by mu).
	// They never outlive a yield point: each is consumed (CRC, hash) before
	// the next Charge, so cooperative interleavings cannot clobber live data.
	keyScratch []byte
	valScratch []byte
	runFree    []*runScratch // idle verify-run scratch (see takeRun)
	work       chan struct{} // see Work
}

func newEngine(dev nvm.Device, cfg Config, deps Deps, l kv.Layout, shard int, reg *obs.Registry) *Engine {
	e := &Engine{
		shard: shard,
		cfg:   cfg,
		deps:  deps,
		sink:  deps.Sink,
		dev:   dev,
		obs:   reg,
		table: kv.NewTable(dev, l.TableBase(shard), l.Buckets),
		mu:    deps.NewLock(),
		work:  make(chan struct{}, 1),
	}
	_, e.wall = deps.Sink.(realSink)
	for i := 0; i < 2; i++ {
		e.pools[i] = kv.NewPool(dev, l.PoolBase(shard, i), l.PoolSize)
	}
	return e
}

// Shard returns this engine's shard index.
func (e *Engine) Shard() int { return e.shard }

// Table exposes the shard's hash index (tests and fsck).
func (e *Engine) Table() *kv.Table { return e.table }

// Pool returns data pool i (0 or 1). Pools are recycled by the log
// cleaner, so callers must not cache the result across cleanings.
func (e *Engine) Pool(i int) *kv.Pool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.pools[i]
}

// CurrentPool returns the index of the current working pool.
func (e *Engine) CurrentPool() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cur
}

// Cleaning reports whether log cleaning is in progress.
func (e *Engine) Cleaning() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cleaning
}

// Stats returns a snapshot of the shard's counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Stop marks the engine stopped: no new cleanings start, and an aborted
// cleaner leaves the staged state in place (recovery handles it).
func (e *Engine) Stop() {
	e.mu.Lock()
	e.stopped = true
	e.mu.Unlock()
}

func (e *Engine) seq() uint64 {
	e.nextSeq++
	return e.nextSeq
}

// writePool returns the index of the pool new allocations go to: the
// current pool normally and during the compress stage, the new pool during
// the merge stage (§4.4). Callers hold mu.
func (e *Engine) writePool() int {
	if e.merging {
		return 1 - e.cur
	}
	return e.cur
}

// maybeCleanLocked starts a cleaning run if appending size bytes would
// leave the working pool's free fraction below CleanThreshold. Every
// append path — PUT, transaction stage and import — calls it first, so a
// backup that only ever imports cleans like the primary it mirrors.
// Callers hold mu.
func (e *Engine) maybeCleanLocked(size int) {
	pool := e.pools[e.writePool()]
	if e.cfg.CleanThreshold > 0 && !e.cleaning && !e.stopped &&
		float64(pool.Free()-size) < e.cfg.CleanThreshold*float64(pool.Cap()) {
		e.startCleaningLocked()
	}
}

// head resolves which version of a key is newest. An entry names at most
// one version per data pool — Loc[i] lives in pool i, and the mark bit
// says which pool is current — and names two only mid-clean, when kv.Head
// picks between the headers at the two locations. Those two header reads
// are the rule's only cost: a lone location is the head as it stands,
// because a live entry's lone version is never below its cut (a re-PUT's
// version is the cut it sets, and the final sweep tombstones an entry left
// with only a pre-delete copy). The cleaner, whose candidates stand alone,
// applies belowCut itself. Reads, version chains, the cleaner, export and
// import all start here; recovery applies kv.Head to the persisted image
// (kv.ResolvePersisted). The tombstone is the caller's business. Callers
// hold mu.
func (e *Engine) head(en kv.Entry) (pi int, off uint64, totalLen int, ok bool) {
	if en.Loc[0] == 0 || en.Loc[1] == 0 {
		for pi, loc := range en.Loc {
			if loc != 0 {
				off, totalLen, _ = kv.UnpackLoc(loc)
				return pi, off, totalLen, true
			}
		}
		return 0, 0, 0, false
	}
	var hd [2]kv.Header
	for i := range hd {
		o, _, _ := kv.UnpackLoc(en.Loc[i])
		hd[i] = e.pools[i].Header(o)
	}
	if pi, ok = kv.Head(en, [2]*kv.Header{&hd[0], &hd[1]}); !ok {
		return 0, 0, 0, false
	}
	off, totalLen, _ = kv.UnpackLoc(en.Loc[pi])
	return pi, off, totalLen, true
}

// belowCut is the head rule's cut test: a version of en's key with
// sequence number seq predates an acknowledged DELETE and is dead, however
// intact it looks in the log.
func belowCut(en kv.Entry, seq uint64) bool { return seq < en.CutSeq() }

// chainHead is the previous-version pointer a new version of en links to:
// its head, or nil across a tombstone — the locations still name the
// pre-delete version (cleaning reclaims it), but chaining to it would let
// GET rollback and recovery serve deleted data if the new value never
// lands intact. Callers hold mu.
func (e *Engine) chainHead(en kv.Entry) uint64 {
	if !en.Tombstone() {
		if pi, off, l, ok := e.head(en); ok {
			return kv.PackVPtr(pi, off, l)
		}
	}
	return kv.NilPtr
}

// Put implements PUT steps 2-4 of Figure 5: allocate in the log,
// fill+persist metadata (including the version pointer to the previous
// version), publish the hash entry, and return the allocation. The value
// arrives later via the client's one-sided write; durability is
// asynchronous (§4.3.1).
func (e *Engine) Put(h any, key []byte, vlen int, crcv uint32) PutResult {
	return e.put(h, PutOp{Key: key, VLen: vlen, Crc: crcv})
}

// PutInline is Put with the value in hand: it is written into the
// allocated object before the entry publishes, so no one-sided write
// follows. Durability stays asynchronous — the value is not flushed, and
// the verifier still checks its CRC and sets the flag.
func (e *Engine) PutInline(h any, key, value []byte, crcv uint32) PutResult {
	return e.put(h, PutOp{Key: key, VLen: len(value), Crc: crcv, Value: value})
}

func (e *Engine) put(h any, op PutOp) PutResult {
	e.mu.Lock()
	defer e.mu.Unlock()
	t0 := e.sink.Now()
	r := e.putLocked(h, op)
	e.observeMop(h, mopPut, t0)
	return r
}

// PutOp is one allocation request of a PutBatch: the store-level twin of
// wire.PutOp, kept separate so the engine stays transport-agnostic. A
// non-nil Value (VLen bytes) is written as PutInline writes it.
type PutOp struct {
	Key   []byte
	VLen  int
	Crc   uint32
	Value []byte
}

// PutBatch applies several allocations under ONE lock acquisition — the
// run-to-completion write twin of GetBatch. Per-op relocking made a
// shard-grouped multi-PUT pay len(ops) mutex round trips plus cache-line
// bouncing for work that is contiguous anyway; here the group runs to
// completion while other shards proceed in parallel. res, when it has the
// capacity, is reused as the result backing so callers with a scratch
// slice keep the hot path alloc-free. Results index-align with ops. One
// clock read ends each op's put latency and starts the next op's.
func (e *Engine) PutBatch(h any, ops []PutOp, res []PutResult) []PutResult {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stats.PutBatches++
	if cap(res) >= len(ops) {
		res = res[:len(ops)]
	} else {
		res = make([]PutResult, len(ops))
	}
	t0 := e.sink.Now()
	for i, op := range ops {
		res[i] = e.putLocked(h, op)
		t0 = e.observeMop(h, mopPut, t0)
	}
	return res
}

// putLocked is the shared body of Put, PutInline and PutBatch. Callers
// hold mu.
func (e *Engine) putLocked(h any, op PutOp) PutResult {
	e.stats.Puts++
	key := op.Key
	size := kv.ObjectSize(len(key), op.VLen)
	e.maybeCleanLocked(size)

	keyHash := kv.HashKey(key)
	c, ok := e.claimSlot(keyHash)
	if !ok {
		e.trace("put", "table_full", keyHash, 0)
		return PutResult{Status: StatusFull}
	}
	// Charge the allocation cost BEFORE reading the entry: from here to
	// the entry publish below there must be no yield point, so concurrent
	// workers updating the same key cannot interleave between reading the
	// previous version pointer and publishing the new head (which would
	// orphan versions from the chain). The write pool is re-read for the
	// same reason: the cleaner may have switched to merging meanwhile, and
	// a version appended to the old pool after that is never merged.
	alloc := e.begin(h, OpAlloc)
	e.sink.Charge(h, OpAlloc, size)
	pi := e.writePool()
	e.markFresh(c, pi)
	en := e.table.Entry(c.idx)
	pre := e.chainHead(en)

	hd := kv.Header{
		PrePtr:    pre,
		Seq:       e.seq(),
		CreatedAt: e.sink.Now(),
		CRC:       op.Crc,
		VLen:      op.VLen,
		Flags:     kv.FlagValid,
	}
	// An inline value is written before the entry publishes: a reader
	// that finds the new version finds its value, and it cannot land past
	// VerifyTimeout.
	off, ok := e.appendLocked(pi, &hd, key, op.Value, false)
	e.end(h, alloc)
	if !ok {
		e.releaseFresh(c)
		e.trace("put", "pool_full", keyHash, hd.Seq)
		return PutResult{Status: StatusFull}
	}
	e.publishLocked(c.idx, en.Tombstone(), hd.Seq, kv.PackVPtr(pi, off, size))
	return PutResult{Status: StatusOK, Pool: pi, Off: off, Len: size, Seq: hd.Seq}
}

// A version enters the log one way, whichever path writes it (PUT,
// transaction stage and commit, import, recovery, the cleaner's copy): a
// slot claim (claimSlot, markFresh, releaseFresh), an append (appendLocked)
// and a publish (publishLocked). None of them charges the sink, so a
// caller's no-yield window stays one.

// claim is a table slot a write claimed: fresh when the key did not hold
// it before.
type claim struct {
	idx   int
	fresh bool
}

// claimSlot finds keyHash's table slot, claiming an empty one if the key
// has none; ok is false when the table is full. Callers hold mu.
func (e *Engine) claimSlot(keyHash uint64) (c claim, ok bool) {
	idx, existed, ok := e.table.FindSlot(keyHash)
	if !ok {
		e.stats.AllocFailures++
	}
	return claim{idx: idx, fresh: !existed}, ok
}

// markFresh gives a freshly claimed slot the mark of write pool pi:
// FindSlot leaves it at mark 0, and every entry must agree on the current
// pool. Callers hold mu.
func (e *Engine) markFresh(c claim, pi int) {
	if c.fresh && pi == 1 {
		e.table.SetMark(c.idx, pi)
	}
}

// releaseFresh gives back a freshly claimed slot whose write failed, or
// repeated failing writes of distinct keys would consume buckets until the
// table reports full. A slot the key already held stays. Callers hold mu.
func (e *Engine) releaseFresh(c claim) {
	if c.fresh {
		e.table.Release(c.idx)
		e.stats.SlotsReleased++
	}
}

// appendLocked appends one version to pool pi: hd and key (AppendObject
// flushes them, so the chain survives a crash even if the value never
// lands), then value unless it is nil, then, when flush is set, the whole
// object. ok is false when the pool is full. Callers hold mu.
func (e *Engine) appendLocked(pi int, hd *kv.Header, key, value []byte, flush bool) (off uint64, ok bool) {
	pool := e.pools[pi]
	if off, ok = pool.AppendObject(hd, key); !ok {
		e.stats.AllocFailures++
		return 0, false
	}
	if value != nil {
		pool.WriteValue(off, len(key), value)
	}
	if flush {
		pool.FlushObject(off, len(key), hd.VLen)
	}
	select {
	case e.work <- struct{}{}:
	default:
	}
	return off, true
}

// Work is a one-slot token that every append raises, durable ones included.
func (e *Engine) Work() <-chan struct{} { return e.work }

// publishLocked makes the version v (a version pointer) the location of
// its pool in the entry at idx. Each table word persists on its own, so
// the order is the crash protocol: the location first, and only then, when
// undelete is set, the one word that clears the tombstone and records cut
// — the other order leaves a window where the entry is un-tombstoned but
// still names the pre-delete version, and an acknowledged DELETE would
// resurrect on recovery. A re-PUT's cut is its own sequence number, so
// pre-delete versions in the log stay dead for the cleaner, staged-slot
// reads and recovery. Callers hold mu.
func (e *Engine) publishLocked(idx int, undelete bool, cut, v uint64) {
	pi, off, size, _ := kv.UnpackVPtr(v)
	e.table.SetLoc(idx, pi, kv.PackLoc(off, size))
	if undelete {
		e.table.Undelete(idx, cut)
	}
}

// Get implements the RPC side of the hybrid read scheme (GET steps 6-8 of
// Figure 6) with the selective durability guarantee: check the durability
// flag first, verify+persist only when needed, and roll back through the
// version list to the newest intact version.
func (e *Engine) Get(h any, key []byte) GetResult {
	r, _ := e.GetInto(h, key, nil, -1)
	return r
}

// GetInto is Get that also returns the value: when len(vals) plus the
// served version's value length stays within limit, the value is
// appended to vals and the result's Value aliases it. The copy is made
// under the lock hold that resolved and verified the version, so it is
// exactly the version the result names. vals grows only when too small;
// a negative limit copies nothing.
func (e *Engine) GetInto(h any, key, vals []byte, limit int) (GetResult, []byte) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t0 := e.sink.Now()
	r := e.getLocked(h, key, -1, noSeqLimit)
	vals = e.valueLocked(&r, vals, limit)
	e.observeMop(h, mopGet, t0)
	return r, vals
}

// GetBatch resolves several keys under ONE lock acquisition — the engine
// side of the doorbell-batched multi-GET. slots optionally carries a
// client-cached bucket index per key (-1 for none); a valid hint skips the
// probe walk, a stale one degrades to a full lookup. Results are
// index-aligned with keys.
func (e *Engine) GetBatch(h any, keys [][]byte, slots []int) []GetResult {
	res, _ := e.GetBatchInto(h, keys, slots, nil, nil, -1)
	return res
}

// GetBatchInto is GetBatch that also returns values, as GetInto does for
// each key in turn against the one limit: a value that would take vals
// past limit is not copied and its key's result is bare. res, when it has
// the capacity, is reused as the result backing. One clock read ends each
// key's get latency and starts the next key's.
func (e *Engine) GetBatchInto(h any, keys [][]byte, slots []int, res []GetResult, vals []byte, limit int) ([]GetResult, []byte) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stats.GetBatches++
	if cap(res) >= len(keys) {
		res = res[:len(keys)]
	} else {
		res = make([]GetResult, len(keys))
	}
	t0 := e.sink.Now()
	for i, key := range keys {
		hint := -1
		if slots != nil {
			hint = slots[i]
		}
		res[i] = e.getLocked(h, key, hint, noSeqLimit)
		vals = e.valueLocked(&res[i], vals, limit)
		t0 = e.observeMop(h, mopGet, t0)
	}
	return res, vals
}

// valueLocked appends the value of the version r names to vals when r
// found one and the value fits within limit, and points r.Value at it.
// Callers hold mu, the same hold that produced r.
func (e *Engine) valueLocked(r *GetResult, vals []byte, limit int) []byte {
	if r.Status != StatusOK || limit < 0 {
		return vals
	}
	pool := e.pools[r.Pool]
	vlen := pool.Header(r.Off).VLen
	n := len(vals)
	if n+vlen > limit {
		return vals
	}
	if vals == nil {
		vals = []byte{} // so an empty value's window is non-nil
	}
	vals = slices.Grow(vals, vlen)[:n+vlen]
	r.Value = pool.ReadValueInto(vals[n:n+vlen:n+vlen], r.Off, r.KLen, vlen)
	return vals
}

// getLocked is the shared body of Get, GetBatch, and the snapshot read.
// seqLimit bounds which versions may be served: versions with a larger
// sequence number are walked past untouched (no verify, no timeout
// invalidation) — they are simply "in the snapshot's future". Normal
// reads pass noSeqLimit, which admits everything. Callers hold mu.
func (e *Engine) getLocked(h any, key []byte, slotHint int, seqLimit uint64) GetResult {
	e.stats.Gets++
	keyHash := kv.HashKey(key)
	lookup := e.begin(h, OpLookup)
	e.sink.Charge(h, OpLookup, 0)
	var (
		idx   int
		en    kv.Entry
		found bool
	)
	if slotHint >= 0 {
		if hintEn, ok := e.table.LookupAt(slotHint, keyHash); ok {
			idx, en, found = slotHint, hintEn, true
			e.stats.HintedLookups++
		} else {
			e.stats.HintedStale++
		}
	}
	if !found {
		idx, en, found = e.table.Lookup(keyHash)
	}
	e.end(h, lookup)
	if !found || en.Tombstone() {
		return GetResult{Status: StatusNotFound}
	}
	pi, off, totalLen, ok := e.head(en)
	if !ok {
		return GetResult{Status: StatusNotFound}
	}
	first := true
	for {
		pool := e.pools[pi]
		scan := e.begin(h, OpGetScan)
		e.sink.Charge(h, OpGetScan, 0) // header fetch + durability check
		hd := pool.Header(off)
		e.end(h, scan)
		if hd.Magic != kv.Magic {
			break
		}
		if hd.Valid() && hd.Seq <= seqLimit {
			v := verFlagged
			if !hd.Durable() {
				// Not yet durable: verify and persist on demand.
				v = e.verify(h, pi, off, hd, OpCRC)
				if v == verIntact && !e.persist(h, pi, []uint64{off}, off+uint64(totalLen), OpFlush) {
					v = verMoved
				}
			}
			switch v {
			case verFlagged, verIntact:
				switch {
				case !first:
					e.stats.GetRolledBack++
					e.trace("get", "rolled_back", keyHash, hd.Seq)
				case v == verFlagged:
					e.stats.GetFastPath++
				default:
					e.stats.GetVerified++
				}
				return GetResult{Status: StatusOK, Pool: pi, Off: off, Len: totalLen, KLen: hd.KLen,
					Slot: idx, Seq: hd.Seq, Durable: true}
			case verMoved:
				// The cleaner recycled this pool during a yield: restart
				// from the table lookup.
				return e.getLocked(h, key, -1, seqLimit)
			case verDead:
				e.stats.GetInvalidated++
				e.trace("get", "invalidated", keyHash, hd.Seq)
			}
		}
		// Walk to the previous version.
		var okPre bool
		pi, off, totalLen, okPre = kv.UnpackVPtr(hd.PrePtr)
		if !okPre {
			break
		}
		first = false
	}
	return GetResult{Status: StatusNotFound}
}

// Del tombstones a key.
func (e *Engine) Del(h any, key []byte) Status {
	e.mu.Lock()
	defer e.mu.Unlock()
	t0 := e.sink.Now()
	defer func() { e.observeMop(h, mopDel, t0) }()
	e.stats.Dels++
	// The lookup section starts with the request.
	lookup := section{op: OpLookup, t0: t0, timed: e.timed(h, OpLookup)}
	e.sink.Charge(h, OpLookup, 0)
	idx, en, found := e.table.Lookup(kv.HashKey(key))
	e.end(h, lookup)
	if !found || en.Tombstone() {
		return StatusNotFound
	}
	e.table.Delete(idx)
	return StatusOK
}

var errInvalidConfig = errors.New("store: invalid config (need Buckets, PoolSize, VerifyTimeout > 0)")
