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
	"sync"
	"time"

	"efactory/internal/crc"
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
	// DisableSelectiveDurability makes GET re-verify objects whose
	// durability flag is already set (ablation mode, §6.3).
	DisableSelectiveDurability bool
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
	// NewLock returns the lock guarding one engine's metadata. The
	// simulation supplies a no-op locker: its scheduler runs one process
	// at a time and the engine only yields inside Charge, so mutual
	// exclusion holds by construction (a real mutex would deadlock it).
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
	// Mirror, when non-nil, must make the verified version in rec durable
	// on the replica set BEFORE the engine persists its durability flag:
	// the flag⇒durable invariant generalizes to flag⇒quorum-durable, so
	// no flag may be set until the record would survive this node's
	// death. It is called WITHOUT the engine lock held (it does network
	// I/O); a false return leaves the flag clear — the version stays
	// valid-but-unverified and a later pass retries. Nil keeps the
	// single-node behavior bit-identical.
	Mirror func(h any, rec ExportKey) bool
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
// its durability flag was set when the result was produced.
type GetResult struct {
	Status  Status
	Pool    int
	Off     uint64
	Len     int // total object length
	KLen    int
	Slot    int
	Seq     uint64
	Durable bool
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

	// lastBGBatch is the adaptive batch cap the most recent BGBatch call
	// ran with — the efactory_bg_batch_width gauge (guarded by mu).
	lastBGBatch int

	// Scratch buffers for the hot GET/BGStep paths (guarded by mu). They
	// never outlive a yield point: each is consumed (CRC, hash) before the
	// next Charge, so cooperative interleavings cannot clobber live data.
	keyScratch []byte
	valScratch []byte
	bgRun      []uint64 // verified-offset run reused across BGBatch calls
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
	}
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

// writePool returns the pool (and its index) new allocations go to: the
// current pool normally and during the compress stage, the new pool during
// the merge stage (§4.4). Callers hold mu.
func (e *Engine) writePool() (int, *kv.Pool) {
	if e.merging {
		return 1 - e.cur, e.pools[1-e.cur]
	}
	return e.cur, e.pools[e.cur]
}

// head is the engine's one rule for which version of a key is newest (see
// DESIGN.md, "Log cleaning"). An entry names at most one version per data
// pool — Loc[i] lives in pool i, and the mark bit says which pool is
// current — and names two only mid-clean. Of two, head skips one whose
// version is below the entry's cut (belowCut), then takes the higher
// sequence number; a tie can only be a migrated copy of the same version
// and goes to the staged one, so chains built on it stay in the pool the
// run keeps. Those two header reads are the rule's only cost, and only
// mid-clean: a lone location is the head as it stands, because a live
// entry's lone version is never below its cut (a re-PUT's version is the
// cut it sets, and the final sweep tombstones an entry left with only a
// pre-delete copy). The cleaner, whose candidates stand alone, applies
// belowCut itself. Reads, version chains, the cleaner, export and import
// all start here; recovery applies the same rule to the persisted image
// (ResolvePersisted). The tombstone is the caller's business. Callers hold
// mu.
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
	var seq uint64
	for _, slot := range [2]int{1 - en.Mark(), en.Mark()} {
		o, l, _ := kv.UnpackLoc(en.Loc[slot])
		if s := e.pools[slot].Header(o).Seq; !belowCut(en, s) && (!ok || s > seq) {
			pi, off, totalLen, seq, ok = slot, o, l, s, true
		}
	}
	return pi, off, totalLen, ok
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
	e.mu.Lock()
	defer e.mu.Unlock()
	t0 := e.sink.Now()
	defer func() { e.observeMop(h, mopPut, t0) }()
	return e.putLocked(h, key, vlen, crcv)
}

// PutOp is one allocation request of a PutBatch: the store-level twin of
// wire.PutOp, kept separate so the engine stays transport-agnostic.
type PutOp struct {
	Key  []byte
	VLen int
	Crc  uint32
}

// PutBatch applies several allocations under ONE lock acquisition — the
// run-to-completion write twin of GetBatch. Per-op relocking made a
// shard-grouped multi-PUT pay len(ops) mutex round trips plus cache-line
// bouncing for work that is contiguous anyway; here the group runs to
// completion while other shards proceed in parallel. res, when it has the
// capacity, is reused as the result backing so callers with a scratch
// slice keep the hot path alloc-free. Results index-align with ops.
func (e *Engine) PutBatch(h any, ops []PutOp, res []PutResult) []PutResult {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stats.PutBatches++
	if cap(res) >= len(ops) {
		res = res[:len(ops)]
	} else {
		res = make([]PutResult, len(ops))
	}
	for i, op := range ops {
		t0 := e.sink.Now()
		res[i] = e.putLocked(h, op.Key, op.VLen, op.Crc)
		e.observeMop(h, mopPut, t0)
	}
	return res
}

// putLocked is the shared body of Put and PutBatch. Callers hold mu.
func (e *Engine) putLocked(h any, key []byte, vlen int, crcv uint32) PutResult {
	e.stats.Puts++
	pi, pool := e.writePool()
	size := kv.ObjectSize(len(key), vlen)

	if e.cfg.CleanThreshold > 0 && !e.cleaning && !e.stopped &&
		float64(pool.Free()-size) < e.cfg.CleanThreshold*float64(pool.Cap()) {
		e.startCleaningLocked()
		pi, pool = e.writePool()
	}

	keyHash := kv.HashKey(key)
	idx, existed, ok := e.table.FindSlot(keyHash)
	if !ok {
		e.stats.AllocFailures++
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
	tAlloc := e.sink.Now()
	e.sink.Charge(h, OpAlloc, size)
	pi, pool = e.writePool()
	if !existed && pi == 1 {
		e.table.SetMark(idx, pi)
	}
	en := e.table.Entry(idx)
	pre := e.chainHead(en)

	hd := kv.Header{
		PrePtr:    pre,
		NextPtr:   kv.NilPtr,
		Seq:       e.seq(),
		CreatedAt: e.sink.Now(),
		CRC:       crcv,
		VLen:      vlen,
		Flags:     kv.FlagValid,
	}
	off, allocOK := pool.AppendObject(&hd, key)
	if !allocOK {
		if !existed {
			// Give back the slot FindSlot claimed above, or repeated
			// failing PUTs of distinct keys would consume buckets until
			// the table reports full.
			e.table.Release(idx)
			e.stats.SlotsReleased++
		}
		e.stats.AllocFailures++
		e.observeH(h, int(OpAlloc), tAlloc)
		e.trace("put", "pool_full", keyHash, hd.Seq)
		return PutResult{Status: StatusFull}
	}
	e.observeH(h, int(OpAlloc), tAlloc)

	e.table.SetLoc(idx, pi, kv.PackLoc(off, size))
	if en.Tombstone() {
		// Publish the new location BEFORE clearing the tombstone: each
		// table word persists individually, so the other order leaves a
		// crash window where the entry is un-tombstoned but still points
		// at the pre-delete version — an acknowledged DELETE would
		// resurrect on recovery. The new version's sequence number becomes
		// the entry's cut: pre-delete versions in the log stay dead for
		// the cleaner, staged-slot reads, and recovery.
		e.table.Undelete(idx, hd.Seq)
	}

	// Maintain the forward link (Figure 4's NextPTR): the previous
	// version now knows its successor, which log cleaning uses to locate
	// the next version of a migrated object.
	if prePool, preOff, _, ok := kv.UnpackVPtr(pre); ok {
		e.pools[prePool].SetNextPtr(preOff, kv.PackVPtr(pi, off, size))
	}
	return PutResult{Status: StatusOK, Pool: pi, Off: off, Len: size, Seq: hd.Seq}
}

// Get implements the RPC side of the hybrid read scheme (GET steps 6-8 of
// Figure 6) with the selective durability guarantee: check the durability
// flag first, verify+persist only when needed, and roll back through the
// version list to the newest intact version.
func (e *Engine) Get(h any, key []byte) GetResult {
	e.mu.Lock()
	defer e.mu.Unlock()
	t0 := e.sink.Now()
	defer func() { e.observeMop(h, mopGet, t0) }()
	return e.getLocked(h, key, -1, NoSeqLimit)
}

// GetBatch resolves several keys under ONE lock acquisition — the engine
// side of the doorbell-batched multi-GET. slots optionally carries a
// client-cached bucket index per key (-1 for none); a valid hint skips the
// probe walk, a stale one degrades to a full lookup. Results are
// index-aligned with keys.
func (e *Engine) GetBatch(h any, keys [][]byte, slots []int) []GetResult {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stats.GetBatches++
	res := make([]GetResult, len(keys))
	for i, key := range keys {
		t0 := e.sink.Now()
		hint := -1
		if slots != nil {
			hint = slots[i]
		}
		res[i] = e.getLocked(h, key, hint, NoSeqLimit)
		e.observeMop(h, mopGet, t0)
	}
	return res
}

// getLocked is the shared body of Get, GetBatch, and the snapshot read.
// seqLimit bounds which versions may be served: versions with a larger
// sequence number are walked past untouched (no verify, no timeout
// invalidation) — they are simply "in the snapshot's future". Normal
// reads pass NoSeqLimit, which admits everything. Callers hold mu.
func (e *Engine) getLocked(h any, key []byte, slotHint int, seqLimit uint64) GetResult {
	e.stats.Gets++
	keyHash := kv.HashKey(key)
	t0 := e.sink.Now()
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
	e.observeH(h, int(OpLookup), t0)
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
		tScan := e.sink.Now()
		e.sink.Charge(h, OpGetScan, 0) // header fetch + durability check
		hd := pool.Header(off)
		e.observeH(h, int(OpGetScan), tScan)
		if hd.Magic != kv.Magic {
			break
		}
		if hd.Valid() && hd.Seq <= seqLimit {
			if hd.Durable() && !e.cfg.DisableSelectiveDurability {
				if first {
					e.stats.GetFastPath++
				} else {
					e.stats.GetRolledBack++
					e.trace("get", "rolled_back", keyHash, hd.Seq)
				}
				return GetResult{Status: StatusOK, Pool: pi, Off: off, Len: totalLen, KLen: hd.KLen,
					Slot: idx, Seq: hd.Seq, Durable: true}
			}
			if hd.Durable() {
				// Ablation mode: re-verify despite the flag.
				tCRC := e.sink.Now()
				e.sink.Charge(h, OpCRC, hd.VLen)
				e.observeH(h, int(OpCRC), tCRC)
				tFlush := e.sink.Now()
				e.sink.Charge(h, OpFlushClean, totalLen)
				e.observeH(h, int(OpFlushClean), tFlush)
				e.stats.GetVerified++
				return GetResult{Status: StatusOK, Pool: pi, Off: off, Len: totalLen, KLen: hd.KLen,
					Slot: idx, Seq: hd.Seq, Durable: true}
			}
			// Not yet durable: verify and persist on demand.
			tCRC := e.sink.Now()
			e.sink.Charge(h, OpCRC, hd.VLen)
			e.valScratch = pool.ReadValueInto(e.valScratch, off, hd.KLen, hd.VLen)
			match := crc.Checksum(e.valScratch) == hd.CRC
			e.observeH(h, int(OpCRC), tCRC)
			if match {
				okObj, mirrored := e.mirrorVersion(h, pi, off, hd)
				if !okObj {
					// The cleaner recycled this pool while the engine lock
					// was dropped around the mirror call: restart from the
					// table lookup.
					return e.getLocked(h, key, -1, seqLimit)
				}
				if mirrored {
					tFlush := e.sink.Now()
					e.sink.Charge(h, OpFlush, totalLen)
					pool.FlushObject(off, hd.KLen, hd.VLen)
					// Re-read the flags: the cleaner may have set FlagTrans
					// during the mirror's unlock window, and OR-ing the stale
					// pre-window flags back would clear that mark.
					pool.SetFlags(off, pool.Header(off).Flags|kv.FlagDurable)
					e.observeH(h, int(OpFlush), tFlush)
					if first {
						e.stats.GetVerified++
					} else {
						e.stats.GetRolledBack++
						e.trace("get", "rolled_back", keyHash, hd.Seq)
					}
					return GetResult{Status: StatusOK, Pool: pi, Off: off, Len: totalLen, KLen: hd.KLen,
						Slot: idx, Seq: hd.Seq, Durable: true}
				}
				// No quorum: the version is intact but may not be served as
				// durable — walk back like an in-flight value and let a
				// later pass retry the mirror.
			}
			if e.sink.Now()-hd.CreatedAt > uint64(e.cfg.VerifyTimeout) {
				// Re-read the flags before invalidating: a concurrent
				// BG/verify pass may have reached quorum and set
				// FlagDurable (or the cleaner FlagTrans) during the
				// mirror's unlock window above, and writing the stale
				// pre-window flags back would destroy an acknowledged
				// write.
				cur := pool.Header(off).Flags
				if cur&kv.FlagDurable != 0 {
					continue // serve it via the durable fast path
				}
				pool.SetFlags(off, cur&^kv.FlagValid)
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
	e.sink.Charge(h, OpLookup, 0)
	idx, en, found := e.table.Lookup(kv.HashKey(key))
	e.observeH(h, int(OpLookup), t0)
	if !found || en.Tombstone() {
		return StatusNotFound
	}
	e.table.Delete(idx)
	return StatusOK
}

var errInvalidConfig = errors.New("store: invalid config (need Buckets, PoolSize, VerifyTimeout > 0)")
