package client

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"efactory/internal/adapt"
	"efactory/internal/cluster"
	"efactory/internal/crc"
	"efactory/internal/hint"
	"efactory/internal/kv"
	"efactory/internal/trace"
	"efactory/internal/wire"
)

// maxEntryProbes bounds client-side linear probing before falling back to
// the RPC path (the server probes authoritatively).
const maxEntryProbes = 4

// Core runs the client protocol over one transport's Verbs against one
// server instance. Ops are safe for concurrent use when the Verbs are; the
// configuration methods (SetHybridRead, EnableHintCache, EnableAdaptive,
// EnableTracing) are not — call them before issuing concurrent ops.
//
// Every op method runs ONE attempt under a caller-owned trace context (nil
// = untraced; see Begin/End). An error from Call or a burst ends the
// attempt and is returned as is, so the transport can classify it and
// decide whether to run another.
type Core struct {
	v       Verbs
	shards  []Shard
	buckets int // per shard

	hybrid bool
	// cleaning is the simulated transport's log-cleaning notification
	// state: while set, every read takes the RPC path (§4.4). Written only
	// by a single-threaded binding (ObserveCleaning).
	cleaning bool
	hints    *hint.Cache   // nil unless EnableHintCache was called
	tracer   *trace.Tracer // nil unless EnableTracing was called

	// epoch is the cluster-map epoch the binding stamps on routed requests
	// (0 = unclustered, which is all the simulator knows).
	epoch atomic.Uint64

	// mu guards stats and pred (the predictor is not synchronized).
	mu    sync.Mutex
	stats *Stats
	// pred, when non-nil (EnableAdaptive), preemptively routes reads of
	// recently-written objects straight to RPC instead of wasting the
	// optimistic one-sided fetch on a value whose durability flag cannot
	// be set yet.
	pred *adapt.ReadPredictor
}

// New builds a core over v for a server with the given per-shard regions
// and per-shard bucket count. Path choices are counted into stats. The
// hybrid read scheme starts enabled; everything else starts off.
func New(v Verbs, shards []Shard, buckets int, stats *Stats) *Core {
	return &Core{v: v, shards: shards, buckets: buckets, hybrid: true, stats: stats}
}

// SetHybridRead toggles the hybrid read scheme. Disabling it yields the
// "eFactory w/o hr" configuration from the paper's factor analysis (§6.1):
// every GET uses the RPC+RDMA path.
func (c *Core) SetHybridRead(on bool) { c.hybrid = on }

// ObserveCleaning records whether the server is cleaning its log.
func (c *Core) ObserveCleaning(on bool) { c.cleaning = on }

// EnableAdaptive turns on per-object adaptive hybrid reads: a read of an
// object written within the predictor's durability horizon skips the
// optimistic one-sided fetch (which would bounce off the unset durability
// flag) and goes straight to RPC.
func (c *Core) EnableAdaptive() { c.pred = adapt.NewReadPredictor() }

// EnableHintCache attaches a client-side location/durability hint cache
// with the given per-shard capacity (hint.DefaultCap if non-positive). A
// hit lets the optimistic read fetch the hash entry and the object in one
// burst instead of walking the probe chain; the entry READ always rides
// along and is authoritative, so stale hints are detected and invalidated,
// never served.
func (c *Core) EnableHintCache(capPerShard int) {
	c.hints = hint.New(len(c.shards), capPerShard)
}

// HintCache returns the attached hint cache (nil when disabled).
func (c *Core) HintCache() *hint.Cache { return c.hints }

// AdvanceEpoch records the cluster-map epoch routed requests carry.
// Forward-only; advancing it bulk-invalidates the hint cache, since every
// resident hint was learned under placement that may no longer hold.
func (c *Core) AdvanceEpoch(epoch uint64) {
	for {
		cur := c.epoch.Load()
		if epoch <= cur {
			return
		}
		if c.epoch.CompareAndSwap(cur, epoch) {
			break
		}
	}
	if c.hints != nil {
		c.hints.AdvanceEpoch(epoch)
	}
}

// Epoch returns the epoch routed requests currently carry.
func (c *Core) Epoch() uint64 { return c.epoch.Load() }

// EnableTracing samples 1-in-sampleEvery ops into propagated request
// traces: the client records its own sections (checksum, RPCs, one-sided
// bursts) on the Verbs clock, the trace ID rides the wire, and the
// server's engine sections join the same trace. Finished traces pass the
// tail-retention rules (root duration >= slowNS; 0 retains every sampled
// trace) into a bounded store read via Tracer. sampleEvery <= 0 disables
// tracing (the default): no IDs are minted and no wire bytes are added.
func (c *Core) EnableTracing(sampleEvery int, slowNS uint64) {
	c.tracer = trace.NewTracer(sampleEvery, slowNS)
}

// Tracer returns the retained-trace store (nil when tracing was never
// enabled).
func (c *Core) Tracer() *trace.Tracer { return c.tracer }

// Begin head-samples one op against the core's tracer; see BeginOp.
func (c *Core) Begin(name string, keyHash uint64) (*trace.Ctx, uint64) {
	return BeginOp(c.tracer, c.v, name, keyHash)
}

// End closes an op opened by Begin; see EndOp.
func (c *Core) End(tc *trace.Ctx, t0 uint64, err error) { EndOp(c.tracer, c.v, tc, t0, err) }

// BeginOp head-samples one op against t. On the sampled path it opens the
// root span (left un-ended until EndOp) and returns the context and start
// time; on the common path it returns (nil, 0) and every downstream trace
// call is a no-op.
func BeginOp(t *trace.Tracer, clk Clock, name string, keyHash uint64) (*trace.Ctx, uint64) {
	tc := trace.NewCtx(t.Sample())
	if tc == nil {
		return nil, 0
	}
	t0 := clk.Now()
	tc.Root(name, t0, 0)
	tc.SetRoot(0, "", keyHash)
	return tc, t0
}

// EndOp closes the root span with the op's outcome and submits the trace
// for tail retention. Wrong-epoch redirects and errors mark the trace so
// the tail rules keep it regardless of duration.
func EndOp(t *trace.Tracer, clk Clock, tc *trace.Ctx, t0 uint64, err error) {
	if tc == nil {
		return
	}
	end := clk.Now()
	outcome := "ok"
	var we *cluster.WrongEpochError
	switch {
	case err == nil:
	case errors.Is(err, ErrNotFound):
		outcome = "not_found"
	case errors.As(err, &we):
		outcome = "wrong_epoch"
		tc.Mark("wrong_epoch")
	default:
		outcome = "error"
		tc.Mark("error")
	}
	tc.SetRoot(end, outcome, 0)
	t.Submit(tc, end-t0)
}

// now reads the trace clock only for sampled ops, so the untraced path
// never pays for it (a syscall over TCP).
func (c *Core) now(tc *trace.Ctx) uint64 {
	if tc == nil {
		return 0
	}
	return c.v.Now()
}

func (c *Core) count(field *int, n int) {
	c.mu.Lock()
	*field += n
	c.mu.Unlock()
}

// notePut records a completed write with the read predictor.
func (c *Core) notePut(keyHash uint64) {
	if c.pred == nil {
		return
	}
	c.mu.Lock()
	c.pred.NotePut(keyHash)
	c.mu.Unlock()
}

// preempt asks the read predictor whether to skip the optimistic fetch.
func (c *Core) preempt(keyHash uint64) bool {
	if c.pred == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pred.Preempt(keyHash)
}

// readOutcome counts one hybrid read's outcome (pure success or fallback)
// and feeds it back to the predictor's horizon estimator.
func (c *Core) readOutcome(pure bool) {
	c.mu.Lock()
	if pure {
		c.stats.PureReads++
	} else {
		c.stats.FallbackReads++
	}
	if c.pred != nil {
		if pure {
			c.pred.ObservePure()
		} else {
			c.pred.ObserveFallback()
		}
	}
	c.mu.Unlock()
}

// noteLocation records a location learned from an RPC response (PUT
// allocation, GET grant). The key's table slot survives overwrites, so a
// previously learned slot is kept; durable records whether the version at
// this location was known durable when the response was issued.
func (c *Core) noteLocation(key []byte, pool uint32, off uint64, tlen, klen int, seq uint64, durable bool) {
	if c.hints == nil {
		return
	}
	shard := cluster.ShardFor(key, len(c.shards))
	slot := -1
	if prev, ok := c.hints.Peek(shard, key); ok {
		slot = prev.Slot
	}
	c.hints.Insert(shard, key, hint.Entry{
		Slot: slot, Pool: pool, Off: off, Len: tlen, KLen: klen, Seq: seq, Durable: durable,
	})
}

// dropHint invalidates key's hint (client-initiated delete or commit).
func (c *Core) dropHint(key []byte) {
	if c.hints != nil {
		c.hints.Invalidate(cluster.ShardFor(key, len(c.shards)), key)
	}
}

// scratch holds one op's reusable buffers. Pooled package-wide, so the
// warmed buffers survive reconnects and concurrent ops each check out
// their own.
type scratch struct {
	ops    []wire.PutOp    // PutBatch op headers
	opsBuf []byte          // encoded TPutBatch payload
	grants []wire.PutGrant // decoded TPutBatchResp payload
	reqs   []Req           // one-sided burst
	entry  [kv.EntrySize]byte
	obj    []byte // one object (single-key reads)
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// object returns the scratch object buffer resized to n bytes.
func (sc *scratch) object(n int) []byte {
	if cap(sc.obj) < n {
		sc.obj = make([]byte, n)
	}
	return sc.obj[:n]
}

// readOne posts a single one-sided READ into buf and reports whether the
// responder accepted it.
func (c *Core) readOne(sc *scratch, buf []byte, rkey uint32, off uint64) (ok bool, err error) {
	sc.reqs = append(sc.reqs[:0], Req{Buf: buf, RKey: rkey, Off: off})
	if err := c.v.ReadBurst(sc.reqs); err != nil {
		return false, err
	}
	return !sc.reqs[0].NAK, nil
}

// Put stores value under key using the client-active scheme with
// asynchronous durability (Figure 5): checksum the value, obtain an
// allocation via RPC, then push the value with a one-sided write. No
// durability round trip — the background thread persists it. A repeated
// attempt redoes the allocation: the previous attempt's slot (if granted)
// is left torn and gets invalidated by background verification.
func (c *Core) Put(tc *trace.Ctx, key, value []byte) error {
	c.count(&c.stats.Puts, 1)
	t := c.now(tc)
	c.v.ChargeCRC(len(value))
	sum := crc.Checksum(value)
	tc.Add("client_crc", t, c.now(tc))
	t = c.now(tc)
	resp, buf, err := c.v.Call(wire.Msg{Type: wire.TPut, Crc: sum, Len: uint64(len(value)), Key: key, Trace: tc.ID()})
	tc.Add("alloc_rpc", t, c.now(tc))
	if err != nil {
		return err
	}
	c.v.Release(buf) // TPutResp carries scalars only — nothing aliases buf
	switch resp.Status {
	case wire.StOK:
	case wire.StFull:
		return ErrServerFull
	default:
		return &StatusError{Op: "put", Status: resp.Status}
	}
	c.noteLocation(key, resp.RKey, resp.Off, int(resp.Len), len(key), 0, false)
	c.notePut(kv.HashKey(key))
	sc := scratchPool.Get().(*scratch)
	sc.reqs = append(sc.reqs[:0], Req{Buf: value, RKey: resp.RKey, Off: resp.Off + uint64(kv.ValueOffset(len(key)))})
	t = c.now(tc)
	err = c.v.WriteBurst(sc.reqs)
	tc.Add("doorbell_write", t, c.now(tc))
	if err == nil && sc.reqs[0].NAK {
		err = ErrNAK
	}
	scratchPool.Put(sc)
	return err
}

// PutBatch stores len(keys) key/value pairs with one multi-op allocation
// RPC and one burst of one-sided value writes, every request posted before
// the first completion is awaited. Completion-vs-durability semantics
// match Put — durability stays asynchronous, one object at a time, in the
// background. errs (len(keys) long) is filled in place, one entry per op
// in order: nil, ErrServerFull, or the attempt-level failure — also
// returned — shared by every op it reached.
func (c *Core) PutBatch(tc *trace.Ctx, keys, values [][]byte, errs []error) error {
	clear(errs)
	c.count(&c.stats.Puts, len(keys))
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	t := c.now(tc)
	ops := sc.ops[:0]
	for i := range keys {
		c.v.ChargeCRC(len(values[i]))
		ops = append(ops, wire.PutOp{Crc: crc.Checksum(values[i]), VLen: len(values[i]), Key: keys[i]})
	}
	sc.ops = ops
	tc.Add("client_crc", t, c.now(tc))
	sc.opsBuf = wire.AppendPutOps(sc.opsBuf[:0], ops)
	t = c.now(tc)
	resp, buf, err := c.v.Call(wire.Msg{Type: wire.TPutBatch, Value: sc.opsBuf, Trace: tc.ID()})
	tc.Add("alloc_rpc", t, c.now(tc))
	if err != nil {
		return failAll(errs, err)
	}
	if resp.Status != wire.StOK {
		c.v.Release(buf)
		return failAll(errs, &StatusError{Op: "put batch", Status: resp.Status})
	}
	grants, err := wire.DecodePutGrantsInto(resp.Value, sc.grants)
	c.v.Release(buf) // grants are scalar copies
	if err != nil || len(grants) != len(keys) {
		return failAll(errs, fmt.Errorf("efactory: malformed put batch response: %d grants for %d ops: %v", len(grants), len(keys), err))
	}
	sc.grants = grants
	reqs := sc.reqs[:0]
	for i, g := range grants {
		switch g.Status {
		case wire.StOK:
			c.noteLocation(keys[i], g.RKey, g.Off, int(g.Len), len(keys[i]), 0, false)
			c.notePut(kv.HashKey(keys[i]))
			reqs = append(reqs, Req{Buf: values[i], RKey: g.RKey, Off: g.Off + uint64(kv.ValueOffset(len(keys[i])))})
		case wire.StFull:
			errs[i] = ErrServerFull
		default:
			errs[i] = &StatusError{Op: "put", Status: g.Status}
		}
	}
	sc.reqs = reqs
	t = c.now(tc)
	err = c.v.WriteBurst(reqs)
	tc.Add("doorbell_write", t, c.now(tc))
	if err != nil {
		return failAll(errs, err)
	}
	j := 0
	for i, g := range grants {
		if g.Status == wire.StOK {
			if reqs[j].NAK {
				errs[i] = ErrNAK
			}
			j++
		}
	}
	c.count(&c.stats.BatchedPuts, len(reqs))
	return nil
}

// Get fetches the value for key with the hybrid read scheme (Figure 6):
// optimistically resolve the hash entry and the object with one-sided
// reads and check the durability flag embedded in the object; if the
// object is not yet completely durable (or cleaning is in progress), fall
// back to the RPC path where the server guarantees consistency.
func (c *Core) Get(tc *trace.Ctx, key []byte) ([]byte, error) {
	c.count(&c.stats.Gets, 1)
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	if !c.hybrid || c.cleaning {
		c.count(&c.stats.RPCReads, 1)
		return c.rpcRead(tc, sc, key)
	}
	keyHash := kv.HashKey(key)
	if c.preempt(keyHash) {
		// Written within the durability horizon: the optimistic fetch
		// would bounce, so take the authoritative path now.
		c.count(&c.stats.AdaptivePreempts, 1)
		return c.rpcRead(tc, sc, key)
	}
	verdict := readMiss
	if c.hints != nil {
		val, v, err := c.hintedRead(tc, sc, key, keyHash)
		if err != nil || v == readHit {
			return val, err
		}
		verdict = v
	}
	if verdict == readMiss {
		// No usable hint: run the probe walk.
		val, v, err := c.pureRead(tc, sc, key, keyHash)
		if err != nil || v == readHit {
			return val, err
		}
	}
	c.readOutcome(false)
	return c.rpcRead(tc, sc, key)
}

// Outcomes of one optimistic read attempt.
const (
	readMiss     = iota // no usable hint (or it proved stale): run the probe walk
	readHit             // value returned one-sidedly
	readFallback        // the key resolved to "ask the server"
)

// Verdicts of checkObject.
const (
	objOK        = iota // a durable, intact version of the key
	objUndurable        // not completely durable: the location may still be right
	objForeign          // another key's bytes or torn metadata: the location is wrong
)

// checkObject applies the optimistic read's object checks (GET step 4) to
// bytes fetched one-sidedly: magic, valid and durable flags, the key
// itself (the table is keyed by hash), and that the header's lengths stay
// inside what was fetched.
func checkObject(obj, key []byte) (kv.Header, int) {
	if len(obj) < kv.HeaderSize {
		return kv.Header{}, objForeign
	}
	h := kv.DecodeHeader(obj)
	if h.Magic != kv.Magic || !h.Valid() || !h.Durable() {
		return h, objUndurable
	}
	if h.KLen != len(key) || kv.KeyOffset()+h.KLen > len(obj) ||
		string(obj[kv.KeyOffset():kv.KeyOffset()+h.KLen]) != string(key) {
		return h, objForeign // hash collision; let the server disambiguate
	}
	if kv.ValueOffset(h.KLen)+h.VLen > len(obj) {
		return h, objForeign // torn metadata
	}
	return h, objOK
}

// location is the client's one rule for turning a one-sidedly read hash
// entry into a read location: the object in the entry's current pool (an
// entry's mark equals that pool's index). ok is false — ask the server —
// for a tombstone, for an entry with no current location, and for an
// entry naming two locations, which happens only mid-clean: which of them
// is the key's newest is the server's head rule to decide. This is §4.4's
// "use the RPC path during cleaning", decided per entry rather than by a
// notification.
func (g Shard) location(e kv.Entry) (pool uint32, off uint64, tlen int, ok bool) {
	if e.Tombstone() || e.Current() == 0 || e.Other() != 0 {
		return 0, 0, 0, false
	}
	off, tlen, _ = kv.UnpackLoc(e.Current())
	return g.Pool[e.Mark()&1], off, tlen, true
}

// value returns the value bytes of an object that passed checkObject or
// grantedObject.
func value(obj []byte, h kv.Header) []byte {
	vo := kv.ValueOffset(h.KLen)
	return obj[vo : vo+h.VLen : vo+h.VLen]
}

// grantedObject checks bytes fetched from a location the server granted
// (it only grants durable, intact versions, so only framing is checked).
func grantedObject(obj []byte, off uint64) (kv.Header, error) {
	if len(obj) >= kv.HeaderSize {
		h := kv.DecodeHeader(obj)
		if h.Magic == kv.Magic && kv.ValueOffset(h.KLen)+h.VLen <= len(obj) {
			return h, nil
		}
	}
	return kv.Header{}, fmt.Errorf("efactory: server returned corrupt object at %d", off)
}

// pureRead attempts the pure one-sided path: walk the probe chain for the
// key's entry, then fetch the object it names.
func (c *Core) pureRead(tc *trace.Ctx, sc *scratch, key []byte, keyHash uint64) ([]byte, int, error) {
	shard := cluster.ShardOf(keyHash, len(c.shards))
	g := c.shards[shard]
	idx := int(keyHash % uint64(c.buckets))
	var entry kv.Entry
	slot := -1
	t := c.now(tc)
	for probe := 0; probe < maxEntryProbes; probe++ {
		bucket := (idx + probe) % c.buckets
		ok, err := c.readOne(sc, sc.entry[:], g.Table, uint64(bucket*kv.EntrySize))
		if err != nil {
			return nil, 0, err
		}
		if !ok {
			break // the table region no longer resolves: the server decides
		}
		e := kv.DecodeEntry(sc.entry[:])
		if e.KeyHash == 0 {
			if c.epoch.Load() != 0 {
				// Clustered: an empty bucket may mean the key migrated away
				// and was purged, not that it is absent. Only the owning
				// server may conclude NotFound — fall back to the RPC path,
				// where a misroute surfaces as a wrong-epoch rejection.
				return nil, readFallback, nil
			}
			return nil, 0, ErrNotFound
		}
		if e.Free() {
			continue // reclaimed slot: probe past it
		}
		if e.KeyHash == keyHash {
			entry, slot = e, bucket
			break
		}
	}
	tc.Add("entry_probe", t, c.now(tc))
	pool, off, tlen, ok := g.location(entry)
	if slot < 0 || !ok {
		return nil, readFallback, nil // the server resolves authoritatively
	}
	obj := sc.object(tlen)
	t = c.now(tc)
	ok, err := c.readOne(sc, obj, pool, off)
	tc.Add("object_read", t, c.now(tc))
	if err != nil {
		return nil, 0, err
	}
	h, verdict := checkObject(obj, key)
	if !ok || verdict != objOK {
		return nil, readFallback, nil
	}
	if c.hints != nil {
		c.hints.Insert(shard, key, hint.Entry{
			Slot: slot, Pool: pool, Off: off, Len: tlen, KLen: h.KLen, Seq: h.Seq, Durable: true,
		})
	}
	c.readOutcome(true)
	return append([]byte(nil), value(obj, h)...), readHit, nil
}

// hintedRead attempts the hint-accelerated optimistic read: one burst
// carrying the hash-entry READ at the hinted slot and a speculative object
// READ at the hinted location. The entry is authoritative — the
// speculative bytes are accepted only if the entry still names that exact
// location; if it points elsewhere the object is re-fetched from the
// entry's location before the usual durability/key checks.
func (c *Core) hintedRead(tc *trace.Ctx, sc *scratch, key []byte, keyHash uint64) ([]byte, int, error) {
	shard := cluster.ShardOf(keyHash, len(c.shards))
	h, ok := c.hints.Lookup(shard, key)
	if !ok {
		return nil, readMiss, nil
	}
	if !h.Durable {
		// Last seen undurable: the optimistic read would fail its
		// durability check anyway, so go straight to the server.
		return nil, readFallback, nil
	}
	g := c.shards[shard]
	slot := h.Slot
	if slot < 0 {
		slot = int(keyHash % uint64(c.buckets)) // probe-0 guess
	}
	obj := sc.object(h.Len)
	sc.reqs = append(sc.reqs[:0],
		Req{Buf: sc.entry[:], RKey: g.Table, Off: uint64(slot * kv.EntrySize)},
		Req{Buf: obj, RKey: h.Pool, Off: h.Off})
	t := c.now(tc)
	err := c.v.ReadBurst(sc.reqs)
	tc.Add("doorbell_read", t, c.now(tc))
	if err != nil {
		return nil, 0, err
	}
	e := kv.DecodeEntry(sc.entry[:])
	if sc.reqs[0].NAK || sc.reqs[1].NAK || e.KeyHash != keyHash || e.Free() {
		// The hinted region no longer resolves, or it is the wrong slot
		// (cleaning or churn moved the entry): probe normally.
		c.hints.Invalidate(shard, key)
		return nil, readMiss, nil
	}
	pool, off, tlen, ok := g.location(e)
	if !ok {
		c.hints.Invalidate(shard, key)
		return nil, readFallback, nil
	}
	if off != h.Off || tlen != h.Len || pool != h.Pool {
		// The key moved; the speculative bytes are a stale version. The
		// entry names the current location — fetch that instead.
		c.hints.Invalidate(shard, key)
		obj = sc.object(tlen)
		t = c.now(tc)
		ok, err := c.readOne(sc, obj, pool, off)
		tc.Add("object_read", t, c.now(tc))
		if err != nil {
			return nil, 0, err
		}
		if !ok {
			return nil, readFallback, nil
		}
	}
	hd, verdict := checkObject(obj, key)
	if verdict != objOK {
		if verdict == objForeign {
			c.hints.Invalidate(shard, key)
		}
		return nil, readFallback, nil // not completely durable: server resolves
	}
	c.hints.Insert(shard, key, hint.Entry{
		Slot: slot, Pool: pool, Off: off, Len: tlen, KLen: hd.KLen, Seq: hd.Seq, Durable: true,
	})
	c.count(&c.stats.HintedReads, 1)
	c.readOutcome(true)
	return append([]byte(nil), value(obj, hd)...), readHit, nil
}

// rpcRead is the RPC+one-sided read scheme: the server returns the
// location of a durable, intact version; the client fetches it one-sidedly.
func (c *Core) rpcRead(tc *trace.Ctx, sc *scratch, key []byte) ([]byte, error) {
	t := c.now(tc)
	resp, buf, err := c.v.Call(wire.Msg{Type: wire.TGet, Key: key, Trace: tc.ID()})
	tc.Add("get_rpc", t, c.now(tc))
	if err != nil {
		return nil, err
	}
	c.v.Release(buf) // TGetResp carries scalars only
	switch resp.Status {
	case wire.StOK:
	case wire.StNotFound:
		return nil, ErrNotFound
	default:
		return nil, &StatusError{Op: "get", Status: resp.Status}
	}
	obj := sc.object(int(resp.Len))
	t = c.now(tc)
	ok, err := c.readOne(sc, obj, resp.RKey, resp.Off)
	tc.Add("object_read", t, c.now(tc))
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, ErrNAK
	}
	h, err := grantedObject(obj, resp.Off)
	if err != nil {
		return nil, err
	}
	// The server only grants durable versions, so the hint is warm for the
	// next optimistic read.
	c.noteLocation(key, resp.RKey, resp.Off, int(resp.Len), h.KLen, h.Seq, true)
	return append([]byte(nil), value(obj, h)...), nil
}

// Delete removes key. The outcome of a Delete whose attempt fails is
// unknown — the transport's retry layer owns that ambiguity.
func (c *Core) Delete(tc *trace.Ctx, key []byte) error {
	c.dropHint(key)
	t := c.now(tc)
	resp, buf, err := c.v.Call(wire.Msg{Type: wire.TDel, Key: key, Trace: tc.ID()})
	tc.Add("del_rpc", t, c.now(tc))
	if err != nil {
		return err
	}
	c.v.Release(buf)
	switch resp.Status {
	case wire.StOK:
		return nil
	case wire.StNotFound:
		return ErrNotFound
	default:
		return &StatusError{Op: "del", Status: resp.Status}
	}
}
