package client

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

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
// configuration methods (SetHybridRead, EnableHintCache, EnableTracing) are
// not — call them before issuing concurrent ops.
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
	hints    *hint.Cache   // nil unless the core reads hinted
	tracer   *trace.Tracer // nil unless EnableTracing was called
	// inline is the server's inline budget: a PUT whose values total at
	// most this many bytes carries them in its allocation request, and a
	// read RPC asks for up to this many bytes of values in its reply. 0
	// means never, the paper's alloc-then-WRITE and grant-then-READ paths.
	inline int

	// epoch is the cluster-map epoch the binding stamps on routed requests
	// (0 = unclustered, which is all the simulator knows).
	epoch atomic.Uint64

	mu    sync.Mutex // guards stats
	stats *Stats
}

// New builds a core over v for a server with the given per-shard regions
// and per-shard bucket count, and the inline budget in bytes the server
// announced (0: none; see put and read). Path choices are counted into
// stats. The hybrid read scheme starts enabled, the hint cache detached
// (see EnableHintCache), tracing off.
func New(v Verbs, shards []Shard, buckets int, stats *Stats, inline int) *Core {
	return &Core{v: v, shards: shards, buckets: buckets, hybrid: true, stats: stats, inline: inline}
}

// SetHybridRead toggles the hybrid read scheme. Disabling it yields the
// "eFactory w/o hr" configuration from the paper's factor analysis (§6.1):
// every GET uses the RPC+RDMA path.
func (c *Core) SetHybridRead(on bool) { c.hybrid = on }

// ObserveCleaning records whether the server is cleaning its log.
func (c *Core) ObserveCleaning(on bool) { c.cleaning = on }

// EnableHintCache attaches a client-side location hint cache with one slot
// per server bucket (see internal/hint). A hint is learned from a durable
// read or from the client's own acknowledged write, which re-points it at
// the new version; Delete and TxnCommit drop it. A hit lets the optimistic
// read fetch the hash entry and the object in one burst instead of walking
// the probe chain; the entry READ always rides along and is authoritative,
// and the object keeps every check, so stale hints are detected and
// invalidated, never served.
func (c *Core) EnableHintCache() { c.hints = hint.New(len(c.shards), c.buckets) }

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

// EnableTracing samples ops into propagated request traces under t's
// head sampling: the client records its own sections (checksum, RPCs,
// one-sided bursts) on the Verbs clock, the trace ID rides the wire, and
// the server's engine sections join the same trace. Finished traces pass
// t's tail-retention rules into its bounded store, read via Tracer. A
// tracer that never samples mints no IDs and adds no wire bytes, as with
// no tracer (the default). The binding builds t, so it owns the tracer
// numbering (trace.NewTracer).
func (c *Core) EnableTracing(t *trace.Tracer) { c.tracer = t }

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

// learn records where a version of the key whose hash is keyHash lives —
// one just read durable (a pure or hinted read, or a server grant) or one
// the client just wrote — the one way a hint enters the cache. A location
// learned without its table slot (Slot < 0: a GET or PUT grant) keeps the
// slot learned before, since a key's slot survives overwrites.
func (c *Core) learn(shard int, keyHash uint64, e hint.Entry) {
	if c.hints != nil {
		c.hints.Insert(shard, keyHash, e)
	}
}

// learnWrite points key's hint at the object of the client's own write,
// acknowledged at the grant (rkey, off, tlen). If that version is not
// durable yet when it is read, the read's object check sends it to the
// server like any other undurable version.
func (c *Core) learnWrite(key []byte, rkey uint32, off uint64, tlen int) {
	if c.hints != nil {
		keyHash := kv.HashKey(key)
		c.learn(cluster.ShardOf(keyHash, len(c.shards)), keyHash, hint.Entry{Slot: -1, Pool: rkey, Off: off, Len: tlen})
	}
}

// dropHint invalidates key's hint: the client is about to delete the key
// or commit a transaction over it (Delete, TxnCommit), so the version the
// hint names is about to be superseded by one the client gets no grant for.
func (c *Core) dropHint(key []byte) {
	if c.hints != nil {
		keyHash := kv.HashKey(key)
		c.hints.Invalidate(cluster.ShardOf(keyHash, len(c.shards)), keyHash)
	}
}

// scratch holds one op's reusable buffers. Pooled package-wide, so the
// warmed buffers survive reconnects and concurrent ops each check out
// their own.
type scratch struct {
	ops       []wire.PutOp    // PutBatch op headers
	opsBuf    []byte          // encoded TPutBatch or TGetBatch payload
	grants    []wire.PutGrant // decoded TPutBatchResp payload
	reqs      []Req           // one-sided burst
	sts       []gbState       // read: per-key state
	entries   []byte          // read: one hash entry per key
	acted     []int           // read: the keys of a round, in burst order
	getOps    []wire.GetOp    // read: fallback op headers
	getGrants []wire.GetGrant // read: fallback grants
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// Put stores value under key: PutBatch's body (see put) over one key,
// sent as TPut and counted as a plain PUT.
func (c *Core) Put(tc *trace.Ctx, key, value []byte) error {
	keys, vals, errs := [1][]byte{key}, [1][]byte{value}, [1]error{}
	c.put(tc, keys[:], vals[:], errs[:], true)
	return errs[0]
}

// PutBatch stores len(keys) key/value pairs (see put). errs (len(keys)
// long) is filled in place, one entry per op in order: nil,
// ErrServerFull, a status error, or the attempt-level failure — also
// returned — shared by every op without an outcome of its own.
func (c *Core) PutBatch(tc *trace.Ctx, keys, values [][]byte, errs []error) error {
	return c.put(tc, keys, values, errs, false)
}

// put is the one PUT body: the client-active scheme with asynchronous
// durability (Figure 5). With no inline budget (the simulator's) the batch
// is one putRun. With one, it goes as consecutive runs whose values fit
// the budget, each of at least one op, and an op the log cannot hold
// (kv.Storable) is refused unsent. A repeated attempt redoes every
// allocation: the previous attempt's slots are superseded, or left torn
// and invalidated by background verification.
func (c *Core) put(tc *trace.Ctx, keys, values [][]byte, errs []error, single bool) error {
	clear(errs)
	c.count(&c.stats.Puts, len(keys))
	if c.inline == 0 {
		return c.putRun(tc, keys, values, errs, single)
	}
	for i := 0; i < len(keys); {
		if !kv.Storable(len(keys[i]), uint64(len(values[i]))) {
			errs[i] = &StatusError{Op: "put", Status: wire.StError}
			i++
			continue
		}
		j, total := i+1, len(values[i])
		for j < len(keys) && kv.Storable(len(keys[j]), uint64(len(values[j]))) && total+len(values[j]) <= c.inline {
			total += len(values[j])
			j++
		}
		if err := c.putRun(tc, keys[i:j], values[i:j], errs[i:j], single); err != nil {
			return failAll(errs, err)
		}
		i = j
	}
	return nil
}

// putRun is one allocation round: it checksums the values and asks for an
// allocation per key in one RPC — TPut for a single Put, TPutBatch
// otherwise. With an inline budget the values ride that request, the
// server writes them before the entries publish, and the RPC's ack is the
// PUT's. Otherwise one burst of one-sided WRITEs, every request posted
// before the first completion is awaited, pushes them to the granted
// objects. No durability round trip either way: the background verifier
// persists each object. Every acknowledged op re-points its key's hint at
// the new object, so the client's next read of the key is one burst.
func (c *Core) putRun(tc *trace.Ctx, keys, values [][]byte, errs []error, single bool) error {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	t := c.now(tc)
	ops := sc.ops[:0]
	total := 0
	for i := range keys {
		c.v.ChargeCRC(len(values[i]))
		ops = append(ops, wire.PutOp{Crc: crc.Checksum(values[i]), VLen: len(values[i]), Key: keys[i], Value: values[i]})
		total += len(values[i])
	}
	sc.ops = ops
	tc.Add("client_crc", t, c.now(tc))
	inline := c.inline > 0
	req := wire.Msg{Type: wire.TPutBatch, Trace: tc.ID()}
	if single {
		req.Type, req.Crc, req.Len, req.Key = wire.TPut, ops[0].Crc, uint64(total), keys[0]
		if inline {
			req.Value = values[0]
		}
	} else {
		if inline {
			// Selects the inline layout; 0 when every value is empty,
			// which the allocation-only layout says just as well.
			req.Len = uint64(total)
		}
		sc.opsBuf = wire.AppendPutOps(sc.opsBuf[:0], ops, req.Len != 0)
		req.Value = sc.opsBuf
	}
	t = c.now(tc)
	resp, buf, err := c.v.Call(req)
	tc.Add("alloc_rpc", t, c.now(tc))
	if err != nil {
		return failAll(errs, err)
	}
	grants := sc.grants[:0]
	switch {
	case single:
		grants = append(grants, wire.PutGrant{Status: resp.Status, RKey: resp.RKey, Off: resp.Off, Len: uint32(resp.Len)})
	case resp.Status != wire.StOK:
		c.v.Release(buf)
		return failAll(errs, &StatusError{Op: "put batch", Status: resp.Status})
	default:
		grants, err = wire.DecodePutGrantsInto(resp.Value, grants)
	}
	c.v.Release(buf) // grants are scalar copies
	if err != nil || len(grants) != len(keys) {
		return failAll(errs, fmt.Errorf("efactory: malformed put batch response: %d grants for %d ops: %v", len(grants), len(keys), err))
	}
	sc.grants = grants
	reqs, granted := sc.reqs[:0], 0
	for i, g := range grants {
		switch g.Status {
		case wire.StOK:
			granted++
			if !inline {
				reqs = append(reqs, Req{Buf: values[i], RKey: g.RKey, Off: g.Off + uint64(kv.ValueOffset(len(keys[i])))})
			}
		case wire.StFull:
			errs[i] = ErrServerFull
		default:
			errs[i] = &StatusError{Op: "put", Status: g.Status}
		}
	}
	sc.reqs = reqs
	if len(reqs) > 0 {
		t = c.now(tc)
		err = c.v.WriteBurst(reqs)
		tc.Add("doorbell_write", t, c.now(tc))
		if err != nil {
			return failAll(errs, err)
		}
	}
	j := 0 // the next WRITE, in grant order
	for i, g := range grants {
		if g.Status != wire.StOK {
			continue
		}
		if !inline {
			j++
			if reqs[j-1].NAK {
				errs[i] = ErrNAK
				continue
			}
		}
		c.learnWrite(keys[i], g.RKey, g.Off, int(g.Len))
	}
	if !single {
		c.count(&c.stats.BatchedPuts, granted)
	}
	return nil
}

// Get fetches the value for key with the hybrid read scheme (Figure 6):
// GetBatch's read (see read) over one key, counted as a plain GET.
func (c *Core) Get(tc *trace.Ctx, key []byte) ([]byte, error) {
	c.count(&c.stats.Gets, 1)
	keys, vals, errs := [1][]byte{key}, [1][]byte{}, [1]error{}
	c.read(tc, keys[:], vals[:], errs[:])
	return vals[0], errs[0]
}

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

// value returns the value bytes of an object that passed checkObject.
func value(obj []byte, h kv.Header) []byte {
	vo := kv.ValueOffset(h.KLen)
	return obj[vo : vo+h.VLen : vo+h.VLen]
}

// errGrantUnverified reports a read whose every granted object failed the
// object checks: the server's location kept moving under the READ.
var errGrantUnverified = fmt.Errorf("efactory: %d granted objects in a row failed their checks", maxEntryProbes)

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
