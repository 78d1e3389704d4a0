// Package server is the eFactory server protocol, written once: the
// request layer between a decoded wire.Msg and the storage engine for the
// seven data-plane requests — PUT steps 2-4 of Figure 5 (allocate, fill
// metadata, publish, grant), the RPC leg of the hybrid read (§4.3), their
// doorbell-batched forms, DELETE, the transactional commit and the
// snapshot read.
//
// Every request runs the same four steps: parse the op list (refusing
// what is malformed, over the op cap, or not storable), admit it through
// the optional placement Guard, apply it to the engine(s), and note
// whether the shard(s) it touched are cleaning. A transport binds the
// Core to what it has — the simulator to an SRQ worker process that
// charges receive, dispatch and send costs around Handle, TCP to its
// pipelined channel — and owns everything that is not protocol:
// connections, control-plane requests, trace roots, the cluster layer
// behind the Guard.
package server

import (
	"sync"

	"efactory/internal/kv"
	"efactory/internal/store"
	"efactory/internal/txn"
	"efactory/internal/wire"
)

// DefaultMaxOps caps the ops of one TGetBatch or TTxnRead request when the
// transport sets no cap of its own.
const DefaultMaxOps = 1024

// Guard is the placement layer a clustered transport puts in front of the
// engine. A nil Guard means unclustered: every key is owned and nothing is
// told of mutations.
type Guard interface {
	// Gate returns the lock a mutating request holds from before its
	// ownership check until after its last Applied call, so a cutover
	// barrier (the lock's write side) cannot slip between the two.
	Gate() sync.Locker
	// Unowned reports whether any of keys must be refused — requests are
	// all-or-nothing — and the cluster-map epoch the refusal carries.
	Unowned(keys [][]byte) (epoch uint64, reject bool)
	// Applied is told that key was written on eng, or deleted when del is
	// set. A false return vetoes a DELETE's acknowledgment (it answers
	// StError: the tombstone is not quorum-durable); a write is
	// acknowledged before durability by design and is never vetoed.
	Applied(h any, eng *store.Engine, key []byte, del bool) bool
}

// Core answers data-plane requests over one store. It is safe for
// concurrent use as far as the store's locks and the Guard are; each
// concurrent caller brings its own Scratch.
type Core struct {
	st     *store.Store
	txn    *txn.Manager
	pools  [][2]uint32
	maxOps int
	guard  Guard
}

// New builds a Core over tm's store. pools holds each shard's two data
// pool rkeys — data, not arithmetic, because a transport's registration
// decides them. maxOps <= 0 means DefaultMaxOps; a nil guard disables the
// placement layer.
func New(tm *txn.Manager, pools [][2]uint32, maxOps int, guard Guard) *Core {
	if maxOps <= 0 {
		maxOps = DefaultMaxOps
	}
	return &Core{st: tm.Store(), txn: tm, pools: pools, maxOps: maxOps, guard: guard}
}

// Scratch holds the reusable buffers one caller threads through Handle,
// so steady-state PUT/GET traffic allocates nothing. The response Handle
// returns may alias them: encode it before handling the next request.
type Scratch struct {
	keys     [][]byte // every key the request names, in op order
	putOps   []wire.PutOp
	getOps   []wire.GetOp
	txnOps   []wire.TxnOp
	grants   []wire.PutGrant
	byShard  [][]int
	shardOps []store.PutOp
	shardRes []store.PutResult
	payload  []byte // encoded response payload (Msg.Value)
}

// OpName names a data-plane request type ("op" for anything else); both
// transports name their server root spans "server_"+OpName.
func OpName(t uint8) string {
	switch t {
	case wire.TPut:
		return "put"
	case wire.TPutBatch:
		return "put_batch"
	case wire.TGet:
		return "get"
	case wire.TGetBatch:
		return "get_batch"
	case wire.TDel:
		return "del"
	case wire.TTxnCommit:
		return "txn_commit"
	case wire.TTxnRead:
		return "txn_read"
	}
	return "op"
}

// Status maps an engine status to its wire code.
func Status(st store.Status) uint8 {
	switch st {
	case store.StatusOK:
		return wire.StOK
	case store.StatusNotFound:
		return wire.StNotFound
	case store.StatusFull:
		return wire.StFull
	}
	return wire.StError
}

// Handle answers one request; h is the engine handle (the simulation's
// process, nil over TCP, either possibly trace-wrapped). handled is false,
// and nothing was done, for a type that is not one of the seven
// data-plane requests. The response type is always m.Type+1.
func (c *Core) Handle(h any, m wire.Msg, sc *Scratch) (resp wire.Msg, handled bool) {
	var mutating, single bool
	switch m.Type {
	case wire.TPut, wire.TDel:
		mutating, single = true, true
	case wire.TGet:
		single = true
	case wire.TPutBatch, wire.TTxnCommit:
		mutating = true
	case wire.TGetBatch, wire.TTxnRead:
	default:
		return wire.Msg{}, false
	}
	if sc == nil {
		sc = new(Scratch)
	}
	if c.parse(m, sc) {
		resp = c.admit(h, m, sc, mutating)
	} else {
		resp = wire.Msg{Status: wire.StError}
	}
	resp.Type = m.Type + 1
	// The cleaning note follows the shards the request addressed: the
	// key's own for a single-key request, any for a multi-op one.
	cleaning := false
	if single {
		cleaning = c.st.Shard(c.st.ShardFor(m.Key)).Cleaning()
	} else {
		cleaning = c.st.Cleaning()
	}
	if cleaning {
		resp.Note |= wire.NoteCleaning
	}
	return resp, true
}

// storable reports whether an object of klen key bytes and vlen value
// bytes is one the log can hold: a non-empty key (the verifier reads a
// zero key length as an unfinished allocation and would stall on it) and
// a total size inside the packed location's 24-bit length field.
func storable(klen int, vlen uint64) bool {
	return klen > 0 && klen < kv.MaxObjectSize && vlen < kv.MaxObjectSize &&
		kv.ObjectSize(klen, int(vlen)) < kv.MaxObjectSize
}

// parse decodes m's op list into sc and collects the keys the request
// names in sc.keys. It reports false for a request to refuse outright: a
// malformed payload, a read over the op cap, an empty transaction, an op
// that is not storable.
func (c *Core) parse(m wire.Msg, sc *Scratch) bool {
	var err error
	keys := sc.keys[:0]
	switch m.Type {
	case wire.TPut:
		if !storable(len(m.Key), m.Len) {
			return false
		}
		keys = append(keys, m.Key)
	case wire.TGet, wire.TDel:
		keys = append(keys, m.Key)
	case wire.TPutBatch:
		if sc.putOps, err = wire.DecodePutOpsInto(m.Value, sc.putOps); err != nil {
			return false
		}
		for _, op := range sc.putOps {
			if !storable(len(op.Key), uint64(op.VLen)) {
				return false
			}
			keys = append(keys, op.Key)
		}
	case wire.TGetBatch, wire.TTxnRead:
		if sc.getOps, err = wire.DecodeGetOpsInto(m.Value, sc.getOps); err != nil || len(sc.getOps) > c.maxOps {
			return false
		}
		for _, op := range sc.getOps {
			keys = append(keys, op.Key)
		}
	case wire.TTxnCommit:
		if sc.txnOps, err = wire.DecodeTxnOpsInto(m.Value, sc.txnOps); err != nil || len(sc.txnOps) == 0 {
			return false
		}
		for _, op := range sc.txnOps {
			if !storable(len(op.Key), uint64(len(op.Value))) {
				return false
			}
			keys = append(keys, op.Key)
		}
	}
	sc.keys = keys
	return true
}

// admit runs a parsed request past the Guard and applies it: a mutating
// request holds the op gate across ownership check, apply and Applied
// hooks, and any unowned key refuses the whole request with the epoch in
// Token.
func (c *Core) admit(h any, m wire.Msg, sc *Scratch, mutating bool) wire.Msg {
	if c.guard != nil {
		if mutating {
			gate := c.guard.Gate()
			gate.Lock()
			defer gate.Unlock()
		}
		if ep, reject := c.guard.Unowned(sc.keys); reject {
			return wire.Msg{Status: wire.StWrongEpoch, Token: uint32(ep)}
		}
	}
	switch m.Type {
	case wire.TPut:
		return c.put(h, m)
	case wire.TPutBatch:
		return c.putBatch(h, sc)
	case wire.TGet:
		return c.get(h, m)
	case wire.TGetBatch:
		return c.getBatch(h, sc)
	case wire.TDel:
		return c.del(h, m)
	case wire.TTxnCommit:
		return c.txnCommit(h, sc)
	}
	return c.txnRead(h, sc)
}

// applied tells the Guard, if any, of a mutation of key on shard sh.
func (c *Core) applied(h any, sh int, key []byte, del bool) bool {
	return c.guard == nil || c.guard.Applied(h, c.st.Shard(sh), key, del)
}

func (c *Core) put(h any, m wire.Msg) wire.Msg {
	sh := c.st.ShardFor(m.Key)
	res := c.st.Shard(sh).Put(h, m.Key, int(m.Len), m.Crc)
	if res.Status != store.StatusOK {
		return wire.Msg{Status: wire.StFull}
	}
	c.applied(h, sh, m.Key, false)
	return wire.Msg{Status: wire.StOK, RKey: c.pools[sh][res.Pool], Off: res.Off, Len: uint64(res.Len)}
}

// group buckets the indices of sc.keys by owning shard, so a multi-op
// request takes each shard's engine lock once.
func (c *Core) group(sc *Scratch) [][]int {
	ns := c.st.NumShards()
	if cap(sc.byShard) < ns {
		sc.byShard = make([][]int, ns)
	}
	byShard := sc.byShard[:ns]
	for sh := range byShard {
		byShard[sh] = byShard[sh][:0]
	}
	for i, key := range sc.keys {
		sh := c.st.ShardFor(key)
		byShard[sh] = append(byShard[sh], i)
	}
	return byShard
}

// putBatch allocates every op of a multi-op PUT with one received message
// and one response: each shard's group runs to completion under one lock
// acquisition (Engine.PutBatch) and the grants come back index-aligned
// with the ops. Every buffer comes from sc.
func (c *Core) putBatch(h any, sc *Scratch) wire.Msg {
	ops := sc.putOps
	if cap(sc.grants) < len(ops) {
		sc.grants = make([]wire.PutGrant, len(ops))
	}
	grants := sc.grants[:len(ops)]
	for sh, list := range c.group(sc) {
		if len(list) == 0 {
			continue
		}
		sops := sc.shardOps[:0]
		for _, i := range list {
			sops = append(sops, store.PutOp{Key: ops[i].Key, VLen: ops[i].VLen, Crc: ops[i].Crc})
		}
		sc.shardOps = sops
		sc.shardRes = c.st.Shard(sh).PutBatch(h, sops, sc.shardRes)
		for j, r := range sc.shardRes {
			i := list[j]
			if r.Status != store.StatusOK {
				grants[i] = wire.PutGrant{Status: wire.StFull}
				continue
			}
			c.applied(h, sh, ops[i].Key, false)
			grants[i] = wire.PutGrant{Status: wire.StOK, RKey: c.pools[sh][r.Pool], Off: r.Off, Len: uint32(r.Len)}
		}
	}
	sc.payload = wire.AppendPutGrants(sc.payload[:0], grants)
	return wire.Msg{Status: wire.StOK, Value: sc.payload}
}

func (c *Core) get(h any, m wire.Msg) wire.Msg {
	sh := c.st.ShardFor(m.Key)
	res := c.st.Shard(sh).Get(h, m.Key)
	if res.Status != store.StatusOK {
		return wire.Msg{Status: wire.StNotFound}
	}
	return wire.Msg{
		Status: wire.StOK,
		RKey:   c.pools[sh][res.Pool], Off: res.Off, Len: uint64(res.Len), KLen: uint32(res.KLen),
	}
}

// getBatch resolves every op of a multi-key GET with one received message
// and one response; client-learned slots pass through as engine lookup
// hints. Grants come back index-aligned with the ops and carry the
// resolved slot, version sequence and durability flag so clients can warm
// their hint caches.
func (c *Core) getBatch(h any, sc *Scratch) wire.Msg {
	ops := sc.getOps
	grants := make([]wire.GetGrant, len(ops))
	for sh, list := range c.group(sc) {
		if len(list) == 0 {
			continue
		}
		keys := make([][]byte, len(list))
		slots := make([]int, len(list))
		for j, i := range list {
			keys[j] = ops[i].Key
			slots[j] = -1
			if ops[i].Slot != wire.NoSlot {
				slots[j] = int(ops[i].Slot)
			}
		}
		for j, res := range c.st.Shard(sh).GetBatch(h, keys, slots) {
			if res.Status != store.StatusOK {
				grants[list[j]] = wire.GetGrant{Status: wire.StNotFound}
				continue
			}
			var flags uint8
			if res.Durable {
				flags |= wire.GrantDurable
			}
			grants[list[j]] = wire.GetGrant{
				Status: wire.StOK,
				Flags:  flags,
				RKey:   c.pools[sh][res.Pool],
				Slot:   uint32(res.Slot),
				Len:    uint32(res.Len),
				KLen:   uint32(res.KLen),
				Off:    res.Off,
				Seq:    res.Seq,
			}
		}
	}
	sc.payload = wire.AppendGetGrants(sc.payload[:0], grants)
	return wire.Msg{Status: wire.StOK, Value: sc.payload}
}

func (c *Core) del(h any, m wire.Msg) wire.Msg {
	sh := c.st.ShardFor(m.Key)
	if c.st.Shard(sh).Del(h, m.Key) != store.StatusOK {
		return wire.Msg{Status: wire.StNotFound}
	}
	if !c.applied(h, sh, m.Key, true) {
		// Vetoed: the DELETE cannot be acknowledged. StError leaves the op
		// pending at the client — an unacked delete makes no promise.
		return wire.Msg{Status: wire.StError}
	}
	return wire.Msg{Status: wire.StOK}
}

// txnCommit applies one atomic multi-key commit. The values arrive inline
// — staging is server-driven, there is no one-sided write phase — and the
// reply carries the transaction id in Off plus index-aligned per-op
// statuses.
func (c *Core) txnCommit(h any, sc *Scratch) wire.Msg {
	vals := make([][]byte, len(sc.txnOps))
	for i, op := range sc.txnOps {
		vals[i] = op.Value
	}
	id, per, st := c.txn.Commit(h, sc.keys, vals)
	if st == store.StatusOK {
		for _, key := range sc.keys {
			c.applied(h, c.st.ShardFor(key), key, false)
		}
	}
	sts := make([]uint8, len(per))
	for i, p := range per {
		sts[i] = Status(p)
	}
	sc.payload = wire.AppendTxnStatuses(sc.payload[:0], sts)
	return wire.Msg{Status: Status(st), Off: id, Value: sc.payload}
}

// txnRead serves a snapshot-isolated multi-key read: every key is
// resolved at one cut pinned across shards. Values return inline — the
// server already walked to the snapshot's version, so there is no
// durable-location grant for a one-sided follow-up.
func (c *Core) txnRead(h any, sc *Scratch) wire.Msg {
	res := c.txn.SnapshotGet(h, sc.keys)
	rs := make([]wire.TxnResult, len(res))
	for i, r := range res {
		rs[i] = wire.TxnResult{Status: Status(r.Status), Seq: r.Seq, Value: r.Value}
	}
	sc.payload = wire.AppendTxnResults(sc.payload[:0], rs)
	return wire.Msg{Status: wire.StOK, Value: sc.payload}
}
