package client

import (
	"fmt"

	"efactory/internal/cluster"
	"efactory/internal/hint"
	"efactory/internal/kv"
	"efactory/internal/trace"
	"efactory/internal/wire"
)

// gbPhase is the per-key step a read round just issued.
type gbPhase int

const (
	gbIdle   gbPhase = iota
	gbHinted         // entry + speculative object pair in flight
	gbEntry          // probe entry READ in flight
	gbObject         // object READ (location known from the entry) in flight
)

// gbState tracks one key of a read through the optimistic rounds.
type gbState struct {
	keyHash uint64
	shard   int
	probe   int
	slot    int // slot where the entry matched; -1 until known
	phase   gbPhase
	hinted  hint.Entry
	useHint bool
	wantObj bool   // entry resolved a location; object READ pending
	entry   []byte // this key's window of the read's entry slab
	obj     []byte
	pool    uint32
	off     uint64
	tlen    int

	done     bool // vals[i]/errs[i] hold the key's outcome
	fallback bool // the optimistic path gave up: ask the server
}

// slab hands out consecutive windows of one allocation, each capped at its
// own length so an append to one cannot run into the next.
type slab []byte

func (s *slab) take(n int) []byte {
	b := (*s)[:n:n]
	*s = (*s)[n:]
	return b
}

// GetBatch resolves len(keys) GETs as one operation; see read.
//
// vals and errs (len(keys) long) are filled in place, index-aligned with
// keys: a key ends with its value, ErrNotFound, a per-key error, or the
// attempt-level failure — also returned — if that struck before the key
// resolved.
func (c *Core) GetBatch(tc *trace.Ctx, keys, vals [][]byte, errs []error) error {
	c.mu.Lock()
	c.stats.Gets += len(keys)
	c.stats.BatchedGets += len(keys)
	c.mu.Unlock()
	return c.read(tc, keys, vals, errs)
}

// read is the client's one hybrid read (Figure 6). Every key runs the
// optimistic one-sided protocol: resolve the hash entry and the object
// with one-sided READs and check the durability flag embedded in the
// object. The READs of all in-flight keys are chained per round into a
// single burst sharing one completion wait, and a hint-cache hit skips the
// probe walk by fetching the entry and the object as one pair. Keys whose
// optimistic read fails verification — undurable, tombstoned,
// probe-exhausted, hash-collided, NAKed — and every key while the scheme
// is off or the log is cleaning fall back together to the server, which
// guarantees consistency: one read RPC, then one burst fetching the
// granted objects.
//
// When the server's hello announced an inline budget, the read RPC's
// reply carries the values it verified, so a read is at most the hinted
// burst and one RPC: an unhinted key, a hinted one whose slot proved
// wrong or was refused, and an undurable object all go straight to the
// RPC, whose reply serves them with no READ after it. A hinted key whose
// entry names one new location is still re-read one-sidedly, which is
// cheaper than an RPC. Without a budget — the simulator's — the read is
// the paper's: the probe walk, then grant-then-READ.
func (c *Core) read(tc *trace.Ctx, keys, vals [][]byte, errs []error) error {
	clear(vals)
	clear(errs)
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	optimistic := c.hybrid && !c.cleaning
	inline := c.inline > 0
	sts := sc.sts[:0]
	entries := append(sc.entries[:0], make([]byte, len(keys)*kv.EntrySize)...)
	straight := 0
	for i, k := range keys {
		keyHash := kv.HashKey(k)
		sts = append(sts, gbState{
			keyHash: keyHash,
			shard:   cluster.ShardOf(keyHash, len(c.shards)),
			slot:    -1,
			entry:   entries[i*kv.EntrySize : (i+1)*kv.EntrySize],
		})
		st := &sts[i]
		if optimistic && c.hints != nil {
			st.hinted, st.useHint = c.hints.Lookup(st.shard, keyHash)
		}
		if !optimistic || (inline && !st.useHint) {
			st.fallback = true
			straight++
		}
	}
	if straight > 0 {
		c.count(&c.stats.RPCReads, straight)
	}
	sc.sts, sc.entries = sts, entries
	fail := func(err error) error {
		for i := range sts {
			if !sts[i].done {
				errs[i] = err
			}
		}
		return err
	}
	fallback := func(i int) {
		sts[i].fallback = true
		c.count(&c.stats.FallbackReads, 1)
	}
	invalidate := func(i int) {
		if c.hints != nil {
			c.hints.Invalidate(sts[i].shard, sts[i].keyHash)
		}
	}
	// restart sends a hinted key whose hint proved stale to the probe walk,
	// or to the server when its reply carries the value.
	restart := func(i int) {
		invalidate(i)
		st := &sts[i]
		st.phase, st.slot, st.probe, st.useHint = gbIdle, -1, 0, false
		if inline {
			fallback(i)
		}
	}
	// validateObj applies the optimistic object checks to st.obj; it either
	// finishes the key or sends it to the RPC fallback. A hinted key whose
	// slot and location held leaves the cache untouched.
	validateObj := func(i int) {
		st := &sts[i]
		hd, verdict := checkObject(st.obj, keys[i])
		if verdict != objOK {
			if verdict == objForeign {
				invalidate(i)
			}
			fallback(i) // undurable: the location may still be right
			return
		}
		vals[i] = value(st.obj, hd)
		st.done = true
		c.count(&c.stats.PureReads, 1)
		if st.useHint { // the hinted slot held: the probe walk was skipped
			c.count(&c.stats.HintedReads, 1)
		}
		if st.phase != gbHinted || st.hinted.Slot < 0 {
			c.learn(st.shard, st.keyHash, hint.Entry{Slot: st.slot, Pool: st.pool, Off: st.off, Len: st.tlen})
		}
	}
	// located queues the object READ for the location an entry names for
	// the next round, or reports false when the server must resolve it.
	located := func(st *gbState, e kv.Entry) bool {
		pool, off, tlen, ok := c.shards[st.shard].location(e)
		if ok {
			st.pool, st.off, st.tlen = pool, off, tlen
			st.wantObj = true
		}
		return ok
	}

	// A round issues at most an entry and an object READ per key.
	reqs, acted := sc.reqs[:0], sc.acted[:0]
	defer func() { sc.reqs, sc.acted = reqs, acted }()
	for optimistic {
		reqs, acted = reqs[:0], acted[:0]
		// Every object READ of the round lands in one slab.
		var n int
		for i := range sts {
			st := &sts[i]
			switch {
			case st.done || st.fallback:
			case st.wantObj:
				n += st.tlen
			case st.useHint && st.phase == gbIdle:
				n += st.hinted.Len
			}
		}
		objs := slab(make([]byte, n))
		for i := range sts {
			st := &sts[i]
			if st.done || st.fallback {
				continue
			}
			table := c.shards[st.shard].Table
			switch {
			case st.wantObj:
				st.wantObj = false
				st.phase = gbObject
				st.obj = objs.take(st.tlen)
				reqs = append(reqs, Req{Buf: st.obj, RKey: st.pool, Off: st.off})
			case st.useHint && st.phase == gbIdle:
				st.phase = gbHinted
				st.slot = st.hinted.Slot
				if st.slot < 0 {
					st.slot = int(st.keyHash % uint64(c.buckets)) // probe-0 guess
				}
				st.pool, st.off, st.tlen = st.hinted.Pool, st.hinted.Off, st.hinted.Len
				st.obj = objs.take(st.tlen)
				reqs = append(reqs,
					Req{Buf: st.entry, RKey: table, Off: uint64(st.slot * kv.EntrySize)},
					Req{Buf: st.obj, RKey: st.pool, Off: st.off})
			default:
				st.phase = gbEntry
				st.slot = (int(st.keyHash%uint64(c.buckets)) + st.probe) % c.buckets
				reqs = append(reqs, Req{Buf: st.entry, RKey: table, Off: uint64(st.slot * kv.EntrySize)})
			}
			acted = append(acted, i)
		}
		if len(reqs) == 0 {
			break
		}
		t := c.now(tc)
		err := c.v.ReadBurst(reqs)
		tc.Add("doorbell_read", t, c.now(tc))
		c.count(&c.stats.ReadBursts, 1)
		if err != nil {
			return fail(err)
		}
		ri := 0
		for _, i := range acted {
			st := &sts[i]
			naked := reqs[ri].NAK
			ri++
			if st.phase == gbHinted {
				naked = naked || reqs[ri].NAK
				ri++
			}
			if naked {
				// The addressed region no longer resolves: for a hinted key
				// that is a stale hint; otherwise give up the optimistic
				// path for this key.
				if st.phase == gbHinted {
					restart(i)
				} else {
					fallback(i)
				}
				continue
			}
			switch st.phase {
			case gbHinted:
				e := kv.DecodeEntry(st.entry)
				if e.KeyHash != st.keyHash || e.Free() {
					restart(i) // wrong slot
					continue
				}
				pool, off, tlen, ok := c.shards[st.shard].location(e)
				if ok && off == st.off && tlen == st.tlen && pool == st.pool {
					validateObj(i) // speculative bytes are the live version
					continue
				}
				// Key moved: re-fetch from the entry's location next round,
				// or let the server resolve it.
				invalidate(i)
				if !located(st, e) {
					fallback(i)
				}
			case gbEntry:
				e := kv.DecodeEntry(st.entry)
				switch {
				case e.KeyHash == 0:
					if c.epoch.Load() != 0 {
						// Clustered: absence must be confirmed by the owner
						// (the key may have migrated away and been purged).
						fallback(i)
						continue
					}
					errs[i] = ErrNotFound
					st.done = true
				case !e.Free() && e.KeyHash == st.keyHash:
					if !located(st, e) {
						fallback(i)
					}
				default: // reclaimed slot or another key: probe past it
					st.probe++
					if st.probe >= maxEntryProbes {
						st.slot = -1
						fallback(i)
					}
				}
			case gbObject:
				validateObj(i)
			}
		}
	}

	// RPC fallback: every unresolved key rides one read RPC. A value its
	// reply carries is served from it; a bare grant's object is fetched by
	// one burst after it. A granted object failing the object checks (its
	// location was recycled between the grant and the READ) rides the
	// next round's RPC, up to maxEntryProbes rounds.
	fbIdx := acted[:0]
	for i := range sts {
		if !sts[i].done {
			fbIdx = append(fbIdx, i)
		}
	}
	acted = fbIdx // the grown buffer goes back to the scratch
	for ask := 0; len(fbIdx) > 0; ask++ {
		if ask == maxEntryProbes {
			for _, i := range fbIdx {
				errs[i] = errGrantUnverified
			}
			return nil
		}
		grants, buf, err := c.askServer(tc, sc, keys, fbIdx)
		if err != nil {
			return fail(err)
		}
		// A value or granted object lands in the window of the key's own
		// unserved READ when it fits, so an undurable own write, whose hint
		// named exactly the granted object, costs no second slab.
		reqs = reqs[:0]
		var n int
		for j := range grants {
			if need := grantBytes(&grants[j]); cap(sts[fbIdx[j]].obj) < need {
				n += need
			}
		}
		objs := slab(make([]byte, n))
		for j := range grants {
			g := &grants[j]
			i := fbIdx[j]
			if need := grantBytes(g); cap(sts[i].obj) >= need {
				sts[i].obj = sts[i].obj[:need]
			} else {
				sts[i].obj = objs.take(need)
			}
			switch {
			case g.Value != nil:
				copy(sts[i].obj, g.Value)
				vals[i] = sts[i].obj
				c.learnGrant(&sts[i], g)
			case g.Status == wire.StOK:
				reqs = append(reqs, Req{Buf: sts[i].obj, RKey: g.RKey, Off: g.Off})
				continue
			case g.Status == wire.StNotFound:
				errs[i] = ErrNotFound
			default:
				errs[i] = &StatusError{Op: "get", Status: g.Status}
			}
			sts[i].done = true
		}
		c.v.Release(buf) // every value was copied out
		if len(reqs) == 0 {
			return nil
		}
		t := c.now(tc)
		err = c.v.ReadBurst(reqs)
		tc.Add("doorbell_read", t, c.now(tc))
		c.count(&c.stats.ReadBursts, 1)
		if err != nil {
			return fail(err)
		}
		// The keys to ask again are compacted into fbIdx in place: the
		// write index never passes the read index.
		again := fbIdx[:0]
		ri := 0
		for j := range grants {
			g := &grants[j]
			if g.Status != wire.StOK || g.Value != nil {
				continue
			}
			i := fbIdx[j]
			r := reqs[ri]
			ri++
			hd, verdict := checkObject(r.Buf, keys[i])
			switch {
			case r.NAK:
				errs[i] = ErrNAK
			case verdict != objOK:
				again = append(again, i)
				continue
			default:
				vals[i] = value(r.Buf, hd)
				c.learnGrant(&sts[i], g)
			}
			sts[i].done = true
		}
		fbIdx = again
	}
	return nil
}

// grantBytes is the room a grant's outcome takes in the read's slab: its
// value when the reply carries it, its object when a READ must fetch it.
func grantBytes(g *wire.GetGrant) int {
	switch {
	case g.Value != nil:
		return len(g.Value)
	case g.Status == wire.StOK:
		return int(g.Len)
	}
	return 0
}

// learnGrant points a key's hint at the durable version the server
// granted it. A grant naming no slot keeps the slot known before.
func (c *Core) learnGrant(st *gbState, g *wire.GetGrant) {
	slot := -1
	if g.Slot != wire.NoSlot {
		slot = int(g.Slot)
	}
	c.learn(st.shard, st.keyHash, hint.Entry{Slot: slot, Pool: g.RKey, Off: g.Off, Len: int(g.Len)})
}

// askServer sends one fallback round's read RPC for keys[fbIdx] and
// returns one grant per key, index-aligned with fbIdx, and the reply's
// buffer, which the caller releases once it has copied the values out.
// A round of one key asks with TGet, whose grant carries no slot unless
// the ask carried a budget; more keys ride one TGetBatch carrying their
// learned slots as server-side hints. With the server's inline budget
// the ask carries it, and the reply's values are checked against their
// keys and grants: a value over the budget, or whose key or object length
// disagrees with its grant, fails the round rather than being served.
func (c *Core) askServer(tc *trace.Ctx, sc *scratch, keys [][]byte, fbIdx []int) ([]wire.GetGrant, *[]byte, error) {
	req := wire.Msg{Type: wire.TGetBatch, Len: uint64(c.inline), Trace: tc.ID()}
	if len(fbIdx) == 1 {
		req.Type, req.Key = wire.TGet, keys[fbIdx[0]]
	} else {
		ops := sc.getOps[:0]
		for _, i := range fbIdx {
			slot := wire.NoSlot
			if s := sc.sts[i].slot; s >= 0 {
				slot = uint32(s)
			}
			ops = append(ops, wire.GetOp{Slot: slot, Key: keys[i]})
		}
		sc.getOps = ops
		sc.opsBuf = wire.AppendGetOps(sc.opsBuf[:0], ops)
		req.Value = sc.opsBuf
	}
	t := c.now(tc)
	resp, buf, err := c.v.Call(req)
	tc.Add("get_rpc", t, c.now(tc))
	c.count(&c.stats.ReadRPCs, 1)
	if err != nil {
		return nil, nil, err
	}
	grants, inline := sc.getGrants[:0], req.Len != 0
	switch {
	case req.Type == wire.TGet:
		// TGetResp carries the one key's status and location as scalars,
		// and what a budget asked for: the slot in Token, the value.
		g := wire.GetGrant{Status: resp.Status, RKey: resp.RKey, Slot: wire.NoSlot, Len: uint32(resp.Len), KLen: resp.KLen, Off: resp.Off}
		if inline {
			g.Slot = resp.Token
		}
		if resp.Note&wire.NoteValue != 0 {
			g.Value = resp.Value
			if g.Value == nil {
				g.Value = []byte{} // an empty value, not a bare grant
			}
		}
		grants = append(grants, g)
	case resp.Status != wire.StOK:
		c.v.Release(buf)
		return nil, nil, &StatusError{Op: "get batch", Status: resp.Status}
	case resp.Len > req.Len:
		err = fmt.Errorf("a budget of %d bytes applied to an ask of %d", resp.Len, req.Len)
	default:
		inline = resp.Len != 0
		grants, err = wire.DecodeGetGrantsInto(resp.Value, grants, inline)
		if err == nil && len(grants) != len(fbIdx) {
			err = fmt.Errorf("%d grants for %d ops", len(grants), len(fbIdx))
		}
	}
	if err == nil {
		sc.getGrants = grants
		err = checkValues(grants, keys, fbIdx, inline, int(req.Len))
	}
	if err != nil {
		c.v.Release(buf)
		return nil, nil, fmt.Errorf("efactory: malformed get response: %w", err)
	}
	return grants, buf, nil
}

// checkValues refuses a read reply's values unless the ask carried a
// budget and the reply took the inline layout, the values total at most
// budget bytes, and each is the value of its own key's granted object.
func checkValues(grants []wire.GetGrant, keys [][]byte, fbIdx []int, inline bool, budget int) error {
	total := 0
	for j := range grants {
		g := &grants[j]
		if g.Value == nil {
			continue
		}
		total += len(g.Value)
		switch {
		case !inline || g.Status != wire.StOK:
			return fmt.Errorf("a value where none was asked for")
		case total > budget:
			return fmt.Errorf("values total over the %d-byte budget", budget)
		case int(g.KLen) != len(keys[fbIdx[j]]) || kv.ObjectSize(int(g.KLen), len(g.Value)) != int(g.Len):
			return fmt.Errorf("a %d-byte value under a %d-byte key does not fill its %d-byte object", len(g.Value), g.KLen, g.Len)
		}
	}
	return nil
}
