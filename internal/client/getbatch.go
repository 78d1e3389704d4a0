package client

import (
	"fmt"

	"efactory/internal/cluster"
	"efactory/internal/hint"
	"efactory/internal/kv"
	"efactory/internal/trace"
	"efactory/internal/wire"
)

// gbPhase is the per-key step a GetBatch round just issued.
type gbPhase int

const (
	gbIdle   gbPhase = iota
	gbHinted         // entry + speculative object pair in flight
	gbEntry          // probe entry READ in flight
	gbObject         // object READ (location known from the entry) in flight
)

// gbState tracks one key of a GetBatch through the optimistic rounds.
type gbState struct {
	keyHash uint64
	shard   int
	probe   int
	slot    int // slot where the entry matched; -1 until known
	phase   gbPhase
	hinted  hint.Entry
	useHint bool
	wantObj bool   // entry resolved a location; object READ pending
	entry   []byte // this key's window of the batch's entry slab
	obj     []byte
	pool    uint32
	off     uint64
	tlen    int

	done     bool // vals[i]/errs[i] hold the key's outcome
	fallback bool // the optimistic path gave up: ask the server
}

// GetBatch resolves len(keys) GETs as one operation. Under the hybrid
// scheme every key runs the optimistic one-sided protocol, but the READs
// of all in-flight keys are chained per round into a single burst sharing
// one completion wait. Hint-cache hits skip the probe walk entirely. Keys
// whose optimistic read fails verification — undurable, tombstoned,
// probe-exhausted, hash-collided, NAKed — fall back together in ONE
// TGetBatch RPC (carrying any learned slots as server-side hints) followed
// by one more burst fetching the granted objects.
//
// vals and errs (len(keys) long) are filled in place, index-aligned with
// keys: a key ends with its value, ErrNotFound, a per-key error, or the
// attempt-level failure — also returned — if that struck before the key
// resolved.
func (c *Core) GetBatch(tc *trace.Ctx, keys, vals [][]byte, errs []error) error {
	clear(vals)
	clear(errs)
	c.mu.Lock()
	c.stats.Gets += len(keys)
	c.stats.BatchedGets += len(keys)
	c.mu.Unlock()
	optimistic := c.hybrid && !c.cleaning
	sts := make([]gbState, len(keys))
	entries := make([]byte, len(keys)*kv.EntrySize)
	for i, k := range keys {
		st := &sts[i]
		st.keyHash = kv.HashKey(k)
		st.shard = cluster.ShardOf(st.keyHash, len(c.shards))
		st.slot = -1
		st.entry = entries[i*kv.EntrySize : (i+1)*kv.EntrySize]
		if !optimistic {
			st.fallback = true
			c.count(&c.stats.RPCReads, 1)
			continue
		}
		if c.hints != nil {
			if h, ok := c.hints.Lookup(st.shard, k); ok {
				if !h.Durable {
					st.fallback = true
					c.count(&c.stats.FallbackReads, 1)
					continue
				}
				st.hinted, st.useHint = h, true
			}
		}
	}
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
			c.hints.Invalidate(sts[i].shard, keys[i])
		}
	}
	// restart sends a hinted key whose hint proved stale to the probe walk.
	restart := func(i int) {
		invalidate(i)
		st := &sts[i]
		st.phase, st.slot, st.probe, st.useHint = gbIdle, -1, 0, false
	}
	// validateObj applies the optimistic object checks to st.obj; it either
	// finishes the key or sends it to the RPC fallback.
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
		if c.hints != nil {
			c.hints.Insert(st.shard, keys[i], hint.Entry{
				Slot: st.slot, Pool: st.pool, Off: st.off, Len: st.tlen,
				KLen: hd.KLen, Seq: hd.Seq, Durable: true,
			})
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

	var reqs []Req
	var acted []int
	for optimistic {
		reqs, acted = reqs[:0], acted[:0]
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
				st.obj = make([]byte, st.tlen)
				reqs = append(reqs, Req{Buf: st.obj, RKey: st.pool, Off: st.off})
			case st.useHint && st.phase == gbIdle:
				st.phase = gbHinted
				st.slot = st.hinted.Slot
				if st.slot < 0 {
					st.slot = int(st.keyHash % uint64(c.buckets)) // probe-0 guess
				}
				st.pool, st.off, st.tlen = st.hinted.Pool, st.hinted.Off, st.hinted.Len
				st.obj = make([]byte, st.tlen)
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

	// RPC fallback: every unresolved key rides ONE TGetBatch, then one
	// burst fetches the granted objects.
	var fbIdx []int
	for i := range sts {
		if !sts[i].done {
			fbIdx = append(fbIdx, i)
		}
	}
	if len(fbIdx) == 0 {
		return nil
	}
	ops := make([]wire.GetOp, len(fbIdx))
	for j, i := range fbIdx {
		slot := wire.NoSlot
		if sts[i].slot >= 0 {
			slot = uint32(sts[i].slot)
		}
		ops[j] = wire.GetOp{Slot: slot, Key: keys[i]}
	}
	t := c.now(tc)
	resp, buf, err := c.v.Call(wire.Msg{Type: wire.TGetBatch, Value: wire.EncodeGetOps(ops), Trace: tc.ID()})
	tc.Add("get_rpc", t, c.now(tc))
	if err != nil {
		return fail(err)
	}
	if resp.Status != wire.StOK {
		c.v.Release(buf)
		return fail(&StatusError{Op: "get batch", Status: resp.Status})
	}
	grants, err := wire.DecodeGetGrants(resp.Value)
	c.v.Release(buf) // grants are scalar copies
	if err != nil || len(grants) != len(fbIdx) {
		return fail(fmt.Errorf("efactory: malformed get batch response: %d grants for %d ops: %v", len(grants), len(fbIdx), err))
	}
	reqs = reqs[:0]
	for j, g := range grants {
		i := fbIdx[j]
		switch g.Status {
		case wire.StOK:
			sts[i].obj = make([]byte, g.Len)
			reqs = append(reqs, Req{Buf: sts[i].obj, RKey: g.RKey, Off: g.Off})
			continue
		case wire.StNotFound:
			errs[i] = ErrNotFound
		default:
			errs[i] = &StatusError{Op: "get", Status: g.Status}
		}
		sts[i].done = true
	}
	if len(reqs) == 0 {
		return nil
	}
	t = c.now(tc)
	err = c.v.ReadBurst(reqs)
	tc.Add("doorbell_read", t, c.now(tc))
	if err != nil {
		return fail(err)
	}
	ri := 0
	for j, g := range grants {
		if g.Status != wire.StOK {
			continue
		}
		i := fbIdx[j]
		sts[i].done = true
		r := reqs[ri]
		ri++
		if r.NAK {
			errs[i] = ErrNAK
			continue
		}
		hd, err := grantedObject(r.Buf, g.Off)
		if err != nil {
			errs[i] = err
			continue
		}
		vals[i] = value(r.Buf, hd)
		if c.hints != nil {
			c.hints.Insert(sts[i].shard, keys[i], hint.Entry{
				Slot: int(g.Slot), Pool: g.RKey, Off: g.Off, Len: int(g.Len),
				KLen: int(g.KLen), Seq: g.Seq, Durable: g.Durable(),
			})
		}
	}
	return nil
}
