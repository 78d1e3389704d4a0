package store

import (
	"efactory/internal/crc"
	"efactory/internal/kv"
)

// recover rebuilds a consistent shard from the persisted contents of the
// device (the post-crash state). For every hash entry it walks the version
// list starting from the location the entry's own mark bit designates —
// handling crashes that interrupt log cleaning at any stage — verifies
// each candidate's CRC against the persisted bytes, and keeps the newest
// intact version (§4.1: "a consistent state can be recovered using the
// previous intact version"). The survivors are then re-materialized into a
// fresh log in pool 0 with a clean hash table, so the recovered shard
// starts from a canonical, fully-durable state. Keys with no intact
// version are dropped — they were never durable, so losing them is
// consistent. A shard whose pools are empty is left untouched (fresh
// device fast path).
func (e *Engine) recover(l kv.Layout) RecoveryStats {
	var st RecoveryStats

	// Pass 1: bound each pool's log extent and find the highest sequence
	// number in the persisted image.
	maxSeq := uint64(0)
	empty := true
	for pi := 0; pi < 2; pi++ {
		head := 0
		e.pools[pi].ScanPersisted(func(off uint64, h kv.Header) bool {
			head = int(off) + kv.ObjectSize(h.KLen, h.VLen)
			if h.Seq > maxSeq {
				maxSeq = h.Seq
			}
			return true
		})
		e.pools[pi].SetHead(head)
		if head > 0 {
			empty = false
		}
	}
	if empty {
		return st
	}

	// Pass 2: resolve every entry to its newest intact version. Both
	// location slots are candidates: a crash can interrupt log cleaning at
	// any stage, so the current (mark) slot and the staged slot may point
	// at disjoint chains — and after a DELETE plus merge-stage re-PUT the
	// staged chain holds the only live version while the current slot
	// still names the dead pre-delete one. Walk each slot's chain to its
	// newest intact, cut-respecting version and keep the newest survivor
	// overall (mirroring resolveEntry's live-read preference).
	type survivor struct {
		key []byte
		val []byte
		h   kv.Header
	}
	var live []survivor
	e.table.RangeAll(func(i int, en kv.Entry) bool {
		if en.Tombstone() {
			return true
		}
		// Versions older than the entry's cut sequence predate an
		// acknowledged DELETE (the tombstone was cleared by a later
		// re-PUT); restoring one would resurrect deleted data.
		cut := en.CutSeq()
		var best *survivor
		bestRolled := false
		for _, slot := range [2]int{en.Mark(), 1 - en.Mark()} {
			loc := en.Loc[slot]
			if loc == 0 {
				continue
			}
			// Slot index equals pool index by the engine's invariant.
			pi := slot
			off, totalLen, _ := kv.UnpackLoc(loc)
			rolled := false
			for {
				if int(off)+totalLen > e.pools[pi].Cap() {
					break
				}
				h := e.readPersistedHeader(pi, off)
				if h.Magic == kv.Magic && h.Valid() && h.KLen > 0 &&
					(cut == 0 || h.Seq >= cut) &&
					kv.ObjectSize(h.KLen, h.VLen) == totalLen {
					key := make([]byte, h.KLen)
					val := make([]byte, h.VLen)
					base := e.pools[pi].Base() + int(off)
					e.dev.ReadPersisted(base+kv.KeyOffset(), key)
					e.dev.ReadPersisted(base+kv.ValueOffset(h.KLen), val)
					if crc.Checksum(val) == h.CRC {
						if best == nil || h.Seq > best.h.Seq {
							best = &survivor{key: key, val: val, h: h}
							bestRolled = rolled
						}
						break // newest intact version on this chain
					}
				}
				st.VersionsDiscarded++
				rolled = true
				if h.Magic != kv.Magic {
					break
				}
				var ok bool
				pi, off, totalLen, ok = kv.UnpackVPtr(h.PrePtr)
				if !ok {
					break
				}
			}
		}
		if best == nil {
			st.KeysLost++
			return true
		}
		live = append(live, *best)
		st.KeysRecovered++
		if bestRolled {
			st.RolledBack++
		}
		return true
	})

	// Pass 3: re-materialize the survivors into a canonical state — a
	// fresh log in pool 0 and a clean table — fully flushed.
	e.dev.Zero(l.TableBase(e.shard), l.TableBytesAligned())
	for pi := 0; pi < 2; pi++ {
		e.dev.Zero(e.pools[pi].Base(), e.cfg.PoolSize)
		e.pools[pi] = kv.NewPool(e.dev, e.pools[pi].Base(), e.cfg.PoolSize)
	}
	for _, sv := range live {
		h := kv.Header{
			PrePtr:    kv.NilPtr,
			NextPtr:   kv.NilPtr,
			Seq:       sv.h.Seq,
			CreatedAt: sv.h.CreatedAt,
			CRC:       sv.h.CRC,
			VLen:      sv.h.VLen,
			Flags:     kv.FlagValid | kv.FlagDurable,
			TxnID:     sv.h.TxnID,
		}
		off, ok := e.pools[0].AppendObject(&h, sv.key)
		if !ok {
			panic("store: recovery pool overflow")
		}
		e.pools[0].WriteValue(off, len(sv.key), sv.val)
		e.pools[0].FlushObject(off, len(sv.key), sv.h.VLen)
		idx, _, ok := e.table.FindSlot(kv.HashKey(sv.key))
		if !ok {
			panic("store: recovery table overflow")
		}
		e.table.Publish(idx, kv.PackLoc(off, kv.ObjectSize(len(sv.key), sv.h.VLen)))
	}
	e.bgCursor[0] = e.pools[0].Used()
	e.bgCursor[1] = 0
	e.nextSeq = maxSeq
	e.pools[0].SetSeq(maxSeq)
	e.pools[1].SetSeq(maxSeq)
	e.dev.Drain()

	e.stats.Recovered = st.KeysRecovered
	e.stats.RolledBack = st.RolledBack
	return st
}

// readPersistedHeader decodes an object header from the persisted image.
func (e *Engine) readPersistedHeader(pi int, off uint64) kv.Header {
	b := make([]byte, kv.HeaderSize)
	e.dev.ReadPersisted(e.pools[pi].Base()+int(off), b)
	return kv.DecodeHeader(b)
}
