package store

import (
	"efactory/internal/crc"
	"efactory/internal/kv"
)

// recover rebuilds a consistent shard from the persisted contents of the
// device (the post-crash state). Every hash entry is resolved by
// ResolvePersisted to its newest intact version, CRC-checked against the
// persisted bytes (§4.1: "a consistent state can be recovered using the
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

	// Pass 2: resolve every entry to its newest intact version.
	var live []PersistedHead
	e.table.RangeAll(func(i int, en kv.Entry) bool {
		if en.Tombstone() {
			return true
		}
		ph, ok := ResolvePersisted(e.pools, en)
		st.VersionsDiscarded += ph.Discarded
		if !ok {
			st.KeysLost++
			return true
		}
		live = append(live, ph)
		st.KeysRecovered++
		if ph.Rolled {
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
			Seq:       sv.Header.Seq,
			CreatedAt: sv.Header.CreatedAt,
			CRC:       sv.Header.CRC,
			VLen:      sv.Header.VLen,
			Flags:     kv.FlagValid | kv.FlagDurable,
			TxnID:     sv.Header.TxnID,
		}
		off, ok := e.pools[0].AppendObject(&h, sv.Key)
		if !ok {
			panic("store: recovery pool overflow")
		}
		e.pools[0].WriteValue(off, len(sv.Key), sv.Value)
		e.pools[0].FlushObject(off, len(sv.Key), sv.Header.VLen)
		idx, _, ok := e.table.FindSlot(kv.HashKey(sv.Key))
		if !ok {
			panic("store: recovery table overflow")
		}
		e.table.Publish(idx, kv.PackLoc(off, kv.ObjectSize(len(sv.Key), sv.Header.VLen)))
	}
	e.bgCursor[0] = e.pools[0].Used()
	e.bgCursor[1] = 0
	e.nextSeq = maxSeq
	e.dev.Drain()

	e.stats.Recovered = st.KeysRecovered
	e.stats.RolledBack = st.RolledBack
	return st
}

// PersistedHead is what recovery makes of one hash entry: the version it
// restores and how it got there.
type PersistedHead struct {
	Key, Value []byte
	Header     kv.Header
	Rolled     bool // a newer version on the winning chain was torn
	Discarded  int  // torn or pre-cut versions walked past
}

// ResolvePersisted is recovery's per-entry resolver, and efactory-fsck's:
// Engine.head's rule applied to the persisted image of pools, where a
// crash can leave any version torn and can interrupt log cleaning at any
// stage — so the two locations may name disjoint chains, and after a
// DELETE plus merge-stage re-PUT only the staged chain holds a live
// version. Each location's chain is walked to its newest intact version
// at or above the entry's cut, and the higher sequence number wins (the
// staged chain on a tie). ok is false when nothing survives: the key was
// never durable. The tombstone is the caller's business.
func ResolvePersisted(pools [2]*kv.Pool, en kv.Entry) (best PersistedHead, ok bool) {
	cut := en.CutSeq()
	discarded := 0
	for _, slot := range [2]int{1 - en.Mark(), en.Mark()} {
		if en.Loc[slot] == 0 {
			continue
		}
		pi := slot
		off, totalLen, _ := kv.UnpackLoc(en.Loc[slot])
		rolled := false
		for int(off)+totalLen <= pools[pi].Cap() {
			pool := pools[pi]
			h := persistedHeader(pool, off)
			if h.Magic == kv.Magic && h.Valid() && h.KLen > 0 && h.Seq >= cut &&
				kv.ObjectSize(h.KLen, h.VLen) == totalLen {
				key := make([]byte, h.KLen)
				val := make([]byte, h.VLen)
				base := pool.Base() + int(off)
				pool.Device().ReadPersisted(base+kv.KeyOffset(), key)
				pool.Device().ReadPersisted(base+kv.ValueOffset(h.KLen), val)
				if crc.Checksum(val) == h.CRC {
					if !ok || h.Seq > best.Header.Seq {
						best, ok = PersistedHead{Key: key, Value: val, Header: h, Rolled: rolled}, true
					}
					break // newest intact version on this chain
				}
			}
			discarded++
			rolled = true
			if h.Magic != kv.Magic {
				break
			}
			var okPre bool
			if pi, off, totalLen, okPre = kv.UnpackVPtr(h.PrePtr); !okPre {
				break
			}
		}
	}
	best.Discarded = discarded
	return best, ok
}

// persistedHeader decodes an object header from the persisted image.
func persistedHeader(p *kv.Pool, off uint64) kv.Header {
	b := make([]byte, kv.HeaderSize)
	p.Device().ReadPersisted(p.Base()+int(off), b)
	return kv.DecodeHeader(b)
}
