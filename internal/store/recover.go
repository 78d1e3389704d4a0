package store

import (
	"fmt"
	"slices"

	"efactory/internal/kv"
)

// recover repairs the shard in place from the persisted image (the
// post-crash state): every hash entry is resolved by kv.ResolvePersisted to
// its newest intact version (§4.1: "a consistent state can be recovered
// using the previous intact version") and pointed at it with the table's
// 8-byte words. Nothing is zeroed; only survivors a cut-short cleaning run
// left in the other pool are copied. Survivors become durable and
// chain-terminated, every other valid version in the working pool is
// invalidated, so a write whose entry never published cannot later stand
// in for one, and entries nothing survives for are cleared. Every write
// leaves the image resolving to the same survivors and is skipped where
// the word already holds its value, so a crash inside recovery recovers to
// the same state and a second recovery writes nothing.
func (e *Engine) recover() (st RecoveryStats, err error) {
	// Pass 1: bound each pool's log, find the highest sequence number, and
	// list the valid versions. Headers persist in append order, so every
	// survivor lies inside the log found here, below the pool's head.
	var valid [2][]uint64
	for pi, pool := range e.pools {
		pool.ScanPersisted(func(off uint64, h kv.Header) bool {
			pool.SetHead(int(off) + kv.ObjectSize(h.KLen, h.VLen))
			e.nextSeq = max(e.nextSeq, h.Seq)
			if h.Valid() {
				valid[pi] = append(valid[pi], off)
			}
			return true
		})
	}
	if e.pools[0].Used() == 0 && e.pools[1].Used() == 0 {
		return st, nil // a fresh device
	}

	// Pass 2: resolve every entry. The shard works in the pool t holding
	// more survivor bytes, unless it has no room for the rest: survivors
	// span both pools only when a cleaning run, or a recovery copying
	// them, was cut short.
	var live []kv.PersistedHead
	var slot []int // each survivor's table index
	var held [2]int
	e.table.RangeAll(func(i int, en kv.Entry) bool {
		if en.Tombstone() {
			return true
		}
		ph, ok := kv.ResolvePersisted(e.pools, en)
		st.VersionsDiscarded += ph.Discarded
		switch {
		case !ok:
			st.KeysLost++
			return true
		case ph.Rolled:
			st.RolledBack++
		}
		live, slot = append(live, ph), append(slot, i)
		held[ph.Pool] += kv.ObjectSize(ph.Header.KLen, ph.Header.VLen)
		return true
	})
	t := 0
	if held[1] > held[0] {
		t = 1
	}
	if e.pools[t].Free() < held[1-t] {
		t = 1 - t
	}

	// Pass 3, in table order: copy a survivor outside t into it, or make
	// it durable and chain-terminated in place (a volatile store); point
	// the entry at it, mark the entry t and clear its other location.
	// Tombstones keep their cuts and move to t too; the rest are cleared.
	pool, dirty, j := e.pools[t], false, 0
	offs := make([]uint64, 0, len(live))
	e.table.RangeAll(func(i int, en kv.Entry) bool {
		switch {
		case j < len(slot) && slot[j] == i:
			sv := &live[j]
			j++
			h := sv.Header
			h.PrePtr, h.Flags = kv.NilPtr, kv.FlagValid|kv.FlagDurable
			if sv.Pool != t {
				off, ok := e.appendLocked(t, &h, sv.Key, sv.Value, true)
				if !ok {
					err = fmt.Errorf("%w: shard %d: pool %d cannot take the survivors left in pool %d", ErrRecoveryFull, e.shard, t, 1-t)
					return false
				}
				sv.Off = off
			} else if h != sv.Header {
				kv.WriteHeader(pool.Device(), pool.Base(), sv.Off, &h)
				dirty = true
			}
			offs = append(offs, sv.Off)
			if loc := kv.PackLoc(sv.Off, kv.ObjectSize(h.KLen, h.VLen)); en.Loc[t] != loc {
				e.table.SetLoc(i, t, loc)
			}
		case !en.Tombstone():
			e.table.Clear(i)
			return true
		}
		e.table.FlipMark(i, t)
		return true
	})
	if err != nil {
		return st, err
	}

	// Pass 4: invalidate every other version valid in t (volatile stores),
	// then flush what passes 3 and 4 stored.
	slices.Sort(offs)
	for _, off := range valid[t] {
		if _, found := slices.BinarySearch(offs, off); !found {
			pool.SetFlagsVolatile(off, pool.PersistedHeader(off).Flags&^kv.FlagValid)
			dirty = true
		}
	}
	if dirty {
		pool.FlushRange(0, pool.Used())
	}
	e.cur = t
	for pi, p := range e.pools {
		e.bgCursor[pi] = p.Used()
	}
	st.KeysRecovered = len(live)
	e.stats.Recovered, e.stats.RolledBack = st.KeysRecovered, st.RolledBack
	return st, nil
}
