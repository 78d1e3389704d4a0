package kv

import "efactory/internal/crc"

// PersistedHead is what recovery makes of one hash entry: the version it
// restores, where it lies, and how it got there.
type PersistedHead struct {
	Key, Value []byte
	Header     Header
	Pool       int    // the pool holding the version
	Off        uint64 // its pool-relative offset
	Rolled     bool   // a newer version on the winning chain was torn
	Discarded  int    // torn or pre-cut versions walked past
}

// ResolvePersisted is recovery's per-entry resolver, and efactory-fsck's:
// Head applied to the persisted image of pools, where a crash can
// leave any version torn and can interrupt log cleaning at any stage — so
// the two locations may name disjoint chains, and after a DELETE plus
// merge-stage re-PUT only the staged chain holds a live version. Each
// location's chain is walked to its newest intact version at or above the
// entry's cut, and Head picks between the two. ok is false when nothing
// survives: the key was never durable. The tombstone is the caller's
// business.
func ResolvePersisted(pools [2]*Pool, en Entry) (best PersistedHead, ok bool) {
	cut := en.CutSeq()
	discarded := 0
	var newest [2]PersistedHead
	var cand [2]*Header
	for slot := range cand {
		if en.Loc[slot] == 0 {
			continue
		}
		pi := slot
		off, totalLen, _ := UnpackLoc(en.Loc[slot])
		rolled := false
		for int(off)+totalLen <= pools[pi].Cap() {
			pool := pools[pi]
			h := pool.PersistedHeader(off)
			if h.Magic == Magic && h.Valid() && h.KLen > 0 && h.Seq >= cut &&
				ObjectSize(h.KLen, h.VLen) == totalLen {
				key, val := pool.PersistedKV(off, h)
				if crc.Checksum(val) == h.CRC {
					newest[slot] = PersistedHead{Key: key, Value: val, Header: h, Pool: pi, Off: off, Rolled: rolled}
					cand[slot] = &newest[slot].Header
					break // newest intact version on this chain
				}
			}
			discarded++
			rolled = true
			if h.Magic != Magic {
				break
			}
			var okPre bool
			if pi, off, totalLen, okPre = UnpackVPtr(h.PrePtr); !okPre {
				break
			}
		}
	}
	slot, ok := Head(en, cand)
	if ok {
		best = newest[slot]
	}
	best.Discarded = discarded
	return best, ok
}
