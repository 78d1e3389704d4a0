// Replicated commit records. When Deps.Mirror is installed, the engine
// treats setting a durability flag as a two-node commit: the verified
// version is serialized as a single-version ExportKey (the same record
// migration ships) and handed to the hook, which must make it durable on
// a quorum of replicas before the flag may persist locally. The hook is
// called with the engine lock RELEASED — it performs network I/O, and
// replicas ingesting records need their own engine locks — so every
// caller revalidates the object afterwards before touching it again.
package store

import (
	"efactory/internal/crc"
	"efactory/internal/kv"
)

// mirrorVersion runs the replication hook for the version at (pi, off)
// whose value just passed its CRC check against header hd. It must be
// called BEFORE FlagDurable is set, with mu held; the lock is dropped
// around the hook call and re-acquired before returning.
//
// ok reports whether (pi, off) still names the same object afterwards —
// the cleaner may have recycled the pool during the unlock window, in
// which case the caller must not touch the offset again (and must not
// advance a cursor past it). mirrored is the hook's verdict: false means
// the record did not reach a quorum, so the durability flag must stay
// clear and a later pass retries.
//
// Versions that are dead locally — tombstoned or below the entry's cut
// sequence — return (true, true) without calling the hook: they may be
// flagged (the flag only vouches for local bytes nobody can read), but a
// mirror record for them could resurrect an acknowledged DELETE on the
// backup.
func (e *Engine) mirrorVersion(h any, pi int, off uint64, hd kv.Header) (ok, mirrored bool) {
	if e.deps.Mirror == nil {
		return true, true
	}
	pool := e.pools[pi]
	e.keyScratch = pool.ReadKeyInto(e.keyScratch, off, hd.KLen)
	_, en, found := e.table.Lookup(kv.HashKey(e.keyScratch))
	if !found || en.Tombstone() || belowCut(en, hd.Seq) {
		return true, true
	}
	if e.deps.MirrorNeeded != nil && !e.deps.MirrorNeeded(e.keyScratch) {
		// No backups to reach: the flag may be set under the lock we
		// already hold, exactly like an engine with no Mirror installed.
		return true, true
	}
	rec := ExportKey{
		Key:    append([]byte(nil), e.keyScratch...),
		CutSeq: en.CutSeq(),
		Versions: []ExportVersion{{
			Seq:       hd.Seq,
			CreatedAt: hd.CreatedAt,
			CRC:       hd.CRC,
			// The record ships flagged durable: by the time the backup
			// serves it (post-failover) the quorum commit completed, and
			// an unflagged import would start a fresh verify window on a
			// value whose one-sided write the backup never sees.
			Flags: hd.Flags | kv.FlagDurable,
			Value: append([]byte(nil), pool.ReadValueInto(nil, off, hd.KLen, hd.VLen)...),
		}},
	}
	e.mu.Unlock()
	res := e.deps.Mirror(h, rec)
	e.mu.Lock()
	if e.pools[pi] != pool {
		return false, res
	}
	h2 := pool.Header(off)
	if h2.Magic != kv.Magic || h2.Seq != hd.Seq {
		return false, res
	}
	return true, res
}

// VerifyKeySettled force-verifies the head version of key if it is valid
// but not yet durable: CRC check now, flag set on a match (through the
// mirror hook like any other flag set), invalidation only once the
// verify window has passed. It reports whether the head reached a
// settled state — durable, invalid, tombstoned, or absent. A promoted
// backup drives this over its mirrored tail so every record either
// commits or is truncated before the promotion serves reads.
func (e *Engine) VerifyKeySettled(h any, key []byte) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, en, found := e.table.Lookup(kv.HashKey(key))
	if !found || en.Tombstone() {
		return true
	}
	pi, off, _, ok := e.head(en)
	if !ok {
		return true
	}
	pool := e.pools[pi]
	hd := pool.Header(off)
	if hd.Magic != kv.Magic || !hd.Valid() || hd.Durable() {
		return true
	}
	e.valScratch = pool.ReadValueInto(e.valScratch, off, hd.KLen, hd.VLen)
	if crc.Checksum(e.valScratch) == hd.CRC {
		okObj, mirrored := e.mirrorVersion(h, pi, off, hd)
		if !okObj || !mirrored {
			return false
		}
		pool.FlushObject(off, hd.KLen, hd.VLen)
		// Re-read the flags: the cleaner may have set FlagTrans during the
		// mirror's unlock window; OR-ing stale flags would clear the mark.
		pool.SetFlags(off, pool.Header(off).Flags|kv.FlagDurable)
		return true
	}
	if e.sink.Now()-hd.CreatedAt > uint64(e.cfg.VerifyTimeout) {
		pool.SetFlags(off, hd.Flags&^kv.FlagValid)
		return true
	}
	return false
}
