// The verify step. The paper's consistency rule (§4.3.2, and GET steps 6-8
// of Figure 6) is one decision, taken here for every site that may flag a
// version durable — GET, the background verifier, the log cleaner and
// VerifyKeySettled: CRC-check a valid, not-yet-durable version; if it is
// intact, make it durable on the replica set (Deps.Mirror) and then persist
// it together with its durability flag; if it is not, invalidate it once
// VerifyTimeout has passed. verify takes the decision, persist is the only
// place a verified version gains FlagDurable, so flag ⇒ quorum-durable
// holds by construction.
//
// Replicated commit records: when Deps.Mirror is installed, the verified
// version is serialized as a single-version ExportKey (the same record
// migration ships) and handed to the hook, which must make it durable on a
// quorum of replicas before the flag may persist locally. The hook is
// called with the engine lock RELEASED — it performs network I/O, and
// replicas ingesting records need their own engine locks — so verify
// revalidates the object afterwards before its caller touches it again.
package store

import (
	"efactory/internal/crc"
	"efactory/internal/kv"
)

// verdict is the verify step's answer for one version.
type verdict uint8

const (
	verIntact  verdict = iota // CRC matches and the mirror has a quorum: persist may flag it
	verFlagged                // durable: another site set the flag meanwhile
	verDead                   // invalidated: the value did not land within VerifyTimeout
	verPending                // value in flight, or intact without a quorum yet
	verMoved                  // the pool was recycled during a yield: the offset is gone
)

// verify decides the valid, not-yet-durable version hd at (pi, off). It
// charges the CRC as op — OpCRC on a request's path, OpBGCRC in the
// background — reads the value into valScratch, and on a match runs the
// mirror. An intact version without a quorum is pending, never dead: the
// flag stays clear and a later pass retries the mirror. A mismatch past
// VerifyTimeout invalidates, but only after one re-read of the flags: a
// concurrent site may have flagged the version while this one yielded,
// and writing the stale flags back would destroy an acknowledged write. Callers hold mu; the mirror drops it, so
// on verMoved the caller must not touch the offset again.
func (e *Engine) verify(h any, pi int, off uint64, hd kv.Header, op Op) verdict {
	pool := e.pools[pi]
	check := e.begin(h, op)
	e.sink.Charge(h, op, hd.VLen)
	if pool != e.pools[pi] {
		return verMoved
	}
	e.valScratch = pool.ReadValueInto(e.valScratch, off, hd.KLen, hd.VLen)
	match := crc.Checksum(e.valScratch) == hd.CRC
	e.end(h, check)
	if match {
		ok, mirrored := e.mirrorVersion(h, pi, off, hd)
		switch {
		case !ok:
			return verMoved
		case !mirrored:
			return verPending
		}
		return verIntact
	}
	if e.sink.Now()-hd.CreatedAt <= uint64(e.cfg.VerifyTimeout) {
		return verPending
	}
	cur := pool.Header(off).Flags
	if cur&kv.FlagDurable != 0 {
		return verFlagged
	}
	pool.SetFlags(off, cur&^kv.FlagValid)
	return verDead
}

// persist makes a run of versions verify found intact durable — ascending
// offsets in pool pi, the last object ending at end: one flush over the
// run's bytes, then a volatile flip of each durability flag (re-read at
// flip time, so a mark another site set during a yield survives), then one
// flush over the flag words. Every value is durable before any flag is, at
// every crash point; a run of one is FlushObject followed by SetFlags,
// flush for flush. It charges op (OpFlush on a request's path, OpBGFlush
// in the background) over the run's bytes and reports false, flagging
// nothing, if the pool was recycled during that charge. Callers hold mu.
func (e *Engine) persist(h any, pi int, run []uint64, end uint64, op Op) bool {
	pool := e.pools[pi]
	start, last := run[0], run[len(run)-1]
	n := int(end - start)
	flush := e.begin(h, op)
	e.sink.Charge(h, op, n)
	if pool != e.pools[pi] {
		return false
	}
	pool.FlushRange(start, n)
	for _, off := range run {
		pool.SetFlagsVolatile(off, pool.Header(off).Flags|kv.FlagDurable)
	}
	pool.FlushRange(start, int(last-start)+kv.HeaderSize)
	e.end(h, flush)
	return true
}

// mirrorVersion runs the replication hook for the version at (pi, off)
// whose value verify just read into valScratch and found intact against
// header hd. It runs with mu held; the lock is dropped around the hook call
// and re-acquired before returning.
//
// ok reports whether (pi, off) still names the same object afterwards —
// the cleaner may have recycled the pool during the unlock window. mirrored
// is the hook's verdict: false means the record did not reach a quorum.
//
// Versions that are dead locally — tombstoned or below the entry's cut
// sequence — return (true, true) without calling the hook: they may be
// flagged (the flag only vouches for local bytes nobody can read), but a
// mirror record for them could resurrect an acknowledged DELETE on the
// backup. A key with no backups (MirrorNeeded false) returns (true, true)
// before the table lookup: dead or live, its verdict is the same.
func (e *Engine) mirrorVersion(h any, pi int, off uint64, hd kv.Header) (ok, mirrored bool) {
	if e.deps.Mirror == nil {
		return true, true
	}
	pool := e.pools[pi]
	e.keyScratch = pool.ReadKeyInto(e.keyScratch, off, hd.KLen)
	if e.deps.MirrorNeeded != nil && !e.deps.MirrorNeeded(e.keyScratch) {
		// No backups to reach: the flag may be set under the lock we
		// already hold, exactly like an engine with no Mirror installed.
		return true, true
	}
	_, en, found := e.table.Lookup(kv.HashKey(e.keyScratch))
	if !found || en.Tombstone() || belowCut(en, hd.Seq) {
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
			Value: append([]byte(nil), e.valScratch...),
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
// but not yet durable, charged like a GET's on-demand verify: it reports
// whether the head reached a settled state — durable, invalid, tombstoned,
// or absent. A promoted backup drives this over its mirrored tail so every
// record either commits or is truncated before the promotion serves reads,
// and a transaction commit over its keys so the flags follow promptly.
func (e *Engine) VerifyKeySettled(h any, key []byte) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, en, found := e.table.Lookup(kv.HashKey(key))
	if !found || en.Tombstone() {
		return true
	}
	pi, off, size, ok := e.head(en)
	if !ok {
		return true
	}
	hd := e.pools[pi].Header(off)
	if hd.Magic != kv.Magic || !hd.Valid() || hd.Durable() {
		return true
	}
	switch e.verify(h, pi, off, hd, OpCRC) {
	case verIntact:
		return e.persist(h, pi, []uint64{off}, off+uint64(size), OpFlush)
	case verPending, verMoved:
		return false
	}
	return true
}
