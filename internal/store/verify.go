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
// Replicated commit records: when Deps.Mirror is installed, each verified
// version is serialized as a single-version ExportKey (the same record
// migration ships) and handed to the hook, which must make it durable on a
// quorum of replicas before the flag may persist locally. A background
// verifier run queues the records of all its versions and makes one call
// for the lot; every other site calls with a run of one. The hook is
// called with the engine lock RELEASED — it performs network I/O, and
// replicas ingesting records need their own engine locks — so the run
// revalidates each object afterwards before it touches it again.
package store

import (
	"slices"

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

// verify decides the valid, not-yet-durable version hd at (pi, off): it
// checks the CRC, settles a mismatch (expire), and mirrors an intact
// version as a run of one. An intact version without a quorum is
// pending, never dead: the flag stays clear and a later pass retries the
// mirror. Callers hold mu; the mirror drops it, so on verMoved the caller
// must not touch the offset again.
func (e *Engine) verify(h any, pi int, off uint64, hd kv.Header, op Op) verdict {
	v := e.check(h, pi, off, hd, op)
	switch {
	case v == verPending:
		return e.expire(pi, off, hd)
	case v != verIntact:
		return v
	}
	cut, need := e.mirrorCut(pi, off, hd)
	if !need {
		return verIntact
	}
	rs := e.takeRun()
	defer e.putRun(rs)
	rs.add(e.keyScratch, e.valScratch, cut, hd, runMark{off: off})
	switch stop, moved := e.mirrorLocked(h, pi, rs); {
	case moved:
		return verMoved
	case stop == 0:
		return verPending
	}
	return verIntact
}

// check CRC-checks the valid, not-yet-durable version hd at (pi, off),
// reading its value into valScratch and charging the CRC as op — OpCRC on
// a request's path, OpBGCRC in the background. It answers verIntact on a
// match, verPending on a mismatch (expire settles it), and verMoved if the
// pool was recycled during the charge. Callers hold mu.
func (e *Engine) check(h any, pi int, off uint64, hd kv.Header, op Op) verdict {
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
		return verIntact
	}
	return verPending
}

// expire settles a version whose CRC did not match: pending inside
// VerifyTimeout, and past it invalidated, but only after one re-read of
// the flags: a concurrent site may have flagged the version while this one
// yielded, and writing the stale flags back would destroy an acknowledged
// write. Callers hold mu.
func (e *Engine) expire(pi int, off uint64, hd kv.Header) verdict {
	if e.sink.Now()-hd.CreatedAt <= uint64(e.cfg.VerifyTimeout) {
		return verPending
	}
	pool := e.pools[pi]
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

// mirrorCut reports whether the intact version hd at (pi, off) needs a
// mirror record before its flag may persist, and the cut sequence the
// record carries; it leaves the key in keyScratch. A key with no backups
// (Mirror nil, or MirrorNeeded false) needs none: its flag is set under
// the lock already held, exactly like an engine with no Mirror installed.
// Nor does a version that is dead locally — tombstoned or below the
// entry's cut: it may be flagged (the flag only vouches for local bytes
// nobody can read), but a mirror record for it could resurrect an
// acknowledged DELETE on the backup. Callers hold mu.
func (e *Engine) mirrorCut(pi int, off uint64, hd kv.Header) (cut uint64, need bool) {
	if e.deps.Mirror == nil {
		return 0, false
	}
	e.keyScratch = e.pools[pi].ReadKeyInto(e.keyScratch, off, hd.KLen)
	if e.deps.MirrorNeeded != nil && !e.deps.MirrorNeeded(e.keyScratch) {
		return 0, false
	}
	_, en, found := e.table.Lookup(kv.HashKey(e.keyScratch))
	if !found || en.Tombstone() || belowCut(en, hd.Seq) {
		return 0, false
	}
	return en.CutSeq(), true
}

// runScratch is one verify run's scratch: the offsets it persists and the
// mirror records it ships before that. A run keeps its scratch across the
// unlocked mirror call, so each run checks one out of the engine's free
// list (takeRun) rather than sharing one; in a steady state no run
// allocates.
type runScratch struct {
	offs []uint64    // intact versions to persist, ascending
	recs []ExportKey // mirror records, in offset order
	ok   []bool      // the mirror's verdict per record
	at   []runMark   // where each record sits in the run
	buf  []byte      // the records' keys and values, back to back
}

// runMark places one mirror record in its run: the version it ships, and
// the run's state just before it, which is where the run stops if the
// record gets no quorum.
type runMark struct {
	off        uint64
	seq        uint64
	pos        int // the key's start in buf; the value follows it
	klen, vlen int
	offs       int    // len(offs) before this version joined
	end        uint64 // end of the last persisted object before it
	passed     int    // objects the cursor passed before it
	late       bgTally
}

// add queues the mirror record of the intact version hd, whose key and
// value are key and val, placed by mk. The record ships flagged durable:
// by the time the backup serves it (post-failover) the quorum commit
// completed, and an unflagged import would start a fresh verify window on
// a value whose one-sided write the backup never sees.
func (rs *runScratch) add(key, val []byte, cut uint64, hd kv.Header, mk runMark) {
	mk.seq, mk.pos, mk.klen, mk.vlen = hd.Seq, len(rs.buf), len(key), len(val)
	rs.buf = append(append(rs.buf, key...), val...)
	rs.at = append(rs.at, mk)
	n := len(rs.recs)
	if n < cap(rs.recs) {
		rs.recs = rs.recs[:n+1]
	} else {
		rs.recs = append(rs.recs, ExportKey{})
	}
	r := &rs.recs[n]
	r.Key, r.Tombstone, r.CutSeq = nil, false, cut
	r.Versions = append(r.Versions[:0], ExportVersion{
		Seq: hd.Seq, CreatedAt: hd.CreatedAt, CRC: hd.CRC, Flags: hd.Flags | kv.FlagDurable,
	})
}

// takeRun checks a run scratch out of the engine's free list. Callers
// hold mu.
func (e *Engine) takeRun() *runScratch {
	n := len(e.runFree)
	if n == 0 {
		return new(runScratch)
	}
	rs := e.runFree[n-1]
	e.runFree = e.runFree[:n-1]
	return rs
}

// putRun returns rs to the free list, emptied. Callers hold mu.
func (e *Engine) putRun(rs *runScratch) {
	rs.offs, rs.recs, rs.at, rs.buf = rs.offs[:0], rs.recs[:0], rs.at[:0], rs.buf[:0]
	e.runFree = append(e.runFree, rs)
}

// mirrorLocked hands the run's records in pool pi to Deps.Mirror in one
// call, with mu released around it — the hook does network I/O, and
// replicas ingesting records need their own engine locks — and
// revalidates afterwards. It returns stop, the first record that may not
// be flagged (len(rs.recs) if every one may): one without a quorum, or
// one whose object changed under the unlock. moved reports the latter, or
// a pool the cleaner recycled meanwhile, in which case stop is 0. Callers
// hold mu.
func (e *Engine) mirrorLocked(h any, pi int, rs *runScratch) (stop int, moved bool) {
	pool := e.pools[pi]
	for i := range rs.recs {
		mk := &rs.at[i]
		v := rs.buf[mk.pos+mk.klen : mk.pos+mk.klen+mk.vlen : mk.pos+mk.klen+mk.vlen]
		rs.recs[i].Key = rs.buf[mk.pos : mk.pos+mk.klen : mk.pos+mk.klen]
		rs.recs[i].Versions[0].Value = v
	}
	rs.ok = slices.Grow(rs.ok[:0], len(rs.recs))[:len(rs.recs)]
	clear(rs.ok)
	e.mu.Unlock()
	e.deps.Mirror(h, rs.recs, rs.ok)
	e.mu.Lock()
	if e.pools[pi] != pool {
		return 0, true
	}
	for i, mk := range rs.at {
		if hd := pool.Header(mk.off); hd.Magic != kv.Magic || hd.Seq != mk.seq {
			return i, true
		}
		if !rs.ok[i] {
			return i, false
		}
	}
	return len(rs.recs), false
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
