package store

import (
	"efactory/internal/adapt"
	"efactory/internal/crc"
	"efactory/internal/kv"
)

// BGStep is one step of the verification-and-persisting thread of §4.3.2:
// process up to one object at the shard's cursor in pool pi — compute the
// CRC over the value, compare with the recorded CRC, and on a match
// persist the object and set its durability flag. A mismatching object is
// either still in flight (stall: return false and let the caller retry
// later) or dead (past VerifyTimeout: mark invalid and move on; log
// cleaning reclaims the space). The engine lock is taken per object so
// request handling interleaves. BGDrain is the loop transports run;
// BGStep stays exported as BGBatch's reference implementation.
func (e *Engine) BGStep(h any, pi int) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	pool := e.pools[pi]
	if e.bgCursor[pi]+kv.HeaderSize > pool.Used() {
		return false
	}
	off := uint64(e.bgCursor[pi])
	tScan := e.sink.Now()
	e.sink.Charge(h, OpBGScan, 0)
	if pool != e.pools[pi] {
		// The log cleaner recycled this pool while we yielded.
		return false
	}
	hd := pool.Header(off)
	e.observe(int(OpBGScan), tScan)
	if hd.Magic != kv.Magic || hd.KLen <= 0 {
		// Allocation raced us; retry this position later.
		return false
	}
	size := kv.ObjectSize(hd.KLen, hd.VLen)
	if !hd.Valid() || hd.Durable() {
		e.stats.BGSkipped++
		e.bgCursor[pi] += size
		return true
	}
	// Skip versions that have already been superseded by a newer write:
	// nobody reads them through the entry head, verifying them buys
	// nothing (log cleaning reclaims them, and a rollback read verifies
	// on demand). This keeps the per-shard background thread from falling
	// behind under update-heavy load.
	if e.bgSuperseded(h, pi, off, hd.KLen) {
		e.stats.BGStale++
		e.bgCursor[pi] += size
		return true
	}
	tCRC := e.sink.Now()
	e.sink.Charge(h, OpBGCRC, hd.VLen)
	if pool != e.pools[pi] {
		return false
	}
	e.valScratch = pool.ReadValueInto(e.valScratch, off, hd.KLen, hd.VLen)
	match := crc.Checksum(e.valScratch) == hd.CRC
	e.observe(int(OpBGCRC), tCRC)
	if match {
		okObj, mirrored := e.mirrorVersion(h, pi, off, hd)
		if !okObj || !mirrored {
			// Pool recycled during the mirror window, or no quorum: leave
			// the cursor parked — mirror appends are idempotent, so the
			// next pass re-verifies and re-offers the record.
			return false
		}
		tFlush := e.sink.Now()
		e.sink.Charge(h, OpBGFlush, size)
		if pool != e.pools[pi] {
			return false
		}
		pool.FlushObject(off, hd.KLen, hd.VLen)
		// Re-read the flags at set time: the cleaner may have marked the
		// object FlagTrans during the mirror's unlock window, and OR-ing
		// the stale pre-window flags back would clear that mark.
		pool.SetFlags(off, pool.Header(off).Flags|kv.FlagDurable)
		e.observe(int(OpBGFlush), tFlush)
		e.stats.BGVerified++
		e.bgCursor[pi] += size
		return true
	}
	if e.sink.Now()-hd.CreatedAt > uint64(e.cfg.VerifyTimeout) {
		pool.SetFlags(off, hd.Flags&^kv.FlagValid)
		e.stats.BGInvalidated++
		e.keyScratch = pool.ReadKeyInto(e.keyScratch, off, hd.KLen)
		e.trace("bg_verify", "invalidated", kv.HashKey(e.keyScratch), hd.Seq)
		e.bgCursor[pi] += size
		return true
	}
	// Value still in flight: stall here (one-by-one scan).
	return false
}

// BGBatch is the group-verified, group-flushed variant of BGStep: under a
// single lock acquisition it scans a run of up to max contiguous objects
// at the shard's cursor in pool pi, CRC-verifies the not-yet-durable
// ones, then persists the whole run with one coalesced FlushRange and
// flips every durability flag, followed by a second FlushRange covering
// the flag bits. This amortizes the lock, the per-object Charge, and —
// most importantly — the flush+drain pair across the run: 2 drains per
// batch instead of 2 per object.
//
// Completion-vs-durability semantics are unchanged. The value bytes of
// every object in the run are durable before any of their durability
// flags is persisted, so the crash invariant (durable flag implies
// durable, CRC-intact value) holds at every crash point inside a
// partially-flushed batch — including between the two FlushRange calls.
//
// Returns the number of objects passed over (verified, skipped, stale, or
// invalidated); 0 means the cursor is parked at the end of the log or
// stalled on an in-flight value. max <= 1 degenerates to BGStep.
func (e *Engine) BGBatch(h any, pi, max int) int {
	if max <= 1 {
		if e.BGStep(h, pi) {
			return 1
		}
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.lastBGBatch = max
	processed := 0
	run := e.bgRun[:0]
	var runStart, runEnd uint64
	recycled := false
	for processed < max {
		pool := e.pools[pi]
		if e.bgCursor[pi]+kv.HeaderSize > pool.Used() {
			break
		}
		off := uint64(e.bgCursor[pi])
		tScan := e.sink.Now()
		e.sink.Charge(h, OpBGScan, 0)
		if pool != e.pools[pi] {
			recycled = true
			break
		}
		hd := pool.Header(off)
		e.observe(int(OpBGScan), tScan)
		if hd.Magic != kv.Magic || hd.KLen <= 0 {
			break // allocation raced us; retry this position later
		}
		size := kv.ObjectSize(hd.KLen, hd.VLen)
		if !hd.Valid() || hd.Durable() {
			e.stats.BGSkipped++
			e.bgCursor[pi] += size
			processed++
			continue
		}
		stale := e.bgSuperseded(h, pi, off, hd.KLen)
		if pool != e.pools[pi] {
			recycled = true
			break
		}
		if stale {
			e.stats.BGStale++
			e.bgCursor[pi] += size
			processed++
			continue
		}
		tCRC := e.sink.Now()
		e.sink.Charge(h, OpBGCRC, hd.VLen)
		if pool != e.pools[pi] {
			recycled = true
			break
		}
		e.valScratch = pool.ReadValueInto(e.valScratch, off, hd.KLen, hd.VLen)
		match := crc.Checksum(e.valScratch) == hd.CRC
		e.observe(int(OpBGCRC), tCRC)
		if !match {
			if e.sink.Now()-hd.CreatedAt > uint64(e.cfg.VerifyTimeout) {
				pool.SetFlags(off, hd.Flags&^kv.FlagValid)
				e.stats.BGInvalidated++
				e.keyScratch = pool.ReadKeyInto(e.keyScratch, off, hd.KLen)
				e.trace("bg_verify", "invalidated", kv.HashKey(e.keyScratch), hd.Seq)
				e.bgCursor[pi] += size
				processed++
				continue
			}
			break // value still in flight: stall the scan here
		}
		okObj, mirrored := e.mirrorVersion(h, pi, off, hd)
		if !okObj {
			recycled = true
			break
		}
		if !mirrored {
			break // no quorum: stall here like an in-flight value
		}
		if len(run) == 0 {
			runStart = off
		}
		run = append(run, off)
		runEnd = off + uint64(size)
		e.bgCursor[pi] += size
		processed++
	}
	e.bgRun = run[:0] // retain capacity for the next batch
	if len(run) > 0 && !recycled {
		pool := e.pools[pi]
		n := int(runEnd - runStart)
		tFlush := e.sink.Now()
		e.sink.Charge(h, OpBGFlush, n)
		if pool == e.pools[pi] {
			// Values (and headers) first, then the flags: each durability
			// flag only becomes persistent after the bytes it vouches for.
			pool.FlushRange(runStart, n)
			for _, off := range run {
				// Re-read the flags at flip time: a concurrent GET may have
				// set FlagDurable and the cleaner may have set FlagTrans
				// while a Charge above yielded.
				pool.SetFlagsVolatile(off, pool.Header(off).Flags|kv.FlagDurable)
			}
			pool.FlushRange(runStart, n)
			e.observe(int(OpBGFlush), tFlush)
			e.stats.BGVerified += len(run)
			if len(run) > 1 {
				e.stats.BGBatched++
			}
		}
	}
	return processed
}

// BGDrain runs the shard's verifier to a standstill: it passes over both
// pools, verifying up to max objects per step (BGBatch sized from the
// durability lag; max <= 1 is one object per step, BGStep), until a whole
// pass moves neither cursor — each is parked at the end of its log or on
// an in-flight value. Both transports' verifier loops are "BGDrain, then
// wait": the simulation one process per shard sleeping BGIdlePoll, the TCP
// server one goroutine per shard on a ticker.
func (e *Engine) BGDrain(h any, max int) {
	for progressed := true; progressed; {
		progressed = false
		for pi := 0; pi < 2; pi++ {
			for e.BGBatch(h, pi, e.AdaptiveBGBatch(max)) > 0 {
				progressed = true
			}
		}
	}
}

// adaptiveBatchStep is the durability-lag backlog that buys one more
// object of background batch: ~a handful of typical objects per step, so
// the batch size tracks how far behind the verifier has fallen.
const adaptiveBatchStep = 2048

// AdaptiveBGBatch maps the shard's durability-lag backlog (the
// efactory_durability_lag_bytes gauge) to a batch size in [1, max]: an
// idle shard verifies one object at a time, minimizing each fresh write's
// time to durability, while a backlogged shard coalesces up to max
// objects per lock acquisition, maximizing drain throughput. The mapping
// itself lives in internal/adapt with the rest of the load-adaptive
// control laws.
func (e *Engine) AdaptiveBGBatch(max int) int {
	if max <= 1 {
		return 1
	}
	backlog, _ := e.DurabilityLag()
	return adapt.BGSize(backlog, adaptiveBatchStep, max)
}

// bgSuperseded reports whether the version at off in pool pi is no longer
// its key's head version. Callers hold mu.
func (e *Engine) bgSuperseded(h any, pi int, off uint64, klen int) bool {
	pool := e.pools[pi]
	e.keyScratch = pool.ReadKeyInto(e.keyScratch, off, klen)
	tLookup := e.sink.Now()
	keyHash := kv.HashKey(e.keyScratch)
	e.sink.Charge(h, OpBGLookup, 0)
	_, en, found := e.table.Lookup(keyHash)
	e.observe(int(OpBGLookup), tLookup)
	if !found {
		return true // entry reclaimed: version unreachable
	}
	// An entry that names no version yet is treated as current.
	hpi, hoff, _, ok := e.head(en)
	return ok && (hpi != pi || hoff != off)
}
