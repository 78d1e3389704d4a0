package store

import "efactory/internal/kv"

// BGStep is BGBatch over one object: it reports whether the cursor moved.
func (e *Engine) BGStep(h any, pi int) bool { return e.BGBatch(h, pi, 1) > 0 }

// BGBatch is the verification-and-persisting thread of §4.3.2. Under one
// lock acquisition it passes over up to limit objects (at least one) at
// the shard's cursor in pool pi: it skips those already durable or
// invalid and those superseded by a newer write, and runs the verify step
// on the rest. Every version found intact is then persisted as one run
// (persist) — two drains per run instead of two per object, and every
// value durable before any flag is. A value still in flight stalls the
// scan there for a later call to retry; one past VerifyTimeout is
// invalidated and passed over (log cleaning reclaims the space). The lock
// is taken per run so request handling interleaves. It returns the number
// of objects passed over; 0 means the cursor is parked at the end of the
// log, on an in-flight value, on a version without a mirror quorum, or in
// a pool the cleaner just recycled.
//
// With Deps.Mirror installed, the run queues a record for each intact
// version of a replicated key instead of mirroring it at once, may then
// run wider than limit (up to mirrorRunMax objects, sized from the
// backlog as AdaptiveBGBatch sizes a batch), and ships every record in
// one Mirror call with the lock dropped. It persists the run up to the
// first record without a quorum and parks the cursor on that record.
func (e *Engine) BGBatch(h any, pi, limit int) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.bgBatchLocked(h, pi, limit)
}

// A run that ships mirror records passes over at most mirrorRunMax
// objects, and queues no record that would take its keys and values past
// mirrorRunBytes (its first record excepted), so its frame stays well
// under a transport's frame cap.
const (
	mirrorRunMax   = 64
	mirrorRunBytes = 8 << 20
)

// bgTally counts a verifier run's visits by outcome.
type bgTally struct{ skipped, stale, invalidated int }

// count counts one visit in the engine's stats at once (now) while the
// run has queued no mirror record, and in the run's deferred tally
// (later) after: those visits count only if the cursor stays past them.
func (rs *runScratch) count(now, later *int) {
	if len(rs.recs) == 0 {
		*now++
	} else {
		*later++
	}
}

// bgBatchLocked is BGBatch with mu held.
func (e *Engine) bgBatchLocked(h any, pi, limit int) int {
	if limit > 1 {
		e.lastBGBatch = limit
	}
	pool := e.pools[pi]
	processed, width := 0, max(limit, 1)
	rs := e.takeRun()
	defer e.putRun(rs)
	var (
		end  uint64
		late bgTally
	)
scan:
	for processed < width && e.bgCursor[pi]+kv.HeaderSize <= pool.Used() {
		off := uint64(e.bgCursor[pi])
		scan := e.begin(h, OpBGScan)
		e.sink.Charge(h, OpBGScan, 0)
		if pool != e.pools[pi] {
			break // the cleaner recycled this pool while we yielded
		}
		hd := pool.Header(off)
		e.end(h, scan)
		if hd.Magic != kv.Magic || hd.KLen <= 0 {
			break // allocation raced us; retry this position later
		}
		size := kv.ObjectSize(hd.KLen, hd.VLen)
		switch {
		case !hd.Valid() || hd.Durable():
			rs.count(&e.stats.BGSkipped, &late.skipped)
		case e.bgSuperseded(h, pi, off, hd.KLen):
			// Nobody reads a superseded version through the entry head, so
			// verifying it buys nothing: log cleaning reclaims it, and a
			// rollback read verifies it on demand. This keeps the verifier
			// from falling behind under update-heavy load. The lookup may
			// yield: the cleaner resets a recycled pool's cursor, and it
			// must stay reset.
			if pool != e.pools[pi] {
				break scan
			}
			rs.count(&e.stats.BGStale, &late.stale)
		case len(rs.recs) > 0 && len(rs.buf)+hd.KLen+hd.VLen > mirrorRunBytes:
			break scan
		default:
			v := e.check(h, pi, off, hd, OpBGCRC)
			if v == verPending && len(rs.recs) == 0 {
				v = e.expire(pi, off, hd)
			}
			switch v {
			case verIntact:
				if cut, need := e.mirrorCut(pi, off, hd); need {
					if len(rs.recs) == 0 {
						width = max(width, bgSize(e.backlogLocked(), adaptiveBatchStep, mirrorRunMax))
					}
					rs.add(e.keyScratch, e.valScratch, cut, hd,
						runMark{off: off, offs: len(rs.offs), end: end, passed: processed, late: late})
				}
				rs.offs, end = append(rs.offs, off), off+uint64(size)
			case verFlagged:
				rs.count(&e.stats.BGSkipped, &late.skipped)
			case verDead:
				rs.count(&e.stats.BGInvalidated, &late.invalidated)
				e.keyScratch = pool.ReadKeyInto(e.keyScratch, off, hd.KLen)
				e.trace("bg_verify", "invalidated", kv.HashKey(e.keyScratch), hd.Seq)
			default:
				// In flight, recycled, or a mismatch behind queued records,
				// which a later run settles before it queues any.
				break scan
			}
		}
		e.bgCursor[pi] += size
		processed++
	}
	run := rs.offs
	if len(rs.recs) > 0 {
		if stop, _ := e.mirrorLocked(h, pi, rs); stop < len(rs.recs) {
			mk := rs.at[stop]
			run, end, processed, late = run[:mk.offs], mk.end, mk.passed, mk.late
			if pool == e.pools[pi] {
				e.bgCursor[pi] = min(e.bgCursor[pi], int(mk.off))
			}
		}
		e.stats.BGSkipped += late.skipped
		e.stats.BGStale += late.stale
		e.stats.BGInvalidated += late.invalidated
	}
	if len(run) > 0 && pool == e.pools[pi] && e.persist(h, pi, run, end, OpBGFlush) {
		e.stats.BGVerified += len(run)
		if len(run) > 1 {
			e.stats.BGBatched++
		}
	}
	return processed
}

// BGDrain runs the shard's verifier to a standstill: it passes over both
// pools, verifying up to max objects per run (a BGBatch sized as
// AdaptiveBGBatch sizes it, under the same lock hold; max <= 1 is one
// object per run), until a whole pass moves neither cursor — each is
// parked at the end of its log or on an in-flight value. Both transports'
// verifier loops are "BGDrain, then wait": the simulation one process per
// shard sleeping BGIdlePoll, the TCP server one goroutine per shard on a
// timer while the shard has a backlog and on Work while it has none.
func (e *Engine) BGDrain(h any, max int) {
	run := func(pi int) int {
		e.mu.Lock()
		defer e.mu.Unlock()
		return e.bgBatchLocked(h, pi, e.adaptiveLocked(max))
	}
	for progressed := true; progressed; {
		progressed = false
		for pi := 0; pi < 2; pi++ {
			for run(pi) > 0 {
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
// objects per lock acquisition, maximizing drain throughput.
func (e *Engine) AdaptiveBGBatch(max int) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.adaptiveLocked(max)
}

// adaptiveLocked is AdaptiveBGBatch with mu held.
func (e *Engine) adaptiveLocked(max int) int {
	return bgSize(e.backlogLocked(), adaptiveBatchStep, max)
}

// bgSize maps a durability-lag backlog (bytes not yet verified) to a
// background batch size in [1, max]: step is the backlog that buys one
// more object of batch.
func bgSize(backlogBytes, step, max int) int {
	if max <= 1 {
		return 1
	}
	if step <= 0 {
		step = 1
	}
	return min(1+backlogBytes/step, max)
}

// bgSuperseded reports whether the version at off in pool pi is no longer
// its key's head version. Callers hold mu.
func (e *Engine) bgSuperseded(h any, pi int, off uint64, klen int) bool {
	pool := e.pools[pi]
	e.keyScratch = pool.ReadKeyInto(e.keyScratch, off, klen)
	lookup := e.begin(h, OpBGLookup)
	keyHash := kv.HashKey(e.keyScratch)
	e.sink.Charge(h, OpBGLookup, 0)
	_, en, found := e.table.Lookup(keyHash)
	e.end(h, lookup)
	if !found {
		return true // entry reclaimed: version unreachable
	}
	// An entry that names no version yet is treated as current.
	hpi, hoff, _, ok := e.head(en)
	return ok && (hpi != pi || hoff != off)
}
