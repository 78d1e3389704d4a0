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
// value durable before any flag is. A value still in flight, or intact
// without a mirror quorum, stalls the scan there for a later call to
// retry; one past VerifyTimeout is invalidated and passed over (log
// cleaning reclaims the space). The lock is taken per run so request
// handling interleaves. It returns the number of objects passed over; 0
// means the cursor is parked at the end of the log, on an in-flight
// value, or in a pool the cleaner just recycled.
func (e *Engine) BGBatch(h any, pi, limit int) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.bgBatchLocked(h, pi, limit)
}

// bgBatchLocked is BGBatch with mu held.
func (e *Engine) bgBatchLocked(h any, pi, limit int) int {
	if limit > 1 {
		e.lastBGBatch = limit
	}
	pool := e.pools[pi]
	processed := 0
	run := e.bgRun[:0]
	var end uint64
scan:
	for processed < max(limit, 1) && e.bgCursor[pi]+kv.HeaderSize <= pool.Used() {
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
			e.stats.BGSkipped++
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
			e.stats.BGStale++
		default:
			switch e.verify(h, pi, off, hd, OpBGCRC) {
			case verIntact:
				run, end = append(run, off), off+uint64(size)
			case verFlagged:
				e.stats.BGSkipped++
			case verDead:
				e.stats.BGInvalidated++
				e.keyScratch = pool.ReadKeyInto(e.keyScratch, off, hd.KLen)
				e.trace("bg_verify", "invalidated", kv.HashKey(e.keyScratch), hd.Seq)
			default:
				break scan
			}
		}
		e.bgCursor[pi] += size
		processed++
	}
	e.bgRun = run[:0] // retain capacity for the next batch
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
