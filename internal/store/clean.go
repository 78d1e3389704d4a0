package store

import "efactory/internal/kv"

// Log cleaning (§4.4) reclaims deleted and stale versions in two stages:
//
// Stage 1, log compressing: clients are told to switch to the RPC+RDMA
// read scheme; a fresh data pool is prepared; the cleaner scans the old
// pool in reverse (newest first) and migrates, for each live key, the
// newest version that is durable or can be made durable, staging the new
// location in the hash entry's second offset. Writes keep flowing into the
// old pool and publish through the "old" offset as usual.
//
// Stage 2, log merging: new writes switch to the new pool; the objects
// written to the old pool during compression are scanned in reverse and
// merged, skipping any version superseded by a durable newer one (the
// D1/D2 rule of Figure 7(b)).
//
// Finally every entry's mark bit flips to the new pool, old offsets are
// cleared, clients are told cleaning has finished, and the pools swap
// roles.
//
// The cleaner takes the engine lock per migration attempt so request
// handling interleaves; when a value it needs is still in flight it backs
// off through Deps.CleanerWait and retries the whole attempt.

// StartCleaning triggers a log-cleaning run on this shard (also triggered
// automatically by CleanThreshold). It returns false if one is already in
// progress or the engine is stopped.
func (e *Engine) StartCleaning() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cleaning || e.stopped {
		return false
	}
	e.startCleaningLocked()
	return true
}

// startCleaningLocked spawns the cleaner; callers hold mu.
func (e *Engine) startCleaningLocked() {
	e.cleaning = true
	e.deps.Spawn("store-cleaner", e.runCleaner)
}

// cleanScratch is one cleaning run's reusable buffers: the window's
// object offsets, and the key and value of the object being migrated.
// It belongs to the run, not the engine: e.keyScratch cannot serve,
// because the mirror inside ensureDurableLocked drops mu and the verifier
// rewrites keyScratch in that window.
type cleanScratch struct {
	offs     []uint64
	key, val []byte
}

// zeroChunk bounds one Zero call of the cleaner's pool clear.
const zeroChunk = 1 << 20

// runCleaner is the log-cleaning process for one run.
func (e *Engine) runCleaner(h any) {
	e.trace("clean", "start", 0, 0)
	if e.deps.OnCleanStart != nil {
		e.deps.OnCleanStart(h)
	}

	e.mu.Lock()
	old := e.cur
	newer := 1 - e.cur
	// Prepare the new pool: recycle the region, then zero it so stale
	// headers from the run before last cannot be misread.
	e.pools[newer] = kv.NewPool(e.dev, e.pools[newer].Base(), e.cfg.PoolSize)
	e.bgCursor[newer] = 0
	compressEnd := e.pools[old].Used()
	e.mu.Unlock()
	// The zeroing runs outside mu, a chunk at a time, so requests do not
	// stall behind a whole pool's clear (nor behind the device lock each
	// Zero holds). Nothing touches the fresh pool until stage 1 appends to
	// it below: writes, ImportKey and transaction stages all append to
	// writePool(), which stays the old pool until merging starts, and the
	// verifier's scan of it ends at Used(), which is 0.
	base := e.pools[newer].Base()
	for off := 0; off < e.cfg.PoolSize; off += zeroChunk {
		e.dev.Zero(base+off, min(zeroChunk, e.cfg.PoolSize-off))
	}

	var sc cleanScratch

	// ---- Stage 1: log compressing ----
	if !e.sweep(h, &sc, old, 0, compressEnd) {
		return // shutdown mid-run: staged state stays; recovery handles it
	}

	// ---- Stage 2: log merging ----
	e.mu.Lock()
	e.merging = true // new writes now target the new pool
	mergeEnd := e.pools[old].Used()
	e.mu.Unlock()
	if !e.sweep(h, &sc, old, compressEnd, mergeEnd) {
		return
	}

	// Final sweep: flip every entry with a version in the new pool to it;
	// reclaim the others. An entry must outlive every version of its key
	// left in the log, live or not: reclaimed, it would take its tombstone
	// and cut along, a later re-PUT would start a fresh entry with neither,
	// and the next run could resurrect deleted data. So an entry whose
	// staged version is below its cut (migrated before a DELETE and a
	// re-PUT that then died) flips as a tombstone. The flip names the new
	// pool rather than toggling, so an entry a merge-stage PUT created
	// already on it is left as it is.
	e.mu.Lock()
	e.table.RangeAll(func(i int, en kv.Entry) bool {
		entry := e.begin(h, OpCleanEntry)
		e.sink.Charge(h, OpCleanEntry, 0)
		// Re-read: the charge may have yielded to a request on this entry.
		if en = e.table.Entry(i); en.Free() {
			return true
		}
		stagedOff, _, _ := kv.UnpackLoc(en.Loc[newer])
		switch {
		case en.Loc[newer] == 0:
			e.table.Clear(i)
		case !en.Tombstone() && belowCut(en, e.pools[newer].Header(stagedOff).Seq):
			e.table.Delete(i)
			fallthrough
		default:
			e.table.FlipMark(i, newer)
		}
		e.end(h, entry)
		return true
	})
	e.cur = newer
	e.merging = false
	e.cleaning = false
	e.stats.Cleanings++
	e.mu.Unlock()
	e.trace("clean", "end", 0, 0)

	if e.deps.OnCleanEnd != nil {
		e.deps.OnCleanEnd(h)
	}
}

// sweep reverse-scans pool pi over [lo, hi) and migrates live versions to
// the other pool. It returns false if the run was aborted by CleanerWait.
func (e *Engine) sweep(h any, sc *cleanScratch, pi, lo, hi int) bool {
	e.mu.Lock()
	// Collect object offsets in the window, then walk newest-first. lo is
	// 0 or stage 1's end, which is an object boundary: the stage-2 scan
	// does not re-read stage 1's headers.
	offs := sc.offs[:0]
	e.pools[pi].Scan(lo, hi, func(off uint64, hd kv.Header) bool {
		offs = append(offs, off)
		return true
	})
	sc.offs = offs
	e.mu.Unlock()
	for i := len(offs) - 1; i >= 0; i-- {
		for !e.tryMigrate(h, sc, pi, offs[i]) {
			// An involved version's value is still in flight: back off and
			// retry (the paper's merge rule: skip the older version only
			// once the newer "already or can be made durable").
			if !e.deps.CleanerWait(h) {
				return false
			}
		}
	}
	return true
}

// tryMigrate performs one migration attempt for the version at off in pool
// pi under the lock: migrate it to the new pool, or drop it as
// stale/dead. It reports false when it must be retried because a value is
// still in flight. The key and value are read into sc.
func (e *Engine) tryMigrate(h any, sc *cleanScratch, pi int, off uint64) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	pool := e.pools[pi]
	scan := e.begin(h, OpBGScan)
	e.sink.Charge(h, OpBGScan, 0)
	hd := pool.Header(off)
	e.end(h, scan)
	if hd.Magic != kv.Magic || !hd.Valid() {
		e.stats.CleanDropped++
		return true
	}
	lookup := e.begin(h, OpBGLookup)
	sc.key = pool.ReadKeyInto(sc.key, off, hd.KLen)
	key := sc.key
	e.sink.Charge(h, OpBGLookup, 0)
	idx, en, found := e.table.Lookup(kv.HashKey(key))
	e.end(h, lookup)
	if !found || en.Tombstone() {
		e.stats.CleanDropped++
		return true
	}
	// A version below the entry's cut predates an acknowledged DELETE:
	// migrating it would resurrect deleted data. Otherwise ask the head
	// rule with this version standing in for the old pool's location.
	// Beside the staged location, it loses to a staged version at least as
	// new — migrated earlier (the reverse scan visits newest first) or
	// written to the new pool while merging — which may replace it only
	// once durable or able to be made durable (Figure 7(b)'s D1/D2 rule);
	// a staged version that turns out dead gives way to its predecessor and
	// the rule is asked again.
	if belowCut(en, hd.Seq) {
		e.stats.CleanDropped++
		return true
	}
	view := en
	view.Loc[pi] = kv.PackLoc(off, kv.ObjectSize(hd.KLen, hd.VLen))
	for {
		hpi, hoff, _, _ := e.head(view)
		if hpi == pi {
			break
		}
		switch e.ensureDurableLocked(h, hpi, hoff) {
		case verFlagged:
			e.stats.CleanDropped++
			return true
		case verPending:
			return false // wait for the newer version to settle
		}
		// Dead: the next staged candidate is its predecessor, if that was
		// also written to the new pool while merging.
		view.Loc[hpi] = 0
		if ppi, poff, plen, ok := kv.UnpackVPtr(e.pools[hpi].Header(hoff).PrePtr); ok && ppi == hpi {
			view.Loc[hpi] = kv.PackLoc(poff, plen)
		}
	}
	// This version is the migration candidate: it must be intact.
	switch e.ensureDurableLocked(h, pi, off) {
	case verDead:
		e.stats.CleanDropped++
		return true // dead write; an older version may still be migrated later
	case verPending:
		return false
	}
	// The mirror inside ensureDurableLocked may have dropped the engine
	// lock, and the copy's charge may yield; the entry looked up above can
	// be stale — the key may have been deleted, re-put, or written directly
	// to the new pool (merging) meanwhile, and staging over that state
	// would regress the head. If anything moved, retry the whole attempt:
	// the version is flagged durable now, so the re-run revalidates without
	// another window.
	size := kv.ObjectSize(hd.KLen, hd.VLen)
	cp := e.begin(h, OpCleanCopy)
	e.sink.Charge(h, OpCleanCopy, size)
	if idx2, en2, found2 := e.table.Lookup(kv.HashKey(key)); !found2 || idx2 != idx || en2 != en {
		return false
	}
	sc.val = pool.ReadValueInto(sc.val, off, hd.KLen, hd.VLen)
	nh := kv.Header{
		PrePtr:    kv.NilPtr,
		Seq:       hd.Seq,
		CreatedAt: hd.CreatedAt,
		CRC:       hd.CRC,
		VLen:      hd.VLen,
		Flags:     kv.FlagValid | kv.FlagDurable,
	}
	newOff, ok := e.appendLocked(1-pi, &nh, key, sc.val, true)
	if !ok {
		// Should be impossible: the live set fits by construction. Leave
		// the old copy authoritative.
		return true
	}
	e.end(h, cp)
	// The copy lands durable, so a verifier cursor standing on it moves
	// past. In stage 1 only the cleaner appends to the new pool, so the
	// cursor keeps pace with every copy; in stage 2 a merge-stage PUT may
	// hold it back, and it skips the copies behind that PUT as durable.
	if e.bgCursor[1-pi] == int(newOff) {
		e.bgCursor[1-pi] += size
	}
	e.publishLocked(idx, false, 0, kv.PackVPtr(1-pi, newOff, size))
	// An old-pool location naming dead versions that roll back to this one
	// would outrank the copy by sequence number, and a merge-stage PUT
	// would chain past the copy into the pool this run recycles: the copy
	// is all the entry needs.
	if old := en.Loc[pi]; old != 0 && old != view.Loc[pi] && e.deadDownTo(pi, old, off) {
		e.table.SetLoc(idx, pi, 0)
	}
	e.stats.CleanMoved++
	return true
}

// deadDownTo reports whether rolling back from loc in pool pi reaches the
// version at off over invalid versions only. Callers hold mu.
func (e *Engine) deadDownTo(pi int, loc, off uint64) bool {
	o, _, _ := kv.UnpackLoc(loc)
	for o != off {
		hd := e.pools[pi].Header(o)
		if hd.Magic != kv.Magic || hd.Valid() {
			return false
		}
		ppi, po, _, ok := kv.UnpackVPtr(hd.PrePtr)
		if !ok || ppi != pi {
			return false
		}
		o = po
	}
	return true
}

// ensureDurableLocked is the cleaner's verify step for the version at off:
// verFlagged once it is durable, verDead if it is (or just became)
// invalid, verPending while its value is in flight or its mirror short of
// a quorum. Callers hold mu; the mirror drops it, so on return the caller
// may only trust offsets when the verdict is verFlagged.
func (e *Engine) ensureDurableLocked(h any, pi int, off uint64) verdict {
	hd := e.pools[pi].Header(off)
	switch {
	case !hd.Valid():
		return verDead
	case hd.Durable():
		return verFlagged
	}
	v := e.verify(h, pi, off, hd, OpBGCRC)
	if v == verIntact && !e.persist(h, pi, []uint64{off}, off+uint64(kv.ObjectSize(hd.KLen, hd.VLen)), OpBGFlush) {
		return verPending
	}
	switch v {
	case verIntact, verFlagged:
		return verFlagged
	case verDead:
		e.stats.BGInvalidated++
		e.trace("clean", "invalidated", 0, hd.Seq)
		return verDead
	}
	return verPending
}
