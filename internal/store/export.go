// Shard export/import: the storage half of online migration. Export
// walks a shard's hash entries and serializes every key the caller's
// filter accepts — full version chains, durability flags, tombstones,
// and cut sequences — and import re-materializes them into another
// engine with the same semantics recovery would produce: version order,
// sequence numbers, CRCs, and flags survive bit-exactly, so a GET (or a
// crash + recovery) on the importing engine resolves exactly the version
// the exporting engine would have served.
package store

import (
	"efactory/internal/kv"
)

// ExportVersion is one version of a key in export order (oldest →
// newest). Flags carries the object's kv flag byte verbatim: a version
// that was not yet durable on the source imports as not-yet-durable on
// the target, where the usual verify-on-demand path re-checks its CRC.
type ExportVersion struct {
	Seq       uint64 `json:"seq"`
	CreatedAt uint64 `json:"at"`
	CRC       uint32 `json:"crc"`
	Flags     uint8  `json:"flags"`
	TxnID     uint64 `json:"txn,omitempty"`
	Value     []byte `json:"value"`
}

// ExportKey is one hash entry's exported state: the key, its tombstone
// bit, its cut sequence, and its version chain oldest-first. A
// tombstoned key exports with no versions — importing it applies the
// delete.
type ExportKey struct {
	Key       []byte          `json:"key"`
	Tombstone bool            `json:"tombstone,omitempty"`
	CutSeq    uint64          `json:"cut,omitempty"`
	Versions  []ExportVersion `json:"versions,omitempty"`
}

// NewestSeq returns the sequence number of the newest exported version
// (0 for a bare tombstone).
func (ek *ExportKey) NewestSeq() uint64 {
	if len(ek.Versions) == 0 {
		return 0
	}
	return ek.Versions[len(ek.Versions)-1].Seq
}

// ExportMatching walks the shard's hash table under the engine lock and
// emits every entry whose key hash the filter accepts (a nil filter
// accepts everything); migration passes a placement-group predicate.
// The emit callback returns false to stop early. Entries whose chain
// holds no readable version are skipped — they have nothing to move.
func (e *Engine) ExportMatching(accept func(hash uint64) bool, emit func(ExportKey) bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.table.RangeAll(func(i int, en kv.Entry) bool {
		if accept != nil && !accept(en.KeyHash) {
			return true
		}
		ek, ok := e.exportEntryLocked(en)
		if !ok {
			return true
		}
		e.stats.KeysExported++
		return emit(ek)
	})
}

// ExportOne exports a single key's current state (nil, false if the key
// has no entry or nothing readable). Migration drain uses it to re-copy
// keys dirtied after the snapshot pass.
func (e *Engine) ExportOne(key []byte) (ExportKey, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, en, found := e.table.Lookup(kv.HashKey(key))
	if !found {
		return ExportKey{}, false
	}
	ek, ok := e.exportEntryLocked(en)
	if ok {
		e.stats.KeysExported++
	}
	return ek, ok
}

// exportEntryLocked serializes one hash entry. Callers hold mu.
func (e *Engine) exportEntryLocked(en kv.Entry) (ExportKey, bool) {
	// The key bytes live in the log, and head finds a location for every
	// entry that names one — a tombstone's too, whose lone location may be
	// a pre-delete copy below its cut: head takes a lone location as it
	// stands.
	pi, off, _, ok := e.head(en)
	if !ok {
		return ExportKey{}, false
	}
	head := e.pools[pi].Header(off)
	if head.Magic != kv.Magic || head.KLen <= 0 {
		return ExportKey{}, false
	}
	key := append([]byte(nil), e.pools[pi].ReadKeyInto(nil, off, head.KLen)...)
	ek := ExportKey{Key: key, Tombstone: en.Tombstone(), CutSeq: en.CutSeq()}
	if ek.Tombstone {
		// The delete is the entry's whole state; pre-delete versions are
		// dead and must not travel.
		return ek, true
	}
	// Walk the chain newest-first from the head, respecting the cut the
	// record carries: versions below it predate an acknowledged DELETE and
	// stay dead.
	for {
		pool := e.pools[pi]
		hd := pool.Header(off)
		if hd.Magic != kv.Magic || hd.KLen <= 0 {
			break
		}
		if hd.Valid() && hd.Seq >= ek.CutSeq {
			ek.Versions = append(ek.Versions, ExportVersion{
				Seq:       hd.Seq,
				CreatedAt: hd.CreatedAt,
				CRC:       hd.CRC,
				Flags:     hd.Flags,
				TxnID:     hd.TxnID,
				Value:     append([]byte(nil), pool.ReadValueInto(nil, off, hd.KLen, hd.VLen)...),
			})
		}
		var okPre bool
		pi, off, _, okPre = kv.UnpackVPtr(hd.PrePtr)
		if !okPre {
			break
		}
	}
	if len(ek.Versions) == 0 {
		return ExportKey{}, false
	}
	// Reverse newest-first to oldest-first so import can rebuild the
	// chain in append order.
	for i, j := 0, len(ek.Versions)-1; i < j; i, j = i+1, j-1 {
		ek.Versions[i], ek.Versions[j] = ek.Versions[j], ek.Versions[i]
	}
	return ek, true
}

// ImportKey ingests one exported key into this engine, preserving
// version order, sequence numbers, CRCs, durability flags, tombstones,
// and cut sequences. Imports are idempotent and monotone: if the engine
// already holds this key at a sequence >= the incoming newest, the
// import is a no-op, so migration's snapshot + drain re-copies can
// overlap safely. Returns StatusFull only when the table or pool cannot
// hold the data.
func (e *Engine) ImportKey(h any, ek ExportKey) Status {
	e.mu.Lock()
	defer e.mu.Unlock()
	keyHash := kv.HashKey(ek.Key)

	if ek.Tombstone {
		// A tombstone import is a delete: only meaningful if the key is
		// present. An absent key is already indistinguishable from a
		// deleted one.
		idx, en, found := e.table.Lookup(keyHash)
		if found && !en.Tombstone() {
			e.table.Delete(idx)
		}
		e.stats.KeysImported++
		return StatusOK
	}
	if len(ek.Versions) == 0 {
		return StatusOK
	}

	idx, existed, ok := e.table.FindSlot(keyHash)
	if !ok {
		e.stats.AllocFailures++
		return StatusFull
	}
	pi, pool := e.writePool()
	if !existed && pi == 1 {
		e.table.SetMark(idx, pi)
	}
	en := e.table.Entry(idx)

	// Supersession: keep whichever side is newer. The exporter serializes
	// states per key, so a newest-seq comparison is a total order — with
	// one refinement at equality: an export taken while a one-sided value
	// write was still in flight ships a not-yet-durable (possibly torn)
	// head, and the re-copy taken after that write settled ships the same
	// sequence durable. The durable copy must win, or the importer is left
	// holding only the torn one (which its verifier will invalidate,
	// losing an acknowledged write).
	pre := kv.NilPtr
	if existed && !en.Tombstone() {
		if hpi, off, l, ok := e.head(en); ok {
			hd := e.pools[hpi].Header(off)
			if hd.Magic == kv.Magic {
				inNewest := ek.Versions[len(ek.Versions)-1]
				if hd.Seq > inNewest.Seq ||
					(hd.Seq == inNewest.Seq &&
						(hd.Durable() || inNewest.Flags&kv.FlagDurable == 0)) {
					return StatusOK
				}
				// Equal seq, resident pending, incoming durable: fall
				// through and append the incoming chain over the resident
				// head, so the durable copy becomes the version reads
				// resolve. The shadowed torn copy is unreachable garbage
				// for the log cleaner.
				pre = kv.PackVPtr(hpi, off, l)
			}
		}
	}

	var (
		lastOff  uint64
		lastSize int
	)
	for _, v := range ek.Versions {
		hd := kv.Header{
			PrePtr:    pre,
			NextPtr:   kv.NilPtr,
			Seq:       v.Seq,
			CreatedAt: v.CreatedAt,
			CRC:       v.CRC,
			VLen:      len(v.Value),
			Flags:     v.Flags,
			TxnID:     v.TxnID,
		}
		size := kv.ObjectSize(len(ek.Key), len(v.Value))
		off, allocOK := pool.AppendObject(&hd, ek.Key)
		if !allocOK {
			// Already-appended versions become unpublished garbage for the
			// cleaner; a freshly claimed slot goes back like a failed PUT.
			if !existed {
				e.table.Release(idx)
				e.stats.SlotsReleased++
			}
			e.stats.AllocFailures++
			return StatusFull
		}
		pool.WriteValue(off, len(ek.Key), v.Value)
		// Persist only what the source had persisted: a durable version's
		// value is flushed, a not-yet-durable one stays volatile (header +
		// key are already flushed by AppendObject), so a crash on the
		// importing engine discards exactly the versions a crash on the
		// exporting engine would have.
		if v.Flags&kv.FlagDurable != 0 {
			pool.FlushObject(off, len(ek.Key), len(v.Value))
		}
		if prePool, preOff, _, okPre := kv.UnpackVPtr(pre); okPre {
			e.pools[prePool].SetNextPtr(preOff, kv.PackVPtr(pi, off, size))
		}
		pre = kv.PackVPtr(pi, off, size)
		lastOff, lastSize = off, size
	}

	e.table.SetLoc(idx, pi, kv.PackLoc(lastOff, lastSize))
	if en.Tombstone() || ek.CutSeq > 0 {
		// One persisted word clears the tombstone (if any) and records the
		// incoming cut sequence, exactly like a re-PUT over a tombstone.
		e.table.Undelete(idx, ek.CutSeq)
	}
	if ns := ek.NewestSeq(); ns > e.nextSeq {
		e.nextSeq = ns
	}
	e.pools[0].SetSeq(e.nextSeq)
	e.pools[1].SetSeq(e.nextSeq)
	e.stats.KeysImported++
	return StatusOK
}

// PurgeMatching clears every hash entry whose key hash the filter
// accepts, returning the number of entries cleared. Migration runs it on
// the source after cutover: the cleared slots make stale one-sided reads
// miss (forcing clients through the RPC path, where the wrong-epoch
// check redirects them) and let the log cleaner reclaim the moved
// objects' space.
func (e *Engine) PurgeMatching(accept func(hash uint64) bool) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	e.table.RangeAll(func(i int, en kv.Entry) bool {
		if accept != nil && !accept(en.KeyHash) {
			return true
		}
		e.table.Clear(i)
		n++
		return true
	})
	e.stats.KeysPurged += n
	return n
}
