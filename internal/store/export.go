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
	"math"

	"efactory/internal/kv"
)

// ExportVersion is one version of a key in export order (oldest →
// newest). Flags carries the object's kv flag byte verbatim: a version
// that was not yet durable on the source imports as not-yet-durable on
// the target, where the usual verify-on-demand path re-checks its CRC.
type ExportVersion struct {
	Seq       uint64
	CreatedAt uint64
	CRC       uint32
	Flags     uint8
	TxnID     uint64
	Value     []byte
}

// ExportKey is one hash entry's exported state: the key, its tombstone
// bit, its cut sequence, and its version chain oldest-first. A
// tombstoned key exports with no versions — importing it applies the
// delete. Between instances it travels in a record frame
// (AppendRecords, DecodeRecordsInto).
type ExportKey struct {
	Key       []byte
	Tombstone bool
	CutSeq    uint64
	Versions  []ExportVersion
}

// NewestSeq returns the sequence number of the newest exported version
// (0 for a bare tombstone).
func (ek *ExportKey) NewestSeq() uint64 {
	if len(ek.Versions) == 0 {
		return 0
	}
	return ek.Versions[len(ek.Versions)-1].Seq
}

// Valid reports whether ek is a record an exporter can produce, the
// check a receiver runs before importing bytes a peer shipped: a
// non-empty key, a tombstone with no versions, and versions that each
// pass kv.Storable with strictly ascending sequence numbers at or above
// the cut.
func (ek *ExportKey) Valid() bool {
	if len(ek.Key) == 0 || ek.Tombstone && len(ek.Versions) > 0 {
		return false
	}
	for i, v := range ek.Versions {
		if !kv.Storable(len(ek.Key), uint64(len(v.Value))) || v.Seq < ek.CutSeq ||
			i > 0 && v.Seq <= ek.Versions[i-1].Seq {
			return false
		}
	}
	return true
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

// ExportState returns ExportOne(key)'s tombstone bit, cut sequence,
// NewestSeq and found verdict without copying the chain: the walk stops
// at the first version an export takes, normally the head. A mirror
// sender compares it with the record it just shipped to decide whether a
// compensating record must follow. It counts no export.
func (e *Engine) ExportState(key []byte) (tomb bool, cut, newest uint64, found bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, en, ok := e.table.Lookup(kv.HashKey(key))
	if !ok {
		return false, 0, 0, false
	}
	pi, off, _, ok := e.exportHeadLocked(en)
	if !ok {
		return false, 0, 0, false
	}
	if en.Tombstone() {
		return true, en.CutSeq(), 0, true
	}
	_, _, hd, ok := e.exportNextLocked(pi, off, en.CutSeq(), math.MaxUint64)
	if !ok {
		return false, 0, 0, false
	}
	return false, en.CutSeq(), hd.Seq, true
}

// exportHeadLocked locates the object an export of en starts at: its
// head, whose header must name a key. head finds a location for every
// entry that names one — a tombstone's too, whose lone location may be a
// pre-delete copy below its cut: head takes a lone location as it stands.
// Callers hold mu.
func (e *Engine) exportHeadLocked(en kv.Entry) (pi int, off uint64, hd kv.Header, ok bool) {
	if pi, off, _, ok = e.head(en); !ok {
		return 0, 0, kv.Header{}, false
	}
	hd = e.pools[pi].Header(off)
	if hd.Magic != kv.Magic || hd.KLen <= 0 {
		return 0, 0, kv.Header{}, false
	}
	return pi, off, hd, true
}

// exportNextLocked walks the chain newest-first from (pi, off) to the
// next version an export takes: a valid version at or above cut — versions
// below the cut predate an acknowledged DELETE and stay dead — whose seq
// is below below, the last seq taken. A version whose seq is not below it
// is a copy an import shadowed (ImportKey's equal-seq durability upgrade),
// so a record's seqs strictly ascend. ok is false when the chain ends
// first. Callers hold mu.
func (e *Engine) exportNextLocked(pi int, off, cut, below uint64) (int, uint64, kv.Header, bool) {
	for {
		hd := e.pools[pi].Header(off)
		if hd.Magic != kv.Magic || hd.KLen <= 0 {
			return 0, 0, kv.Header{}, false
		}
		if hd.Valid() && hd.Seq >= cut && hd.Seq < below {
			return pi, off, hd, true
		}
		var ok bool
		if pi, off, _, ok = kv.UnpackVPtr(hd.PrePtr); !ok {
			return 0, 0, kv.Header{}, false
		}
	}
}

// exportEntryLocked serializes one hash entry. Callers hold mu.
func (e *Engine) exportEntryLocked(en kv.Entry) (ExportKey, bool) {
	pi, off, head, ok := e.exportHeadLocked(en)
	if !ok {
		return ExportKey{}, false
	}
	key := append([]byte(nil), e.pools[pi].ReadKeyInto(nil, off, head.KLen)...)
	ek := ExportKey{Key: key, Tombstone: en.Tombstone(), CutSeq: en.CutSeq()}
	if ek.Tombstone {
		// The delete is the entry's whole state; pre-delete versions are
		// dead and must not travel.
		return ek, true
	}
	for below := uint64(math.MaxUint64); ; {
		var hd kv.Header
		if pi, off, hd, ok = e.exportNextLocked(pi, off, ek.CutSeq, below); !ok {
			break
		}
		below = hd.Seq
		ek.Versions = append(ek.Versions, ExportVersion{
			Seq:       hd.Seq,
			CreatedAt: hd.CreatedAt,
			CRC:       hd.CRC,
			Flags:     hd.Flags,
			TxnID:     hd.TxnID,
			Value:     append([]byte(nil), e.pools[pi].ReadValueInto(nil, off, hd.KLen, hd.VLen)...),
		})
		if pi, off, _, ok = kv.UnpackVPtr(hd.PrePtr); !ok {
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
// overlap safely; otherwise only the versions newer than the resident
// head are appended. Returns StatusFull only when the table or pool cannot
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

	chainSize := 0
	for _, v := range ek.Versions {
		chainSize += kv.ObjectSize(len(ek.Key), len(v.Value))
	}
	e.maybeCleanLocked(chainSize)
	c, ok := e.claimSlot(keyHash)
	if !ok {
		return StatusFull
	}
	pi := e.writePool()
	e.markFresh(c, pi)
	en := e.table.Entry(c.idx)

	// Supersession: keep whichever side is newer. The exporter serializes
	// states per key, so a newest-seq comparison is a total order — with
	// one refinement at equality: an export taken while a one-sided value
	// write was still in flight ships a not-yet-durable (possibly torn)
	// head, and the re-copy taken after that write settled ships the same
	// sequence durable. The durable copy must win, or the importer is left
	// holding only the torn one (which its verifier will invalidate,
	// losing an acknowledged write).
	//
	// Only the incoming versions newer than the resident head are
	// appended: the resident chain already holds the older ones, and
	// re-appending them (a compensating record or a re-copy ships the
	// whole chain) would only hand the cleaner duplicates. An equal seq
	// is appended in the one upgrade case: resident pending, incoming
	// durable.
	pre := kv.NilPtr
	versions := ek.Versions
	if !c.fresh && !en.Tombstone() {
		if hpi, off, l, ok := e.head(en); ok {
			hd := e.pools[hpi].Header(off)
			if hd.Magic == kv.Magic {
				for len(versions) > 0 && (versions[0].Seq < hd.Seq || versions[0].Seq == hd.Seq &&
					(hd.Durable() || versions[0].Flags&kv.FlagDurable == 0)) {
					versions = versions[1:]
				}
				if len(versions) == 0 {
					return StatusOK
				}
				// The shadowed torn copy of an upgrade is unreachable
				// garbage for the log cleaner.
				pre = kv.PackVPtr(hpi, off, l)
			}
		}
	}

	// Each version's PrePtr names the one appended before it, then the
	// newest publishes. Persist only what the source had persisted: a durable
	// version's value is flushed, a not-yet-durable one stays volatile, so
	// a crash on the importing engine discards exactly the versions a
	// crash on the exporting engine would have.
	for _, v := range versions {
		hd := kv.Header{
			PrePtr:    pre,
			Seq:       v.Seq,
			CreatedAt: v.CreatedAt,
			CRC:       v.CRC,
			VLen:      len(v.Value),
			Flags:     v.Flags,
			TxnID:     v.TxnID,
		}
		off, ok := e.appendLocked(pi, &hd, ek.Key, v.Value, v.Flags&kv.FlagDurable != 0)
		if !ok {
			// Already-appended versions become unpublished garbage for the
			// cleaner.
			e.releaseFresh(c)
			return StatusFull
		}
		pre = kv.PackVPtr(pi, off, kv.ObjectSize(len(ek.Key), len(v.Value)))
	}
	// One persisted word clears the tombstone (if any) and records the
	// incoming cut sequence, exactly like a re-PUT over a tombstone.
	e.publishLocked(c.idx, en.Tombstone() || ek.CutSeq > 0, ek.CutSeq, pre)
	if ns := ek.NewestSeq(); ns > e.nextSeq {
		e.nextSeq = ns
	}
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
