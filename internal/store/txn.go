// Multi-key transactions over the version chains. The store-level half of
// internal/txn: staging, the commit record, the atomic visibility flip,
// snapshot reads, and crash recovery replay.
//
// A transaction writes in three phases:
//
//  1. Stage. Each op is appended to its shard's working pool as a normal
//     log object, fully persisted (header + key + value), but carrying
//     FlagTxn INSTEAD of FlagValid and the transaction id in the header's
//     TxnID word. Staged objects are invisible everywhere: reads,
//     recovery, the background verifier, and the cleaner all require
//     FlagValid, so an abandoned stage is plain garbage the cleaner
//     reclaims.
//
//  2. Commit record. With every involved engine locked (ascending shard
//     order, under the manager's commit lock) the ops are assigned final
//     sequence numbers, table slots are reserved, and a commit record —
//     a log object flagged FlagTxnRec whose value is the manifest of
//     (shard, pool, off, seq, crc) locators — is appended and flushed to
//     the lowest involved shard's pool. The record's CRC covers the
//     manifest, so a torn record is "not committed". The persisted record
//     is the commit point: recovery replays every op of a recorded
//     transaction or none of a recordless one, never a subset.
//
//  3. Flip. Each staged version gets its sequence number and previous-
//     version pointer persisted, its FlagValid set, and its table entry
//     published — the same word order as a single-key PUT. When every op
//     has flipped, the record is marked applied (FlagDurable on the
//     record) so recovery ignores it; the engine locks are held from
//     record write to applied mark, so no foreign write can interleave
//     with a replayable window.
//
// The whole record+flip section performs no sink charges: under the
// simulation's cooperative scheduler it is yield-free, so it is atomic by
// construction, exactly like the no-yield window inside putLocked.
//
// Durability follows the single-key rule: flipped versions are valid but
// not durable; the post-commit settle pass (and the background verifier)
// pushes each one through the mirror seam — CRC check, Deps.Mirror,
// flush, flag — so flag⇒quorum-durable extends to whole transactions.
package store

import (
	"encoding/binary"
	"fmt"
	"sort"

	"efactory/internal/crc"
	"efactory/internal/kv"
)

// NoSeqLimit makes getLocked consider every version (the non-snapshot
// read path).
const NoSeqLimit = ^uint64(0)

// txnRecKey is the marker key commit records are filed under. Records are
// never table-published, so the key only needs to parse (KLen > 0).
var txnRecKey = []byte("\x00txnrec\x00")

// StagedOp is one staged write of an in-flight transaction. Its fields
// are private to the store: internal/txn threads the values through
// opaquely between TxnStage and TxnCommit.
type StagedOp struct {
	shard int
	pi    int      // pool index at stage time
	pool  *kv.Pool // pool identity at stage time (revalidated at commit)
	off   uint64
	size  int
	key   []byte // retained so commit can restage after a pool recycle
	value []byte
	crc   uint32
	// assigned by TxnCommit:
	seq     uint64
	idx     int
	existed bool
}

// Sink exposes the store's cost sink so the transaction manager can
// charge commit costs before entering the yield-free commit section.
func (s *Store) Sink() CostSink { return s.engines[0].sink }

// TxnStage appends one transactional write to key's shard, fully
// persisted but invisible (FlagTxn, no FlagValid, sequence 0). The
// returned op is the handle TxnCommit flips; a failed stage leaves only
// unreferenced garbage behind.
func (s *Store) TxnStage(h any, txnID uint64, key, value []byte) (*StagedOp, Status) {
	e := s.engines[s.ShardFor(key)]
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stats.TxnStages++
	pi, pool := e.writePool()
	size := kv.ObjectSize(len(key), len(value))
	if e.cfg.CleanThreshold > 0 && !e.cleaning && !e.stopped &&
		float64(pool.Free()-size) < e.cfg.CleanThreshold*float64(pool.Cap()) {
		e.startCleaningLocked()
		pi, pool = e.writePool()
	}
	tAlloc := e.sink.Now()
	e.sink.Charge(h, OpAlloc, size)
	// The charge may have yielded (simulation) and started a cleaning run;
	// re-resolve the working pool so the append lands where commit expects.
	pi, pool = e.writePool()
	op := &StagedOp{
		shard: e.shard,
		key:   append([]byte(nil), key...),
		value: append([]byte(nil), value...),
		crc:   crc.Checksum(value),
		size:  size,
	}
	hd := kv.Header{
		PrePtr:    kv.NilPtr,
		NextPtr:   kv.NilPtr,
		CreatedAt: e.sink.Now(),
		CRC:       op.crc,
		VLen:      len(value),
		Flags:     kv.FlagTxn,
		TxnID:     txnID,
	}
	off, ok := pool.AppendObject(&hd, key)
	if !ok {
		e.stats.AllocFailures++
		e.trace("txn", "stage_pool_full", kv.HashKey(key), 0)
		return nil, StatusFull
	}
	e.observeH(h, int(OpAlloc), tAlloc)
	pool.WriteValue(off, len(key), value)
	tFlush := e.sink.Now()
	e.sink.Charge(h, OpFlush, size)
	pool.FlushObject(off, len(key), len(value))
	e.observeH(h, int(OpFlush), tFlush)
	op.pi, op.pool, op.off = pi, pool, off
	return op, StatusOK
}

// TxnCommit atomically commits the staged ops of one transaction: it
// locks every involved engine (ascending shard order), revalidates each
// staged object (restaging any the cleaner recycled), reserves table
// slots, assigns sequence numbers, writes the commit record, flips every
// op visible, and marks the record applied. Callers MUST hold the
// manager's commit lock; the section between the first engine lock and
// the return performs no sink charges, so it is yield-free under the
// simulation and lock-covered over TCP.
func (s *Store) TxnCommit(h any, txnID uint64, ops []*StagedOp) Status {
	if len(ops) == 0 {
		return StatusOK
	}
	// Involved shards, ascending, deduplicated.
	shards := make([]int, 0, len(ops))
	seen := make(map[int]bool, len(ops))
	for _, op := range ops {
		if !seen[op.shard] {
			seen[op.shard] = true
			shards = append(shards, op.shard)
		}
	}
	sort.Ints(shards)
	for _, sh := range shards {
		s.engines[sh].mu.Lock()
	}
	defer func() {
		for i := len(shards) - 1; i >= 0; i-- {
			s.engines[shards[i]].mu.Unlock()
		}
	}()

	// Phase 1: revalidate every staged object. The cleaner may have
	// recycled a pool (pointer identity changes) or the stage may predate
	// a working-pool switch; either way the staged bytes are re-appended
	// to the current working pool from the retained copy.
	for _, op := range ops {
		e := s.engines[op.shard]
		wi, wpool := e.writePool()
		fresh := e.pools[op.pi] == op.pool && op.pool == wpool
		if fresh {
			hd := op.pool.Header(op.off)
			fresh = hd.Magic == kv.Magic && hd.TxnID == txnID && hd.Staged()
		}
		if !fresh {
			hd := kv.Header{
				PrePtr:    kv.NilPtr,
				NextPtr:   kv.NilPtr,
				CreatedAt: e.sink.Now(),
				CRC:       op.crc,
				VLen:      len(op.value),
				Flags:     kv.FlagTxn,
				TxnID:     txnID,
			}
			off, ok := wpool.AppendObject(&hd, op.key)
			if !ok {
				e.stats.AllocFailures++
				e.stats.TxnAborts++
				return StatusFull
			}
			wpool.WriteValue(off, len(op.key), op.value)
			wpool.FlushObject(off, len(op.key), len(op.value))
			op.pi, op.pool, op.off = wi, wpool, off
		}
	}

	// Phase 2: reserve table slots and assign commit sequence numbers.
	// Fresh slots claimed here are released if the record cannot be
	// written, exactly like a pool-full PUT.
	type claim struct {
		shard, idx int
	}
	var claimed []claim
	release := func() {
		for _, c := range claimed {
			s.engines[c.shard].table.Release(c.idx)
			s.engines[c.shard].stats.SlotsReleased++
		}
	}
	for _, op := range ops {
		e := s.engines[op.shard]
		idx, existed, ok := e.table.FindSlot(kv.HashKey(op.key))
		if !ok {
			release()
			e.stats.AllocFailures++
			e.stats.TxnAborts++
			e.trace("txn", "table_full", kv.HashKey(op.key), 0)
			return StatusFull
		}
		if !existed {
			if op.pi == 1 {
				e.table.SetMark(idx, op.pi)
			}
			claimed = append(claimed, claim{op.shard, idx})
		}
		op.idx, op.existed = idx, existed
		op.seq = e.seq()
	}

	// Phase 3: the commit record. Its persisted, CRC-intact manifest is
	// the commit point: recovery replays the whole transaction from it.
	maxSeq := uint64(0)
	for _, op := range ops {
		if op.seq > maxSeq {
			maxSeq = op.seq
		}
	}
	re := s.engines[shards[0]]
	manifest := encodeTxnManifest(txnID, ops)
	rh := kv.Header{
		PrePtr:    kv.NilPtr,
		NextPtr:   kv.NilPtr,
		Seq:       maxSeq,
		CreatedAt: re.sink.Now(),
		CRC:       crc.Checksum(manifest),
		VLen:      len(manifest),
		Flags:     kv.FlagTxnRec,
		TxnID:     txnID,
	}
	_, rpool := re.writePool()
	recOff, ok := rpool.AppendObject(&rh, txnRecKey)
	if !ok {
		release()
		re.stats.AllocFailures++
		re.stats.TxnAborts++
		re.trace("txn", "record_pool_full", 0, txnID)
		return StatusFull
	}
	rpool.WriteValue(recOff, len(txnRecKey), manifest)
	rpool.FlushObject(recOff, len(txnRecKey), len(manifest))

	// Phase 4: flip every op visible. Any crash from here until the
	// applied mark below is repaired by replaying the record.
	for _, op := range ops {
		s.engines[op.shard].flipStagedLocked(op)
	}

	// Phase 5: mark the record applied — recovery ignores it from now on,
	// which is what makes a post-commit DELETE of an involved key stick.
	rpool.SetFlags(recOff, kv.FlagTxnRec|kv.FlagDurable)
	re.stats.TxnCommits++
	re.trace("txn", "committed", 0, txnID)
	return StatusOK
}

// flipStagedLocked publishes one staged op: sequence number, chain link,
// valid flag, table entry — the transactional twin of putLocked's publish
// tail. Callers hold the engine lock.
func (e *Engine) flipStagedLocked(op *StagedOp) {
	pool := e.pools[op.pi]
	en := e.table.Entry(op.idx)
	pre := e.chainHead(en)
	pool.SetVersionSeq(op.off, op.seq)
	pool.SetPrePtr(op.off, pre)
	pool.SetFlags(op.off, kv.FlagTxn|kv.FlagValid)
	e.table.SetLoc(op.idx, op.pi, kv.PackLoc(op.off, op.size))
	if en.Tombstone() {
		// Publish before untombstoning, like putLocked: the other order
		// has a crash window resurrecting the pre-delete version.
		e.table.Undelete(op.idx, op.seq)
	}
	if prePool, preOff, _, ok := kv.UnpackVPtr(pre); ok {
		e.pools[prePool].SetNextPtr(preOff, kv.PackVPtr(op.pi, op.off, op.size))
	}
}

// SeqVector pins a snapshot cut: every shard's current sequence number,
// each read under its engine lock. Callers hold the manager's commit
// lock, so no multi-key commit is between its record and its flips while
// the vector is taken — a snapshot sees every transaction entirely or
// not at all.
func (s *Store) SeqVector() []uint64 {
	vec := make([]uint64, len(s.engines))
	for i, e := range s.engines {
		e.mu.Lock()
		vec[i] = e.nextSeq
		e.mu.Unlock()
	}
	return vec
}

// GetAt is the snapshot read: resolve key like a normal GET but serve the
// newest version with Seq <= seqLimit, walking past newer ones without
// invalidating them. The returned value is a private copy read under the
// same lock hold that resolved it. Served versions go through the usual
// verify/mirror/flag path, so a snapshot read never weakens the
// observed⇒durable contract.
func (e *Engine) GetAt(h any, key []byte, seqLimit uint64) (val []byte, seq uint64, st Status) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stats.TxnReads++
	r := e.getLocked(h, key, -1, seqLimit)
	if r.Status != StatusOK {
		return nil, 0, r.Status
	}
	pool := e.pools[r.Pool]
	hd := pool.Header(r.Off)
	return pool.ReadValueInto(nil, r.Off, hd.KLen, hd.VLen), r.Seq, StatusOK
}

// --- commit-record manifest -------------------------------------------

// txnManifestVersion guards the manifest encoding.
const txnManifestVersion = 1

// Per-op manifest footprint: shard, pool, off, size, klen, vlen, crc, seq.
const txnManifestOpSize = 4 + 4 + 8 + 4 + 4 + 4 + 4 + 8

// TxnRecordCost returns the pool footprint of an n-op commit record, so
// the transaction manager can charge its cost before entering the
// yield-free commit section.
func TxnRecordCost(n int) int {
	return kv.ObjectSize(len(txnRecKey), 13+txnManifestOpSize*n)
}

// encodeTxnManifest serializes the committed ops' locators.
func encodeTxnManifest(txnID uint64, ops []*StagedOp) []byte {
	b := make([]byte, 13+txnManifestOpSize*len(ops))
	le := binary.LittleEndian
	b[0] = txnManifestVersion
	le.PutUint64(b[1:], txnID)
	le.PutUint32(b[9:], uint32(len(ops)))
	p := 13
	for _, op := range ops {
		le.PutUint32(b[p:], uint32(op.shard))
		le.PutUint32(b[p+4:], uint32(op.pi))
		le.PutUint64(b[p+8:], op.off)
		le.PutUint32(b[p+16:], uint32(op.size))
		le.PutUint32(b[p+20:], uint32(len(op.key)))
		le.PutUint32(b[p+24:], uint32(len(op.value)))
		le.PutUint32(b[p+28:], op.crc)
		le.PutUint64(b[p+32:], op.seq)
		p += txnManifestOpSize
	}
	return b
}

// txnRecOp is one decoded manifest locator.
type txnRecOp struct {
	shard, pi  int
	off        uint64
	size       int
	klen, vlen int
	crc        uint32
	seq        uint64
}

// txnRecord is a decoded, capture-complete commit record: the manifest
// plus each op's key/value bytes read from the persisted image before
// recovery rebuilds the pools.
type txnRecord struct {
	id        uint64
	ops       []txnRecOp
	keys      [][]byte
	vals      [][]byte
	createdAt []uint64
}

// decodeTxnManifest parses a manifest (already CRC-verified).
func decodeTxnManifest(b []byte) (txnRecord, error) {
	if len(b) < 13 || b[0] != txnManifestVersion {
		return txnRecord{}, fmt.Errorf("store: bad txn manifest header")
	}
	le := binary.LittleEndian
	rec := txnRecord{id: le.Uint64(b[1:])}
	count := int(le.Uint32(b[9:]))
	if count < 0 || len(b) != 13+txnManifestOpSize*count {
		return txnRecord{}, fmt.Errorf("store: txn manifest size mismatch")
	}
	p := 13
	for i := 0; i < count; i++ {
		rec.ops = append(rec.ops, txnRecOp{
			shard: int(le.Uint32(b[p:])),
			pi:    int(le.Uint32(b[p+4:])),
			off:   le.Uint64(b[p+8:]),
			size:  int(le.Uint32(b[p+16:])),
			klen:  int(le.Uint32(b[p+20:])),
			vlen:  int(le.Uint32(b[p+24:])),
			crc:   le.Uint32(b[p+28:]),
			seq:   le.Uint64(b[p+32:]),
		})
		p += txnManifestOpSize
	}
	return rec, nil
}

// --- recovery ----------------------------------------------------------

// captureTxnRecords scans every pool's persisted image for unapplied
// commit records and captures the staged bytes their manifests name,
// BEFORE per-engine recovery rebuilds the pools. Applied records (flagged
// durable) were fully flipped pre-crash and are ignored; records whose
// manifest or any staged op fails its CRC never committed and are
// discarded whole — all-in or all-out, never a subset.
func (s *Store) captureTxnRecords() (recs []txnRecord, discarded int) {
	for _, e := range s.engines {
		for pi := 0; pi < 2; pi++ {
			pool := e.pools[pi]
			pool.ScanPersisted(func(off uint64, h kv.Header) bool {
				if h.Flags&kv.FlagTxnRec == 0 || h.Durable() {
					return true
				}
				manifest := make([]byte, h.VLen)
				s.dev.ReadPersisted(pool.Base()+int(off)+kv.ValueOffset(h.KLen), manifest)
				if crc.Checksum(manifest) != h.CRC {
					discarded++ // torn record: the transaction never committed
					return true
				}
				rec, err := decodeTxnManifest(manifest)
				if err != nil || rec.id != h.TxnID {
					discarded++
					return true
				}
				if s.captureTxnOps(&rec) {
					recs = append(recs, rec)
				} else {
					discarded++
				}
				return true
			})
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].id < recs[j].id })
	return recs, discarded
}

// captureTxnOps reads every staged op's persisted key/value bytes for
// rec, verifying each against the manifest. Staged values are flushed
// before the record is written, so a mismatch means the record is not
// replayable; the whole transaction is discarded.
func (s *Store) captureTxnOps(rec *txnRecord) bool {
	for _, op := range rec.ops {
		if op.shard < 0 || op.shard >= len(s.engines) || op.pi < 0 || op.pi > 1 {
			return false
		}
		e := s.engines[op.shard]
		pool := e.pools[op.pi]
		if int(op.off)+op.size > pool.Cap() || op.klen <= 0 || op.vlen < 0 ||
			kv.ObjectSize(op.klen, op.vlen) != op.size {
			return false
		}
		h := persistedHeader(pool, op.off)
		if h.Magic != kv.Magic || h.TxnID != rec.id || h.KLen != op.klen || h.VLen != op.vlen {
			return false
		}
		key := make([]byte, op.klen)
		val := make([]byte, op.vlen)
		base := pool.Base() + int(op.off)
		s.dev.ReadPersisted(base+kv.KeyOffset(), key)
		s.dev.ReadPersisted(base+kv.ValueOffset(op.klen), val)
		if crc.Checksum(val) != op.crc {
			return false
		}
		rec.keys = append(rec.keys, key)
		rec.vals = append(rec.vals, val)
		rec.createdAt = append(rec.createdAt, h.CreatedAt)
	}
	return true
}

// replayTxns applies captured commit records over the freshly recovered
// engines, in transaction-id order. ImportKey's supersession rule makes
// the replay idempotent per op: a version that already flipped and
// survived normal recovery (its sequence number >= the manifest's) is
// left alone, everything else is re-materialized durable.
func (s *Store) replayTxns(recs []txnRecord) (applied int) {
	for _, rec := range recs {
		for i, op := range rec.ops {
			e := s.engines[op.shard]
			st := e.ImportKey(nil, ExportKey{
				Key: rec.keys[i],
				Versions: []ExportVersion{{
					Seq:       op.seq,
					CreatedAt: rec.createdAt[i],
					CRC:       op.crc,
					Flags:     kv.FlagValid | kv.FlagDurable | kv.FlagTxn,
					TxnID:     rec.id,
					Value:     rec.vals[i],
				}},
			})
			if st != StatusOK {
				panic("store: txn replay overflow")
			}
		}
		applied++
	}
	return applied
}
