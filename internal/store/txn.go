// Multi-key transactions over the version chains: atomic commit,
// snapshot reads, and crash recovery replay.
//
// A commit takes a fresh transaction id and writes in three phases:
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
//     order, under the store's commit lock) the ops are assigned final
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
//     published through the engine's one publish. When every op
//     has flipped, the record is marked applied (FlagDurable on the
//     record) so recovery ignores it; the engine locks are held from
//     record write to applied mark, so no foreign write can interleave
//     with a replayable window.
//
// The whole record+flip section performs no sink charges: under the
// simulation's cooperative scheduler it is yield-free, so it is atomic by
// construction, exactly like the no-yield window inside putLocked.
//
// The commit lock (Deps.NewLock) serializes commit records and snapshot
// cuts: a cut taken under it can never land between one transaction's
// record and its flips, so snapshots observe every transaction entirely
// or not at all.
//
// Durability follows the single-key rule: flipped versions are valid but
// not durable; the post-commit settle pass (and the background verifier)
// pushes each one through the mirror seam — CRC check, Deps.Mirror,
// flush, flag — so flag⇒quorum-durable extends to whole transactions.
//
// Commits are single-node-atomic: all keys must land on one store. The
// cluster client enforces this with a typed cross-instance rejection.
package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"efactory/internal/crc"
	"efactory/internal/kv"
)

// noSeqLimit makes getLocked consider every version (the non-snapshot
// read path).
const noSeqLimit = ^uint64(0)

// txnRecKey is the marker key commit records are filed under. Records are
// never table-published, so the key only needs to parse (KLen > 0).
var txnRecKey = []byte("\x00txnrec\x00")

// stagedOp is one staged write of an in-flight transaction.
type stagedOp struct {
	shard int
	pi    int      // pool index at stage time
	pool  *kv.Pool // pool identity at stage time (revalidated at commit)
	off   uint64
	size  int
	key   []byte // retained so commit can restage after a pool recycle
	value []byte
	crc   uint32
	// assigned by txnCommit:
	seq   uint64
	claim claim
}

// Commit atomically writes vals[i] to keys[i] for all i, or none of
// them. It returns the transaction id and the status: StatusOK means
// every op committed and is visible; anything else means no op is
// (staged garbage is left for the cleaner). Duplicate keys are allowed
// and apply in op order. An empty commit is a no-op that returns
// (0, StatusOK); keys and vals of different lengths panic.
//
// A returned StatusOK is an acknowledgment that the whole transaction
// survives any crash from this point on: the commit record and every
// staged value are persisted before the record write, and recovery
// replays recorded transactions whole. The per-version durability flags
// then settle asynchronously (or synchronously below, best-effort)
// through the usual verify/mirror path.
func (s *Store) Commit(h any, keys, vals [][]byte) (uint64, Status) {
	if len(keys) != len(vals) {
		panic("store: Commit keys/vals length mismatch")
	}
	if len(keys) == 0 {
		return 0, StatusOK
	}
	id := s.txnID.Add(1)
	ops := make([]*stagedOp, len(keys))
	for i := range keys {
		op, st := s.txnStage(h, id, keys[i], vals[i])
		if st != StatusOK {
			return 0, st
		}
		ops[i] = op
	}

	// Charge the commit record's cost before taking the commit lock: the
	// locked section below must not yield (simulation) or do slow work
	// under the global lock (TCP).
	sink := s.engines[0].sink
	sink.Charge(h, OpAlloc, txnRecordCost(len(ops)))
	sink.Charge(h, OpFlush, txnRecordCost(len(ops)))

	s.txnMu.Lock()
	st := s.txnCommit(id, ops)
	s.txnMu.Unlock()
	if st != StatusOK {
		return 0, st
	}

	// Best-effort synchronous settle: push each committed head through
	// the verify/mirror/flag path so flag⇒quorum-durable extends to the
	// whole transaction promptly. Failure is benign — the background
	// verifier and the GET path retry.
	for _, key := range keys {
		s.engines[s.ShardFor(key)].VerifyKeySettled(h, key)
	}
	return id, StatusOK
}

// SnapshotResult is one key's outcome of a SnapshotGet.
type SnapshotResult struct {
	Status Status
	Seq    uint64 // served version's sequence number (0 if not found)
	Value  []byte
}

// SnapshotGet reads keys at one consistent cut: a per-shard sequence
// vector pinned under the commit lock. Every key is served from the
// newest version at or below its shard's pinned sequence, so the result
// set reflects a prefix of each shard's history that contains every
// committed transaction entirely or not at all. Results are
// index-aligned with keys.
//
// Two documented limits, both inherent to the substrate: DELETEs are not
// versioned (a tombstone hides every version regardless of the cut), and
// a snapshot does not pin versions against the log cleaner — the cut is
// meant to be used promptly (one RPC), not held open.
func (s *Store) SnapshotGet(h any, keys [][]byte) []SnapshotResult {
	s.txnMu.Lock()
	vec := s.seqVector()
	s.txnMu.Unlock()
	res := make([]SnapshotResult, len(keys))
	for i, key := range keys {
		sh := s.ShardFor(key)
		val, seq, st := s.engines[sh].getAt(h, key, vec[sh])
		res[i] = SnapshotResult{Status: st, Seq: seq, Value: val}
	}
	return res
}

// txnStage appends one transactional write to key's shard, fully
// persisted but invisible (FlagTxn, no FlagValid, sequence 0). The
// returned op is the handle txnCommit flips; a failed stage leaves only
// unreferenced garbage behind.
func (s *Store) txnStage(h any, txnID uint64, key, value []byte) (*stagedOp, Status) {
	e := s.engines[s.ShardFor(key)]
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stats.TxnStages++
	size := kv.ObjectSize(len(key), len(value))
	e.maybeCleanLocked(size)
	alloc := e.begin(h, OpAlloc)
	e.sink.Charge(h, OpAlloc, size)
	// The charge may have yielded (simulation) and started a cleaning run;
	// re-resolve the working pool so the append lands where commit expects.
	pi := e.writePool()
	op := &stagedOp{
		shard: e.shard,
		key:   append([]byte(nil), key...),
		value: append([]byte(nil), value...),
		crc:   crc.Checksum(value),
		size:  size,
	}
	if !e.stageLocked(op, txnID, pi, false) {
		e.trace("txn", "stage_pool_full", kv.HashKey(key), 0)
		return nil, StatusFull
	}
	e.end(h, alloc)
	flush := e.begin(h, OpFlush)
	e.sink.Charge(h, OpFlush, size)
	e.pools[pi].FlushObject(op.off, len(key), len(value))
	e.end(h, flush)
	return op, StatusOK
}

// stageLocked appends op to pool pi as a staged object (FlagTxn, no
// sequence number, no chain), flushed whole when flush is set, and records
// where it landed. Callers hold mu.
func (e *Engine) stageLocked(op *stagedOp, txnID uint64, pi int, flush bool) bool {
	hd := kv.Header{
		PrePtr:    kv.NilPtr,
		CreatedAt: e.sink.Now(),
		CRC:       op.crc,
		VLen:      len(op.value),
		Flags:     kv.FlagTxn,
		TxnID:     txnID,
	}
	off, ok := e.appendLocked(pi, &hd, op.key, op.value, flush)
	if ok {
		op.pi, op.pool, op.off = pi, e.pools[pi], off
	}
	return ok
}

// txnCommit atomically commits the staged ops of one transaction: it
// locks every involved engine (ascending shard order), revalidates each
// staged object (restaging any the cleaner recycled), reserves table
// slots, assigns sequence numbers, writes the commit record, flips every
// op visible, and marks the record applied. Callers MUST hold the commit
// lock; the section between the first engine lock and the return
// performs no sink charges, so it is yield-free under the simulation and
// lock-covered over TCP.
func (s *Store) txnCommit(txnID uint64, ops []*stagedOp) Status {
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
		wi := e.writePool()
		fresh := e.pools[op.pi] == op.pool && op.pool == e.pools[wi]
		if fresh {
			hd := op.pool.Header(op.off)
			fresh = hd.Magic == kv.Magic && hd.TxnID == txnID && hd.Staged()
		}
		if !fresh && !e.stageLocked(op, txnID, wi, true) {
			e.stats.TxnAborts++
			return StatusFull
		}
	}

	// Phase 2: reserve table slots and assign commit sequence numbers.
	// Fresh slots claimed here are released if the record cannot be
	// written.
	release := func(ops []*stagedOp) {
		for _, op := range ops {
			s.engines[op.shard].releaseFresh(op.claim)
		}
	}
	for i, op := range ops {
		e := s.engines[op.shard]
		c, ok := e.claimSlot(kv.HashKey(op.key))
		if !ok {
			release(ops[:i])
			e.stats.TxnAborts++
			e.trace("txn", "table_full", kv.HashKey(op.key), 0)
			return StatusFull
		}
		e.markFresh(c, op.pi)
		op.claim = c
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
		Seq:       maxSeq,
		CreatedAt: re.sink.Now(),
		CRC:       crc.Checksum(manifest),
		VLen:      len(manifest),
		Flags:     kv.FlagTxnRec,
		TxnID:     txnID,
	}
	rpi := re.writePool()
	recOff, ok := re.appendLocked(rpi, &rh, txnRecKey, manifest, true)
	if !ok {
		release(ops)
		re.stats.TxnAborts++
		re.trace("txn", "record_pool_full", 0, txnID)
		return StatusFull
	}

	// Phase 4: flip every op visible — sequence number, chain link, valid
	// flag, then the publish. Any crash from here until the applied mark
	// below is repaired by replaying the record.
	for _, op := range ops {
		e := s.engines[op.shard]
		pool := e.pools[op.pi]
		en := e.table.Entry(op.claim.idx)
		pre := e.chainHead(en)
		pool.SetVersionSeq(op.off, op.seq)
		pool.SetPrePtr(op.off, pre)
		pool.SetFlags(op.off, kv.FlagTxn|kv.FlagValid)
		e.publishLocked(op.claim.idx, en.Tombstone(), op.seq, kv.PackVPtr(op.pi, op.off, op.size))
	}

	// Phase 5: mark the record applied — recovery ignores it from now on,
	// which is what makes a post-commit DELETE of an involved key stick.
	re.pools[rpi].SetFlags(recOff, kv.FlagTxnRec|kv.FlagDurable)
	re.stats.TxnCommits++
	re.trace("txn", "committed", 0, txnID)
	return StatusOK
}

// seqVector pins a snapshot cut: every shard's current sequence number,
// each read under its engine lock. Callers hold the commit lock, so no
// multi-key commit is between its record and its flips while the vector
// is taken — a snapshot sees every transaction entirely or not at all.
func (s *Store) seqVector() []uint64 {
	vec := make([]uint64, len(s.engines))
	for i, e := range s.engines {
		e.mu.Lock()
		vec[i] = e.nextSeq
		e.mu.Unlock()
	}
	return vec
}

// getAt is the snapshot read: resolve key like a normal GET but serve the
// newest version with Seq <= seqLimit, walking past newer ones without
// invalidating them. The returned value is a private copy read under the
// same lock hold that resolved it. Served versions go through the usual
// verify/mirror/flag path, so a snapshot read never weakens the
// observed⇒durable contract.
func (e *Engine) getAt(h any, key []byte, seqLimit uint64) (val []byte, seq uint64, st Status) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stats.TxnReads++
	r := e.getLocked(h, key, -1, seqLimit)
	if r.Status != StatusOK {
		return nil, 0, r.Status
	}
	e.valueLocked(&r, nil, math.MaxInt)
	return r.Value, r.Seq, StatusOK
}

// --- commit-record manifest -------------------------------------------

// txnManifestVersion guards the manifest encoding.
const txnManifestVersion = 1

// Per-op manifest footprint: shard, pool, off, size, klen, vlen, crc, seq.
const txnManifestOpSize = 4 + 4 + 8 + 4 + 4 + 4 + 4 + 8

// txnRecordCost returns the pool footprint of an n-op commit record, so
// Commit can charge its cost before entering the yield-free commit
// section.
func txnRecordCost(n int) int {
	return kv.ObjectSize(len(txnRecKey), 13+txnManifestOpSize*n)
}

// encodeTxnManifest serializes the committed ops' locators.
func encodeTxnManifest(txnID uint64, ops []*stagedOp) []byte {
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

// txnRecord is a decoded commit record: the manifest, each op's key read
// from the persisted image, and where the record itself lies. A torn one
// is discarded whole.
type txnRecord struct {
	id   uint64
	ops  []txnRecOp
	keys [][]byte
	pool *kv.Pool
	off  uint64
	torn bool
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
// commit records and reads the keys of the staged ops their manifests
// name. Applied records (flagged durable) were fully flipped, or settled by
// an earlier recovery, and are skipped; a record whose manifest or any
// staged op fails its CRC never committed and comes back torn. Records are
// ordered by transaction id.
func (s *Store) captureTxnRecords() (recs []txnRecord) {
	for _, e := range s.engines {
		for _, pool := range e.pools {
			pool.ScanPersisted(func(off uint64, h kv.Header) bool {
				if h.Flags&kv.FlagTxnRec == 0 || h.Durable() {
					return true
				}
				_, manifest := pool.PersistedKV(off, h)
				rec, err := decodeTxnManifest(manifest)
				if crc.Checksum(manifest) != h.CRC || err != nil || rec.id != h.TxnID || !s.captureTxnOps(&rec) {
					rec = txnRecord{id: h.TxnID, torn: true}
				}
				rec.pool, rec.off = pool, off
				recs = append(recs, rec)
				return true
			})
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].id < recs[j].id })
	return recs
}

// captureTxnOps checks every staged op rec names against its manifest
// locator in the persisted image and reads its key. Staged values are
// flushed before the record is written, so a mismatch means the record is
// not replayable; the whole transaction is discarded.
func (s *Store) captureTxnOps(rec *txnRecord) bool {
	for _, op := range rec.ops {
		if op.shard < 0 || op.shard >= len(s.engines) || op.pi < 0 || op.pi > 1 {
			return false
		}
		pool := s.engines[op.shard].pools[op.pi]
		if int(op.off)+op.size > pool.Cap() || op.klen <= 0 || op.vlen < 0 ||
			kv.ObjectSize(op.klen, op.vlen) != op.size {
			return false
		}
		h := pool.PersistedHeader(op.off)
		if h.Magic != kv.Magic || h.TxnID != rec.id || h.KLen != op.klen || h.VLen != op.vlen {
			return false
		}
		key, val := pool.PersistedKV(op.off, h)
		if crc.Checksum(val) != op.crc {
			return false
		}
		rec.keys = append(rec.keys, key)
	}
	return true
}

// replayTxns settles every unapplied commit record before the engines
// repair their shards: an intact record's ops are flipped in place, in
// transaction-id order, as the commit's phase 4 would have flipped them,
// and a torn one is discarded whole — all-in or all-out, never a subset.
// Each record is then marked applied (FlagDurable), so no later recovery
// looks at it again. An op whose key already resolves to a version at
// least as new flipped before the crash and is left alone, so a crash
// before the mark replays the record again to the same state. The replay
// appends nothing; it fails only when the table has no slot for a key.
func (s *Store) replayTxns(rst *RecoveryStats) error {
	for _, rec := range s.captureTxnRecords() {
		for i, op := range rec.ops {
			e := s.engines[op.shard]
			c, ok := e.claimSlot(kv.HashKey(rec.keys[i]))
			if !ok {
				return fmt.Errorf("%w: shard %d has no table slot for transaction %d", ErrRecoveryFull, op.shard, rec.id)
			}
			en := e.table.Entry(c.idx)
			if ph, ok := kv.ResolvePersisted(e.pools, en); ok && !en.Tombstone() && ph.Header.Seq >= op.seq {
				continue
			}
			pool := e.pools[op.pi]
			pool.SetVersionSeq(op.off, op.seq)
			pool.SetFlags(op.off, kv.FlagTxn|kv.FlagValid)
			e.markFresh(c, op.pi)
			e.publishLocked(c.idx, en.Tombstone(), op.seq, kv.PackVPtr(op.pi, op.off, op.size))
		}
		if rec.torn {
			rst.TxnsDiscarded++
		} else {
			rst.TxnsReplayed++
		}
		rec.pool.SetFlags(rec.off, kv.FlagTxnRec|kv.FlagDurable)
	}
	return nil
}
