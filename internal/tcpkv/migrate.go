// Online shard migration: moving one placement group from this instance
// to another while serving live traffic, with zero acknowledged-write
// loss. The protocol has four phases:
//
//  1. Snapshot. A dirty-key tracker is installed FIRST, then every live
//     object of the PG — full version chains, durability flags,
//     tombstones, cut sequences, bit-exact (store.ExportMatching) — is
//     streamed to the target in batched TReplAppend frames under the
//     source's map epoch (a target holding a strictly newer map refuses
//     them, and the copy aborts). Writes that race the snapshot land in
//     the tracker.
//  2. Drain. Keys dirtied since the previous pass are re-exported
//     (store.ExportOne after a settling Get, whose verify-on-demand
//     makes every acknowledged write durable before it travels).
//     Imports are idempotent and monotone, so re-copies overlap safely.
//     Rounds repeat until a pass finds the dirty set empty or the round
//     budget is spent.
//  3. Blocked cutover. The PG briefly refuses routed ops (StWrongEpoch
//     at the CURRENT epoch — clients with a fresh map back off and
//     retry rather than refetch), the source waits for every mutating op
//     admitted before the block to apply, and one final drain copies the
//     remainder. Every tcpkv PUT carries its value, written before the
//     entry publishes, so an applied op's bytes are already on the device.
//  4. Cutover. The epoch+1 map assigning the PG to the target is
//     installed on the TARGET first — from that instant at least one
//     instance acks ownership under the newest epoch — then locally
//     (lifting the block: rejects now carry the new epoch, steering
//     clients to refetch), then pushed best-effort to the other
//     instances. The moved entries are purged from the source table so
//     stale one-sided reads miss and fall back to the RPC path, where
//     the wrong-epoch redirect takes over.
//
// Phases 1 and 2 are the copy loop a replica attach (ReplicatePG) runs
// too; only the cutover differs.
package tcpkv

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"efactory/internal/cluster"
	"efactory/internal/kv"
	"efactory/internal/store"
	"efactory/internal/trace"
	"efactory/internal/wire"
)

// migBatchKeys and migBatchBytes bound one copy frame: flush at
// whichever limit is hit first (well under the 64MB frame cap).
const (
	migBatchKeys  = 256
	migBatchBytes = 4 << 20
)

// migDrainRounds bounds the pre-block drain passes; a write-heavy PG
// that never drains dry is cut over from inside the blocked window.
const migDrainRounds = 8

// MigrationSummary reports what a completed migration did; TMigrateResp
// carries it JSON-encoded in Value.
type MigrationSummary struct {
	PG           int    `json:"pg"`
	Target       string `json:"target"`
	Epoch        uint64 `json:"epoch"` // map epoch after cutover
	SnapshotKeys int    `json:"snapshot_keys"`
	DrainKeys    int    `json:"drain_keys"` // keys re-copied by open drain rounds
	DrainRounds  int    `json:"drain_rounds"`
	BlockedKeys  int    `json:"blocked_keys"` // keys copied inside the blocked window
	Purged       int    `json:"purged"`       // source entries cleared after cutover
	BlockedFor   string `json:"blocked_for"`  // wall time the PG refused ops
}

// errMigrationAborted reports a copy stopped at an injected crash point
// (Server.migCrash); the protocol state is whatever the crash point
// implies, exactly as if the source process had died there.
var errMigrationAborted = errors.New("tcpkv: migration aborted at crash point")

// migCheckpoint asks the crash hook (if any) whether the source "dies"
// at this protocol point.
func (s *Server) migCheckpoint(point string) error {
	if s.migCrash != nil && s.migCrash(point) {
		return fmt.Errorf("%w: %s", errMigrationAborted, point)
	}
	return nil
}

// handleMigrate serves TMigrate: move placement group Off to the
// instance named by Key. Synchronous — the response arrives after
// cutover (StOK + summary) or failure (StError + message in Value).
func (s *Server) handleMigrate(m wire.Msg) wire.Msg {
	sum, err := s.MigratePG(int(m.Off), string(m.Key))
	if err != nil {
		return wire.Msg{Type: wire.TMigrateResp, Status: wire.StError, Value: []byte(err.Error())}
	}
	blob, _ := json.Marshal(sum)
	return wire.Msg{Type: wire.TMigrateResp, Status: wire.StOK, Token: uint32(sum.Epoch), Value: blob}
}

// MigratePG runs the migration protocol above as the source. Exposed so
// tests and tooling can drive a migration without a wire round trip.
func (s *Server) MigratePG(pg int, target string) (sum MigrationSummary, err error) {
	s.migOne.Lock()
	defer s.migOne.Unlock()
	cp, err := s.beginCopy(pg, target, "")
	if err != nil {
		return sum, err
	}
	defer cp.end()
	sum = MigrationSummary{PG: pg, Target: target}

	// Every migration gets a trace unconditionally (Mint bypasses
	// sampling): one root span plus a child per protocol phase, retained
	// under why="migration" so /debug/slow shows where a slow or aborted
	// run spent its time.
	mt := trace.NewCtx(s.tracer.Mint())
	migT0 := traceNow(mt)
	mt.Root("migrate_pg", migT0, 0)
	mt.Mark("migration")
	defer func() {
		end := traceNow(mt)
		outcome := "ok"
		if err != nil {
			outcome = "error"
		}
		mt.SetRoot(end, outcome, 0)
		mt.Stamp(s.InstanceName(), sum.Epoch)
		s.tracer.Submit(mt, end-migT0)
	}()

	// Phases 1 and 2: snapshot and open drain rounds.
	err = cp.run(mt)
	sum.SnapshotKeys, sum.DrainKeys, sum.DrainRounds = cp.snapshotKeys, cp.drainKeys, cp.drainRounds
	if err != nil {
		return sum, err
	}

	// Phase 3: blocked cutover window.
	s.blockPG(pg)
	tBlocked := traceNow(mt)
	blockedAt := time.Now()
	unblock := func() { s.unblockPG(pg) }
	defer func() { unblock() }() // re-assignable: cutover replaces it

	// Barrier: wait out every mutating op that passed its ownership
	// check before the block — once the write side is acquired, all of
	// them have applied, values included, and landed in the dirty set,
	// and every later op sees the block. The final drain's settling Get
	// therefore sees every acknowledged write's final bytes.
	s.opGate.Lock()
	s.opGate.Unlock() //nolint:staticcheck // empty critical section IS the barrier

	if err = s.migCheckpoint("blocked"); err != nil {
		return sum, err
	}
	if sum.BlockedKeys, err = cp.drain(cp.tracker.take()); err != nil {
		err = fmt.Errorf("tcpkv: blocked drain: %w", err)
		return sum, err
	}
	if err = s.migCheckpoint("pre-cutover"); err != nil {
		return sum, err
	}
	mt.Add("mig_blocked", tBlocked, traceNow(mt))

	// Phase 4: cutover. Target first — unless the target now holds the
	// new map (it refuses one that is not newer than its own, or that
	// differs from the map it holds at that epoch), the migration aborts
	// with ownership unchanged (the copied data is harmless: the target
	// never serves a PG its map does not assign it).
	nm := cp.m.WithAssign(pg, target)
	tCut := traceNow(mt)
	if err = s.offerMap(target, cp.addr, nm); err != nil {
		err = fmt.Errorf("tcpkv: installing map on target: %w", err)
		return sum, err
	}
	// From here the cutover is committed: the newest-epoch map lives on
	// the target, so even if this process dies before purging or
	// installing locally, the cluster's authority for the PG is the
	// target (which holds every drained key).
	if err = s.migCheckpoint("cutover-committed"); err != nil {
		return sum, err
	}
	mt.Add("mig_cutover", tCut, traceNow(mt))
	// Purge while the PG is still blocked locally: once stale one-sided
	// reads can only miss here, it is safe to start redirecting clients
	// to the target. (Purging after unblocking would leave a window
	// where a stale read at the source returns a value the target has
	// since overwritten.)
	tPurge := traceNow(mt)
	for i := 0; i < s.st.NumShards(); i++ {
		sum.Purged += s.st.Shard(i).PurgeMatching(cp.accept)
	}
	mt.Add("mig_purge", tPurge, traceNow(mt))
	if err = s.migCheckpoint("purged"); err != nil {
		return sum, err
	}
	s.SetClusterMap(nm)
	sum.Epoch = nm.Epoch
	unblock()
	sum.BlockedFor = time.Since(blockedAt).String()
	unblock = func() {} // the deferred call becomes a no-op

	s.pushMapToPeers(nm, target)
	s.migDone.Add(1)
	return sum, nil
}

// pgCopy is one run of the copy loop a migration and a replica attach
// share: stream one placement group's live records to a target instance
// under the map the copy started from, whose epoch rides every frame.
type pgCopy struct {
	s       *Server
	m       *cluster.Map
	target  string
	addr    string
	prefix  string // crash-point name prefix: "" migration, "repl-" attach
	accept  func(hash uint64) bool
	tracker *migTracker

	snapshotKeys, drainKeys, drainRounds int
}

// beginCopy is the precondition check both copies share — clustering on,
// pg owned here, target another instance the map knows and answering —
// followed by the dirty-key tracker's install, BEFORE any walk, so a
// write racing the snapshot is either in it or in the dirty set (or
// both: imports are idempotent). The caller holds migOne and calls end.
func (s *Server) beginCopy(pg int, target, prefix string) (*pgCopy, error) {
	s.clMu.RLock()
	m, self := s.clMap, s.clName
	s.clMu.RUnlock()
	if m == nil {
		return nil, errors.New("tcpkv: clustering not enabled")
	}
	if pg < 0 || pg >= m.PGs {
		return nil, fmt.Errorf("tcpkv: no placement group %d (map has %d)", pg, m.PGs)
	}
	if m.Assign[pg] != self {
		return nil, fmt.Errorf("tcpkv: pg %d is owned by %q, not this instance", pg, m.Assign[pg])
	}
	if target == self {
		return nil, errors.New("tcpkv: target is this instance")
	}
	addr, ok := m.AddrOf(target)
	if !ok {
		return nil, fmt.Errorf("tcpkv: unknown target instance %q", target)
	}
	if _, _, err := s.peers.conn(target, addr); err != nil {
		return nil, fmt.Errorf("tcpkv: dial target: %w", err)
	}
	accept := func(hash uint64) bool { return cluster.PGOf(hash, m.PGs) == pg }
	cp := &pgCopy{s: s, m: m, target: target, addr: addr, prefix: prefix, accept: accept,
		tracker: &migTracker{accept: accept, dirty: make(map[string]struct{})}}
	s.mig.Store(cp.tracker)
	return cp, nil
}

// end uninstalls the copy's dirty-key tracker.
func (cp *pgCopy) end() { cp.s.mig.Store(nil) }

// run is the copy's open phase: the snapshot, then drain rounds until
// one finds the dirty set empty or migDrainRounds is spent. mt (nil for
// an attach) gets a span per phase.
func (cp *pgCopy) run(mt *trace.Ctx) error {
	if err := cp.s.migCheckpoint(cp.prefix + "pre-snapshot"); err != nil {
		return err
	}
	t := traceNow(mt)
	var err error
	if cp.snapshotKeys, err = cp.exportSnapshot(); err != nil {
		return fmt.Errorf("tcpkv: snapshot: %w", err)
	}
	mt.Add("mig_snapshot", t, traceNow(mt))
	for round := 0; round < migDrainRounds; round++ {
		if err := cp.s.migCheckpoint(cp.prefix + "drain"); err != nil {
			return err
		}
		dirty := cp.tracker.take()
		if len(dirty) == 0 {
			break
		}
		cp.drainRounds++
		t := traceNow(mt)
		n, err := cp.drain(dirty)
		cp.drainKeys += n
		if err != nil {
			return fmt.Errorf("tcpkv: drain round %d: %w", round, err)
		}
		mt.Add("mig_drain", t, traceNow(mt))
	}
	return nil
}

// exportSnapshot streams every live key of the PG to the target. Keys are
// collected per shard under the engine lock and shipped after it is
// released, so the snapshot walk never holds a shard's lock across a
// network round trip.
func (cp *pgCopy) exportSnapshot() (int, error) {
	total := 0
	for i := 0; i < cp.s.st.NumShards(); i++ {
		var keys []store.ExportKey
		cp.s.st.Shard(i).ExportMatching(cp.accept, func(ek store.ExportKey) bool {
			keys = append(keys, ek)
			cp.s.renoteIfPending(ek)
			return true
		})
		n, err := cp.send(keys)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// renoteIfPending puts a key back in the dirty set when its exported
// head version is not yet durable: the verifier has not flagged it, so
// the copy that just traveled lacks its durability flag, and when the
// flag is set nothing else re-marks the key (a write that predates the
// tracker never entered it at all). Re-noting guarantees a later round —
// at latest the final blocked drain, whose settling Get verifies the
// version on demand — re-exports the settled state, which the importer's
// equal-seq durability upgrade then accepts. A version no value will
// ever fill (an allocation-only grant) travels unflagged, and the
// target's verifier invalidates it once its window has passed.
func (s *Server) renoteIfPending(ek store.ExportKey) {
	if n := len(ek.Versions); n > 0 && ek.Versions[n-1].Flags&kv.FlagDurable == 0 {
		s.noteDirty(ek.Key)
	}
}

// drain settles and re-exports one round's dirty keys. The settling Get
// runs verify-on-demand: an acknowledged write's value is verified and
// persisted before export, so what travels is durable.
func (cp *pgCopy) drain(dirty map[string]struct{}) (int, error) {
	var keys []store.ExportKey
	for k := range dirty {
		key := []byte(k)
		eng := cp.s.st.Shard(cp.s.st.ShardFor(key))
		eng.Get(nil, key) // settle: verify+persist or invalidate
		if ek, ok := eng.ExportOne(key); ok {
			keys = append(keys, ek)
			cp.s.renoteIfPending(ek)
		}
	}
	return cp.send(keys)
}

// send ships exported keys to the target in bounded record frames.
func (cp *pgCopy) send(keys []store.ExportKey) (int, error) {
	sent := 0
	for len(keys) > 0 {
		n, bytes := 0, 0
		for n < len(keys) && n < migBatchKeys && bytes < migBatchBytes {
			for _, v := range keys[n].Versions {
				bytes += len(v.Value)
			}
			bytes += len(keys[n].Key)
			n++
		}
		if err := cp.s.ship(cp.target, cp.addr, keys[:n], cp.m.Epoch); err != nil {
			return sent, err
		}
		sent += n
		cp.s.migKeysMoved.Add(uint64(n))
		keys = keys[n:]
	}
	return sent, nil
}
