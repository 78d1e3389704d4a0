// Synchronous log mirroring and failover. When a placement group carries
// backups (cluster.Map.Backups), the primary generalizes the engine's
// flag⇒durable contract to flag⇒quorum-durable: every record that is
// about to receive a durability flag — a CRC-verified PUT version on the
// background/verify-on-demand path, or a DELETE tombstone on the ack
// path — is first streamed to the PG's backups over TReplAppend, and the
// flag (or the DELETE's StOK) is withheld until the record is durable on
// a quorum of the replica set.
//
// Failure handling is asymmetric, mirroring who holds authority:
//
//   - A backup that stops acking is DEMOTED: the primary installs an
//     epoch+1 map without it (cluster.Map.WithoutBackup), pushes it
//     best-effort, and keeps acking writes against the shrunk set.
//     Survivors all hold every flagged record, so a later promotion from
//     the shrunk set loses nothing. (If the primary also dies before the
//     demotion map propagates, a peer could still promote the demoted
//     backup — that is a double failure, outside the single-node-death
//     contract.)
//   - A primary that dies is replaced by promotion (PromoteFrom /
//     TPromote): a backup pulls the records its co-backups hold
//     (TReplPull — a write is only required on a quorum, not on every
//     backup), settles its mirrored tail (every pending version commits
//     or ages into invalidation, the same reconciliation a crash
//     restart applies), and installs an epoch+1 map owning the dead
//     primary's PGs. The epoch bump IS the failover protocol from the
//     clients' view: their next misrouted op draws StWrongEpoch and the
//     refetch converges on the promoted instance with zero client code.
//   - A DEPOSED primary (still alive, answered StWrongEpoch by a backup
//     holding a newer map) adopts that map and withholds the flag: no
//     new durable observations can be minted under a stale claim of
//     ownership, and SetClusterMap purges the PGs it lost so stale
//     one-sided readers miss and fall back to the routed path.
//
// Record ordering per backup is total: each backup has one sender mutex,
// one append in flight, and the synchronous ack means the backup applied
// the record before the next send starts. A record built before a
// concurrent DELETE (or newer PUT) could still be the last one sent, so
// every send is followed — under the same sender mutex — by a re-read of
// the key's authoritative state and a compensating append when it
// changed: the last record in any backup's order always reflects engine
// state current as of that send, so an acked DELETE can never be
// resurrected by a stale mirror and an acked PUT never erased by a stale
// tombstone.
package tcpkv

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"efactory/internal/cluster"
	"efactory/internal/kv"
	"efactory/internal/store"
	"efactory/internal/trace"
	"efactory/internal/wire"
)

// replPeer is one backup's ordered append channel: a persistent client
// connection plus the mutex that serializes sends (and the post-send
// compensation re-check) to it. The struct — and so the mutex — outlives
// connection resets, so ordering survives redials. The connection is an
// atomic pointer so Server.Close can sever an in-flight append without
// queueing behind the sender mutex.
type replPeer struct {
	mu sync.Mutex
	c  atomic.Pointer[Client]
}

// replOutcome classifies one backup's response to an append.
type replOutcome int

const (
	replAcked   replOutcome = iota // record durable on the backup
	replFailed                     // transport failure: demote the backup
	replDeposed                    // backup holds a newer map: stop flagging
)

// replMirror is the engine's Deps.Mirror hook: called (without the
// engine lock) for every version about to be flagged durable. The
// pre-mirror / post-mirror returns model the primary dying just before
// or just after the record traveled but before the flag persisted —
// torture harnesses only.
func (s *Server) replMirror(h any, rec store.ExportKey) bool {
	if s.replCrash != nil && s.replCrash("pre-mirror") {
		return false
	}
	ok := s.replicate(h, rec)
	if ok && s.replCrash != nil && s.replCrash("post-mirror") {
		return false
	}
	return ok
}

// mirrorDelete ships an acknowledged DELETE's tombstone to the PG's
// backups before the StOK travels. Returns false when the tombstone is
// not quorum-durable: the caller answers StError, leaving the op
// pending — the client retries, and the at-least-once retry mapping
// treats a not-found on a later attempt as success.
func (s *Server) mirrorDelete(h any, eng *store.Engine, key []byte) bool {
	if !s.replicatedPG(key) {
		return true
	}
	if s.replCrash != nil && s.replCrash("del-pre-mirror") {
		return false
	}
	ek, ok := eng.ExportOne(key)
	if !ok {
		// Entry already reclaimed: synthesize the tombstone that was
		// just observed to exist.
		ek = store.ExportKey{Key: append([]byte(nil), key...), Tombstone: true}
	}
	done := s.replicate(h, ek)
	if done && s.replCrash != nil && s.replCrash("del-post-mirror") {
		return false
	}
	return done
}

// replicatedPG reports whether key's placement group currently carries
// backups this instance must mirror to (one map read, no allocation —
// the fast path of every unreplicated DELETE).
func (s *Server) replicatedPG(key []byte) bool {
	s.clMu.RLock()
	m, name := s.clMap, s.clName
	s.clMu.RUnlock()
	if m == nil {
		return false
	}
	pg := cluster.PGOf(kv.HashKey(key), m.PGs)
	return pg < len(m.Assign) && m.Assign[pg] == name && len(m.BackupsFor(pg)) > 0
}

// replicate makes rec durable on a quorum of its PG's replica set. It
// reports whether the caller may persist a durability flag (or ack a
// DELETE): true when the record is quorum-durable — counting this
// instance, and counting demotions, which shrink the set rather than
// fail the quorum (a failure that cannot demote leaves the backup in
// the set, counted against the quorum) — false when a backup proved
// this instance is no longer the PG's primary under the newest epoch.
func (s *Server) replicate(h any, rec store.ExportKey) bool {
	s.clMu.RLock()
	m, name := s.clMap, s.clName
	s.clMu.RUnlock()
	if m == nil || len(rec.Key) == 0 {
		return true
	}
	pg := cluster.PGOf(kv.HashKey(rec.Key), m.PGs)
	if pg >= len(m.Assign) || m.Assign[pg] != name {
		// Not this instance's PG (deposed, or mid-migration): the flag
		// only vouches for local bytes routed clients can no longer
		// observe, so setting it is harmless and unblocks the verifier.
		return true
	}
	backups := m.BackupsFor(pg)
	if len(backups) == 0 {
		return true
	}
	s.replPending.Add(1)
	defer s.replPending.Add(-1)
	_, tc := trace.Unwrap(h)
	t0 := uint64(time.Now().UnixNano())
	eng := s.st.Shard(s.st.ShardFor(rec.Key))
	acks, live := 1, 1
	for _, b := range backups {
		switch s.appendTo(eng, m, b, rec) {
		case replAcked:
			acks++
			live++
		case replDeposed:
			if tc != nil {
				tc.Add("repl_append", t0, uint64(time.Now().UnixNano()))
				tc.Mark("repl_deposed")
			}
			return false
		case replFailed:
			if !s.demoteBackup(pg, b) {
				// The set could not be shrunk (this instance was deposed
				// mid-replicate, or clustering vanished): the backup stays
				// a live replica the record did not reach, so it counts
				// against the quorum instead of out of it.
				live++
			}
		}
	}
	if tc != nil {
		tc.Add("repl_append", t0, uint64(time.Now().UnixNano()))
	}
	return acks >= live/2+1
}

// appendTo ships rec to the named backup and, under the same sender
// mutex, re-reads the key and ships a compensating record if a
// concurrent mutation changed it (see the package comment on ordering).
func (s *Server) appendTo(eng *store.Engine, m *cluster.Map, name string, rec store.ExportKey) replOutcome {
	addr, ok := m.AddrOf(name)
	if !ok {
		return replFailed
	}
	s.replMu.Lock()
	if s.replPeers == nil {
		s.replPeers = make(map[string]*replPeer)
	}
	p := s.replPeers[name]
	if p == nil {
		p = &replPeer{}
		s.replPeers[name] = p
	}
	s.replMu.Unlock()

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.c.Load() == nil {
		c, err := Dial(addr)
		if err != nil {
			s.replFailures.Add(1)
			return replFailed
		}
		c.SetRetryPolicy(replRetryPolicy())
		p.c.Store(c)
	}
	out := s.sendAppend(p, []store.ExportKey{rec}, m.Epoch)
	if out != replAcked {
		return out
	}
	cur, found := eng.ExportOne(rec.Key)
	if !found {
		cur = store.ExportKey{Key: rec.Key, Tombstone: true}
	}
	if replStateChanged(&rec, &cur) {
		if out := s.sendAppend(p, []store.ExportKey{cur}, m.Epoch); out != replAcked {
			return out
		}
	}
	return replAcked
}

// sendAppend performs one TReplAppend round trip on an established peer
// and classifies the outcome, adopting the backup's newer map on a
// wrong-epoch depose.
func (s *Server) sendAppend(p *replPeer, batch []store.ExportKey, epoch uint64) replOutcome {
	c := p.c.Load()
	if c == nil {
		return replFailed // Server.Close severed the connection
	}
	err := c.ReplAppend(batch, epoch)
	if err == nil {
		s.replAppends.Add(1)
		return replAcked
	}
	var we *cluster.WrongEpochError
	if errors.As(err, &we) {
		if nm, merr := c.ClusterMapRPC(); merr == nil {
			s.SetClusterMap(nm)
		}
		return replDeposed
	}
	s.replFailures.Add(1)
	c.Close()
	p.c.CompareAndSwap(c, nil)
	return replFailed
}

// replStateChanged reports whether the key's authoritative state moved
// since sent was built: a tombstone appeared or cleared, the cut
// sequence advanced, or a different newest version landed.
func replStateChanged(sent, cur *store.ExportKey) bool {
	return cur.Tombstone != sent.Tombstone ||
		cur.CutSeq != sent.CutSeq ||
		cur.NewestSeq() != sent.NewestSeq()
}

// replRetryPolicy is the transport policy for primary→backup append
// connections: one quick retry, tightly bounded attempts — a backup that
// cannot answer inside it is demoted rather than waited on.
func replRetryPolicy() RetryPolicy {
	return RetryPolicy{Attempts: 2, Backoff: 2 * time.Millisecond,
		MaxBackoff: 20 * time.Millisecond, Timeout: 2 * time.Second}
}

// demoteBackup removes a dead backup from pg's replica set: epoch+1 map
// without it, installed locally BEFORE the caller acks anything against
// the shrunk set, then pushed best-effort (a peer that misses the push
// learns the epoch from wrong-epoch redirects). Serialized so two
// verifier goroutines demoting concurrently cannot revive each other's
// removal with a stale base map.
//
// It reports whether the backup is out of pg's replica set under a map
// this instance still owns (removed here, or already removed by another
// sender). False means the set could not be shrunk — this instance was
// deposed mid-replicate, and a non-owner must not strip a healthy backup
// from the real owner's set — so the failed backup still counts against
// the caller's quorum.
func (s *Server) demoteBackup(pg int, name string) bool {
	s.replDemoteMu.Lock()
	defer s.replDemoteMu.Unlock()
	s.clMu.RLock()
	m, self := s.clMap, s.clName
	s.clMu.RUnlock()
	if m == nil || pg >= len(m.Assign) || m.Assign[pg] != self {
		return false
	}
	present := false
	for _, b := range m.BackupsFor(pg) {
		if b == name {
			present = true
			break
		}
	}
	if !present {
		return true // another sender already demoted it
	}
	nm := m.WithoutBackup(pg, name)
	s.SetClusterMap(nm)
	s.replDemotions.Add(1)
	s.pushMapToPeers(nm, name)
	return true
}

// handleReplAppend ingests mirrored records as a backup. The sender's
// epoch rides in Token: a backup whose map is strictly newer refuses and
// answers StWrongEpoch with its own epoch — that is how a deposed
// primary (dead to the cluster, alive in the network) learns it must
// stop flagging writes durable. Ownership checks deliberately do not
// apply: a backup ingests PGs it does not own.
func (s *Server) handleReplAppend(m wire.Msg) wire.Msg {
	s.clMu.RLock()
	cm := s.clMap
	s.clMu.RUnlock()
	if cm != nil && cm.Epoch > uint64(m.Token) {
		s.wrongEpoch.Add(1)
		return wire.Msg{Type: wire.TReplAck, Status: wire.StWrongEpoch, Token: uint32(cm.Epoch)}
	}
	if s.replCrash != nil && s.replCrash("backup-append") {
		return wire.Msg{Type: wire.TReplAck, Status: wire.StError}
	}
	batch, err := decodeExportBatch(m.Value)
	if err != nil {
		return wire.Msg{Type: wire.TReplAck, Status: wire.StError}
	}
	for _, ek := range batch {
		eng := s.st.Shard(cluster.ShardFor(ek.Key, s.st.NumShards()))
		if eng.ImportKey(nil, ek) != store.StatusOK {
			return wire.Msg{Type: wire.TReplAck, Status: wire.StFull}
		}
		s.replIngested.Add(1)
	}
	return wire.Msg{Type: wire.TReplAck, Status: wire.StOK}
}

// handleReplPull exports every record of placement group Off for a
// promoting co-backup. One frame — replica reconciliation sets are
// backup-sized, not dataset-sized, and stay far under the frame cap.
func (s *Server) handleReplPull(m wire.Msg) wire.Msg {
	pg := int(m.Off)
	s.clMu.RLock()
	cm := s.clMap
	s.clMu.RUnlock()
	if cm == nil || pg < 0 || pg >= cm.PGs {
		return wire.Msg{Type: wire.TReplPullResp, Status: wire.StError}
	}
	accept := func(hash uint64) bool { return cluster.PGOf(hash, cm.PGs) == pg }
	var keys []store.ExportKey
	for i := 0; i < s.st.NumShards(); i++ {
		s.st.Shard(i).ExportMatching(accept, func(ek store.ExportKey) bool {
			keys = append(keys, ek)
			return true
		})
	}
	blob, err := encodeExportBatch(keys)
	if err != nil {
		return wire.Msg{Type: wire.TReplPullResp, Status: wire.StError}
	}
	return wire.Msg{Type: wire.TReplPullResp, Status: wire.StOK, Value: blob}
}

// handlePromote runs PromoteFrom for the dead instance named in Key.
func (s *Server) handlePromote(m wire.Msg) wire.Msg {
	ep, err := s.PromoteFrom(string(m.Key))
	if err != nil {
		return wire.Msg{Type: wire.TPromoteResp, Status: wire.StError, Value: []byte(err.Error())}
	}
	return wire.Msg{Type: wire.TPromoteResp, Status: wire.StOK, Token: uint32(ep)}
}

// PromoteFrom fails this instance over from a dead primary: it takes
// ownership of every PG the current map assigns to dead that lists this
// instance as a backup. Before the promotion map is installed the
// mirrored tail is reconciled — records acked by a quorum that did not
// include this backup are pulled from the surviving co-backups
// (TReplPull; imports are idempotent so the union is safe), then every
// pending version either commits durable or ages into invalidation
// (VerifyKeySettled), the same truncation a crash restart applies. Only
// then does the epoch+1 map make this instance answerable for the PGs.
// Returns the resulting epoch.
func (s *Server) PromoteFrom(dead string) (uint64, error) {
	s.migOne.Lock() // serialize against migrations and attach runs
	defer s.migOne.Unlock()
	s.clMu.RLock()
	m, self := s.clMap, s.clName
	s.clMu.RUnlock()
	if m == nil {
		return 0, errors.New("tcpkv: clustering not enabled")
	}
	if dead == self {
		return 0, errors.New("tcpkv: cannot promote from self")
	}
	if _, known := m.AddrOf(dead); !known {
		return 0, fmt.Errorf("tcpkv: unknown instance %q", dead)
	}
	take := make(map[int]bool)
	for pg, owner := range m.Assign {
		if owner != dead {
			continue
		}
		for _, b := range m.BackupsFor(pg) {
			if b == self {
				take[pg] = true
				break
			}
		}
	}
	if len(take) == 0 {
		return 0, fmt.Errorf("tcpkv: not a backup of any PG owned by %q", dead)
	}

	// Pull what the co-backups hold: a record only had to reach a
	// majority, and this backup may not have been in it. Best effort per
	// peer — a co-backup that is also down leaves exactly the records a
	// double failure would, which is outside the contract.
	for pg := range take {
		for _, b := range m.BackupsFor(pg) {
			if b == self || b == dead {
				continue
			}
			addr, ok := m.AddrOf(b)
			if !ok {
				continue
			}
			c, err := Dial(addr)
			if err != nil {
				continue
			}
			c.SetRetryPolicy(replRetryPolicy())
			if recs, err := c.ReplPull(pg); err == nil {
				for _, ek := range recs {
					eng := s.st.Shard(cluster.ShardFor(ek.Key, s.st.NumShards()))
					eng.ImportKey(nil, ek)
					s.replIngested.Add(1)
				}
			}
			c.Close()
		}
	}

	// Reconcile the mirrored tail: commit or truncate every pending
	// version before this instance can be asked about it.
	s.settlePGs(take, m.PGs)

	nm := m
	for pg := 0; pg < m.PGs; pg++ { // deterministic epoch order
		if take[pg] {
			nm = nm.WithPromotion(pg, self)
		}
	}
	s.SetClusterMap(nm)
	s.replPromotions.Add(1)
	s.pushMapToPeers(nm, dead)
	return nm.Epoch, nil
}

// settlePGs drives every key of the taken PGs to a settled durability
// state: durable, invalidated, tombstoned, or absent. Bounded by the
// verify window plus slack — a pending version that cannot settle by
// then is left to the background verifier, which applies the same
// commit-or-invalidate rule.
func (s *Server) settlePGs(take map[int]bool, pgs int) int {
	accept := func(hash uint64) bool { return take[cluster.PGOf(hash, pgs)] }
	var keys [][]byte
	for i := 0; i < s.st.NumShards(); i++ {
		s.st.Shard(i).ExportMatching(accept, func(ek store.ExportKey) bool {
			keys = append(keys, append([]byte(nil), ek.Key...))
			return true
		})
	}
	deadline := time.Now().Add(s.cfg.VerifyTimeout + 250*time.Millisecond)
	for _, k := range keys {
		eng := s.st.Shard(cluster.ShardFor(k, s.st.NumShards()))
		for !eng.VerifyKeySettled(nil, k) && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	return len(keys)
}

// ReplCounters returns the replication-layer event counters: records
// shipped to backups, transport failures, backups demoted, promotions
// completed, and records ingested as a backup.
func (s *Server) ReplCounters() (appends, failures, demotions, promotions, ingested uint64) {
	return s.replAppends.Load(), s.replFailures.Load(), s.replDemotions.Load(),
		s.replPromotions.Load(), s.replIngested.Load()
}

// SetReplCrash installs the failover torture hook, consulted at each
// replication protocol point ("pre-mirror", "post-mirror",
// "del-pre-mirror", "del-post-mirror", "backup-append"); returning true
// makes the protocol behave as if the process died there. Call before
// traffic.
func (s *Server) SetReplCrash(fn func(point string) bool) { s.replCrash = fn }

// ReplicationSummary reports what one attach run copied.
type ReplicationSummary struct {
	PG           int    `json:"pg"`
	Target       string `json:"target"`
	Epoch        uint64 `json:"epoch"` // map epoch after the attach
	SnapshotKeys int    `json:"snapshot_keys"`
	DrainKeys    int    `json:"drain_keys"`
	DrainRounds  int    `json:"drain_rounds"`
	FinalKeys    int    `json:"final_keys"` // keys re-copied after the cutover
}

// ReplicatePG attaches target as a backup of pg: the PG's live records
// are streamed over (snapshot + drain rounds, exactly the migration
// machinery), then the epoch+1 map listing the backup is installed on
// THIS instance first — the primary is the gaining party of the mirror
// obligation, so from that instant every new durability flag waits on
// the backup's ack — and a final drain re-copies anything flagged solo
// before the install. Only then does the map travel to the target and
// the peers. No blocked window and no purge: the primary keeps serving
// and keeps its data; the only cutover is when flags start waiting.
//
// Dying mid-attach is safe at every point: until the map is installed
// locally, no map anywhere lists the target as a backup, so no failover
// can promote a half-copied replica.
func (s *Server) ReplicatePG(pg int, target string) (ReplicationSummary, error) {
	s.migOne.Lock()
	defer s.migOne.Unlock()

	s.clMu.RLock()
	m, self := s.clMap, s.clName
	s.clMu.RUnlock()
	sum := ReplicationSummary{PG: pg, Target: target}
	if m == nil {
		return sum, errors.New("tcpkv: clustering not enabled")
	}
	if pg < 0 || pg >= m.PGs {
		return sum, fmt.Errorf("tcpkv: no placement group %d (map has %d)", pg, m.PGs)
	}
	if m.Assign[pg] != self {
		return sum, fmt.Errorf("tcpkv: pg %d is owned by %q, not this instance", pg, m.Assign[pg])
	}
	if target == self {
		return sum, errors.New("tcpkv: target is the primary")
	}
	for _, b := range m.BackupsFor(pg) {
		if b == target {
			return sum, fmt.Errorf("tcpkv: %q is already a backup of pg %d", target, pg)
		}
	}
	addr, ok := m.AddrOf(target)
	if !ok {
		return sum, fmt.Errorf("tcpkv: unknown target instance %q", target)
	}
	tc, err := Dial(addr)
	if err != nil {
		return sum, fmt.Errorf("tcpkv: dial target: %w", err)
	}
	defer tc.Close()
	tc.SetRetryPolicy(DefaultRetryPolicy())

	accept := func(hash uint64) bool { return cluster.PGOf(hash, m.PGs) == pg }
	tracker := &migTracker{accept: accept, dirty: make(map[string]struct{})}
	s.mig.Store(tracker)
	defer s.mig.Store(nil)

	if err := s.migCheckpoint("repl-pre-snapshot"); err != nil {
		return sum, err
	}
	if sum.SnapshotKeys, err = s.exportSnapshot(tc, accept); err != nil {
		return sum, fmt.Errorf("tcpkv: replica snapshot: %w", err)
	}
	for round := 0; round < migDrainRounds; round++ {
		if err := s.migCheckpoint("repl-drain"); err != nil {
			return sum, err
		}
		dirty := tracker.take()
		if len(dirty) == 0 {
			break
		}
		sum.DrainRounds++
		n, err := s.exportDirty(tc, dirty)
		if err != nil {
			return sum, fmt.Errorf("tcpkv: replica drain round %d: %w", round, err)
		}
		sum.DrainKeys += n
	}

	if err := s.migCheckpoint("repl-pre-install"); err != nil {
		return sum, err
	}
	// Self-first cutover: the mirror obligation starts here. Every flag
	// set after this install waits on the backup; everything flagged
	// before it is covered by the final drain below (a drained key whose
	// export was still pending re-dirtied itself, so settling here ships
	// the durable state).
	nm := m.WithBackup(pg, target)
	s.SetClusterMap(nm)
	sum.Epoch = nm.Epoch
	if sum.FinalKeys, err = s.exportDirty(tc, tracker.take()); err != nil {
		return sum, fmt.Errorf("tcpkv: replica final drain: %w", err)
	}
	if err := s.migCheckpoint("repl-installed"); err != nil {
		return sum, err
	}
	if _, err := tc.SetClusterMapRPC(nm); err != nil {
		return sum, fmt.Errorf("tcpkv: installing map on backup: %w", err)
	}
	s.pushMapToPeers(nm, target)
	return sum, nil
}

// replAttach brings a newly joined instance up to the map's replication
// factor: every PG this instance primaries and that is still short of
// ReplicationFactor copies gains the joiner as a backup, one attach run
// at a time. Driven asynchronously from handleJoin.
func (s *Server) replAttach(target string) {
	for {
		s.clMu.RLock()
		m, self := s.clMap, s.clName
		s.clMu.RUnlock()
		if m == nil || m.ReplicationFactor < 2 {
			return
		}
		pg := -1
		for i, owner := range m.Assign {
			if owner != self || owner == target {
				continue
			}
			if 1+len(m.BackupsFor(i)) >= m.ReplicationFactor {
				continue
			}
			already := false
			for _, b := range m.BackupsFor(i) {
				if b == target {
					already = true
					break
				}
			}
			if !already {
				pg = i
				break
			}
		}
		if pg < 0 {
			return
		}
		if _, err := s.ReplicatePG(pg, target); err != nil {
			return // target unreachable or state moved; next join retries
		}
	}
}

// encodeExportBatch is decodeExportBatch's inverse (TReplPull payloads).
func encodeExportBatch(batch []store.ExportKey) ([]byte, error) {
	return json.Marshal(batch)
}
