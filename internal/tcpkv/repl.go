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
// every send is followed — under the same sender mutex — by a check of
// the key's head state, and a full export only when it moved, shipped as
// a compensating append: the last record in any backup's order always
// reflects engine state current as of that send, so an acked DELETE can
// never be resurrected by a stale mirror and an acked PUT never erased by
// a stale tombstone.
package tcpkv

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"efactory/internal/cluster"
	"efactory/internal/kv"
	"efactory/internal/store"
	"efactory/internal/trace"
	"efactory/internal/wire"
)

// replOutcome classifies one backup's response to an append.
type replOutcome int

const (
	replAcked   replOutcome = iota // record durable on the backup
	replDeposed                    // backup holds a newer map: stop flagging
	// The rest are failures, each of which demotes the backup; the
	// outcome is the demotion's cause.
	replFull      // the backup had no room for the record (StFull)
	replTransport // no answer within the peer retry policy
	replStatus    // any other refusal
	numReplOutcomes
)

// demotionCauses labels efactory_repl_demotions_total by failure outcome.
var demotionCauses = [numReplOutcomes]string{
	replFull: "full", replTransport: "transport", replStatus: "status",
}

// replStatusError is a backup's refusal of a record frame.
type replStatusError struct{ status uint8 }

func (e *replStatusError) Error() string {
	return fmt.Sprintf("tcpkv: repl append status %d", e.status)
}

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
		switch out := s.appendTo(eng, m, b, rec); out {
		case replAcked:
			acks++
			live++
		case replDeposed:
			if tc != nil {
				tc.Add("repl_append", t0, uint64(time.Now().UnixNano()))
				tc.Mark("repl_deposed")
			}
			return false
		default:
			if !s.demoteBackup(pg, b, out) {
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
// mutex, checks the key's head state (Engine.ExportState) against it. Only
// if a concurrent mutation moved that state does it export the key and
// ship the export as a compensating record (see the package comment on
// ordering).
func (s *Server) appendTo(eng *store.Engine, m *cluster.Map, name string, rec store.ExportKey) replOutcome {
	addr, ok := m.AddrOf(name)
	if !ok {
		return replTransport
	}
	s.replMu.Lock()
	mu := s.replSenders[name]
	if mu == nil {
		mu = new(sync.Mutex)
		s.replSenders[name] = mu
	}
	s.replMu.Unlock()

	mu.Lock()
	defer mu.Unlock()
	out := s.sendAppend(name, addr, rec, m.Epoch)
	if out != replAcked {
		return out
	}
	// An absent key reads as a bare tombstone on both checks.
	if tomb, cut, newest, found := eng.ExportState(rec.Key); !replStateChanged(&rec, tomb || !found, cut, newest) {
		return replAcked
	}
	cur, found := eng.ExportOne(rec.Key)
	if !found {
		cur = store.ExportKey{Key: rec.Key, Tombstone: true}
	}
	if replStateChanged(&rec, cur.Tombstone, cur.CutSeq, cur.NewestSeq()) {
		return s.sendAppend(name, addr, cur, m.Epoch)
	}
	return replAcked
}

// sendAppend ships one mirror record and classifies the outcome.
func (s *Server) sendAppend(name, addr string, rec store.ExportKey, epoch uint64) replOutcome {
	err := s.ship(name, addr, []store.ExportKey{rec}, epoch)
	var (
		we *cluster.WrongEpochError
		se *replStatusError
	)
	switch {
	case err == nil:
		s.replAppends.Add(1)
		return replAcked
	case errors.As(err, &we):
		return replDeposed
	}
	s.replFailures.Add(1)
	switch {
	case !errors.As(err, &se):
		return replTransport
	case se.status == wire.StFull:
		return replFull
	}
	return replStatus
}

// ship sends one record frame to the named instance under epoch — the
// one sender of TReplAppend, for mirror appends and copies alike. A
// receiver holding a strictly newer map refuses the frame with a
// *cluster.WrongEpochError, and this instance adopts that map.
func (s *Server) ship(name, addr string, recs []store.ExportKey, epoch uint64) error {
	return s.peers.call(name, addr, func(c *Client) error {
		err := c.ReplAppend(recs, epoch)
		var we *cluster.WrongEpochError
		if errors.As(err, &we) {
			if nm, merr := c.ClusterMapRPC(); merr == nil {
				s.SetClusterMap(nm)
			}
		}
		return err
	})
}

// replStateChanged reports whether the key's authoritative state — its
// tombstone bit, cut and newest seq — moved since sent was built: a
// tombstone appeared or cleared, the cut sequence advanced, or a
// different newest version landed.
func replStateChanged(sent *store.ExportKey, tomb bool, cut, newest uint64) bool {
	return tomb != sent.Tombstone || cut != sent.CutSeq || newest != sent.NewestSeq()
}

// peerRetryPolicy is the transport policy of every instance-to-instance
// call: one quick retry, tightly bounded attempts — a backup that cannot
// answer inside it is demoted rather than waited on, and a hung peer
// costs a map push one timeout, not a hang.
func peerRetryPolicy() RetryPolicy {
	return RetryPolicy{Attempts: 2, Backoff: 2 * time.Millisecond,
		MaxBackoff: 20 * time.Millisecond, Timeout: 2 * time.Second}
}

// demoteBackup removes a failed backup from pg's replica set, counting the
// demotion under its cause (a failure replOutcome): epoch+1 map
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
func (s *Server) demoteBackup(pg int, name string, cause replOutcome) bool {
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
	s.replDemotions[cause].Add(1)
	s.pushMapToPeers(nm, name)
	return true
}

// handleReplAppend ingests a record frame — a mirror append, or a batch
// of a migration or replica-attach copy. The sender's epoch rides in
// Token: an instance whose map is strictly newer refuses and answers
// StWrongEpoch with its own epoch — that is how a deposed primary (dead
// to the cluster, alive in the network) learns it must stop flagging
// writes durable, and how a copy under a stale map aborts.
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
	rp := recScratchPool.Get().(*[]store.ExportKey)
	defer recScratchPool.Put(rp)
	batch, err := store.DecodeRecordsInto(m.Value, *rp)
	*rp = batch
	if err != nil {
		return wire.Msg{Type: wire.TReplAck, Status: wire.StError}
	}
	return wire.Msg{Type: wire.TReplAck, Status: s.ingest(batch)}
}

// recScratchPool holds the record slices handleReplAppend decodes frames
// into, so a steady stream of appends reuses them. The decoded keys and
// values alias the request frame; ingest copies them into the device
// before the handler returns.
var recScratchPool = sync.Pool{New: func() any { return new([]store.ExportKey) }}

// ingest imports records a peer shipped — mirror appends, copies,
// promotion pulls: the one door peer data enters the engines through.
// Peer bytes are hostile input, so the whole batch is validated
// (store.ExportKey.Valid) before any of it is imported; a refused batch
// answers StError and changes nothing. Ownership checks deliberately do
// not apply: a backup or a migration target ingests PGs it does not own.
func (s *Server) ingest(batch []store.ExportKey) uint8 {
	for i := range batch {
		if !batch[i].Valid() {
			return wire.StError
		}
	}
	for _, ek := range batch {
		if s.st.Shard(s.st.ShardFor(ek.Key)).ImportKey(nil, ek) != store.StatusOK {
			return wire.StFull
		}
		s.replIngested.Add(1)
	}
	return wire.StOK
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
	return wire.Msg{Type: wire.TReplPullResp, Status: wire.StOK, Value: store.AppendRecords(nil, keys)}
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
			addr, ok := m.AddrOf(b)
			if b == self || b == dead || !ok {
				continue
			}
			s.peers.call(b, addr, func(c *Client) error {
				recs, err := c.ReplPull(pg)
				if err == nil {
					s.ingest(recs)
				}
				return err
			})
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
// shipped to backups, failed appends, backups demoted (whatever the
// cause), promotions completed, and records ingested from peers.
func (s *Server) ReplCounters() (appends, failures, demotions, promotions, ingested uint64) {
	for i := range s.replDemotions {
		demotions += s.replDemotions[i].Load()
	}
	return s.replAppends.Load(), s.replFailures.Load(), demotions,
		s.replPromotions.Load(), s.replIngested.Load()
}

// replicationDeficit is, over the PGs this instance owns, the map's
// target copies minus the copies each PG has: 0 while every owned PG is
// at its replication factor.
func (s *Server) replicationDeficit() int {
	s.clMu.RLock()
	m, self := s.clMap, s.clName
	s.clMu.RUnlock()
	if m == nil {
		return 0
	}
	deficit := 0
	for _, pg := range m.OwnedPGs(self) {
		deficit += max(0, m.ReplicationFactor-1-len(m.BackupsFor(pg)))
	}
	return deficit
}

// SetReplCrash installs the failover torture hook, consulted at each
// replication protocol point ("pre-mirror", "post-mirror",
// "del-pre-mirror", "del-post-mirror", "backup-append"); returning true
// makes the protocol behave as if the process died there. Call before
// traffic.
func (s *Server) SetReplCrash(fn func(point string) bool) { s.replCrash = fn }

// ReplicatePG attaches target as a backup of pg: the PG's live records
// are streamed over (snapshot + drain rounds, the copy loop a migration
// runs), then the epoch+1 map listing the backup is installed on THIS
// instance first — the primary is the gaining party of the mirror
// obligation, so from that instant every new durability flag waits on
// the backup's ack — and a final drain re-copies anything flagged solo
// before the install. Only then does the map travel to the target and
// the peers. No blocked window and no purge: the primary keeps serving
// and keeps its data; the only cutover is when flags start waiting.
//
// Dying mid-attach is safe at every point: until the map is installed
// locally, no map anywhere lists the target as a backup, so no failover
// can promote a half-copied replica.
func (s *Server) ReplicatePG(pg int, target string) error {
	s.migOne.Lock()
	defer s.migOne.Unlock()
	cp, err := s.beginCopy(pg, target, "repl-")
	if err != nil {
		return err
	}
	defer cp.end()
	if slices.Contains(cp.m.BackupsFor(pg), target) {
		return fmt.Errorf("tcpkv: %q is already a backup of pg %d", target, pg)
	}
	if err := cp.run(nil); err != nil {
		return err
	}
	if err := s.migCheckpoint("repl-pre-install"); err != nil {
		return err
	}
	// Self-first cutover: the mirror obligation starts here. Every flag
	// set after this install waits on the backup; everything flagged
	// before it is covered by the final drain below (a drained key whose
	// export was still pending re-dirtied itself, so settling here ships
	// the durable state). A map that moved under the copy (a join, a
	// demotion) leaves nm uninstalled: the attach fails and the caller
	// retries under the new map.
	nm := cp.m.WithBackup(pg, target)
	if s.SetClusterMap(nm); s.ClusterMap() != nm {
		return fmt.Errorf("tcpkv: map moved during the attach of pg %d", pg)
	}
	if _, err := cp.drain(cp.tracker.take()); err != nil {
		return fmt.Errorf("tcpkv: final drain: %w", err)
	}
	if err := s.migCheckpoint("repl-installed"); err != nil {
		return err
	}
	if err := s.offerMap(target, cp.addr, nm); err != nil {
		return fmt.Errorf("tcpkv: installing map on backup: %w", err)
	}
	s.pushMapToPeers(nm, target)
	return nil
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
			if owner == self && 1+len(m.BackupsFor(i)) < m.ReplicationFactor &&
				!slices.Contains(m.BackupsFor(i), target) {
				pg = i
				break
			}
		}
		if pg < 0 {
			return
		}
		if err := s.ReplicatePG(pg, target); err != nil && s.ClusterMap().Epoch == m.Epoch {
			return // target unreachable; the next join retries
		}
		// Attached, or the map moved under the attach (another join, a
		// demotion, a target holding a newer map): continue under the
		// current map.
	}
}
