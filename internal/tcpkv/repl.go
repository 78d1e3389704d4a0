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
// A verify run's records travel as one record frame per backup: the
// records of every PG the backup serves, in the run's log order. Record
// ordering per backup is total: each backup has one sender mutex, one
// frame in flight, and the synchronous ack means the backup applied every
// record of the frame, in order, before the next frame starts. A record
// built before a concurrent DELETE (or newer PUT) could still be the last
// one sent for its key, so every frame is followed — under the same
// sender mutex — by a check of each of its keys' head state, and the
// full exports of the keys that moved travel as one compensating frame:
// the last record for each key in any backup's order always reflects
// engine state current as of that frame's send, so an acked DELETE can
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
	replAborted                    // a crash point fired around the frame
	// The rest are failures, each of which demotes the backup; the
	// outcome is the demotion's cause.
	replFull      // the backup had no room for the record (StFull)
	replTransport // no answer within the peer table's timeout and quick retry
	replStatus    // any other refusal
	numReplOutcomes
)

// demotionCauses labels efactory_repl_demotions_total by failure outcome.
var demotionCauses = [numReplOutcomes]string{
	replFull: "full", replTransport: "transport", replStatus: "status",
}

// replPoints names the replCrash points consulted around each frame of a
// replicate call: before it travels, and after it is acked.
type replPoints struct{ pre, post string }

var (
	mirrorPoints = replPoints{"pre-mirror", "post-mirror"}
	deletePoints = replPoints{"del-pre-mirror", "del-post-mirror"}
)

// replMirror is the engine's Deps.Mirror hook: called (without the engine
// lock) with the records of every version a verify run is about to flag
// durable. The pre-mirror / post-mirror crash points model the primary
// dying just before or just after a frame traveled but before the flags
// persisted — torture harnesses only.
func (s *Server) replMirror(h any, recs []store.ExportKey, ok []bool) {
	s.replicate(h, recs, ok, mirrorPoints)
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
	ek, found := eng.ExportOne(key)
	if !found {
		// Entry already reclaimed: synthesize the tombstone that was
		// just observed to exist.
		ek = store.ExportKey{Key: append([]byte(nil), key...), Tombstone: true}
	}
	recs, ok := [1]store.ExportKey{ek}, [1]bool{}
	s.replicate(h, recs[:], ok[:], deletePoints)
	return ok[0]
}

// replicatedPG reports whether key's placement group currently carries
// backups this instance must mirror to (one map read, no allocation —
// the fast path of every unreplicated DELETE).
func (s *Server) replicatedPG(key []byte) bool {
	s.clMu.RLock()
	m, name := s.clMap, s.clName
	s.clMu.RUnlock()
	return m != nil && replicaPG(m, name, key) >= 0
}

// replicaPG returns the placement group of key if this instance (name)
// primaries it under m and it carries backups, and -1 otherwise.
func replicaPG(m *cluster.Map, name string, key []byte) int {
	pg := cluster.PGOf(kv.HashKey(key), m.PGs)
	if pg < len(m.Assign) && m.Assign[pg] == name && len(m.BackupsFor(pg)) > 0 {
		return pg
	}
	return -1
}

// replRun is one replicate call's scratch, pooled so a steady mirror
// stream allocates nothing: each record's quorum tally, the backups the
// run reaches, and one backup's share of the records and its compensating
// exports.
type replRun struct {
	tally   []replTally
	backups []string
	idx     []int             // the records of the current backup's share
	share   []store.ExportKey // their records, in run order
	out     []replOutcome     // the share's outcomes
	comp    []store.ExportKey // compensating exports of the share
	compIdx []int             // positions in share of comp's records
}

// replTally is one record's quorum count in a replicate call.
type replTally struct {
	pg         int // -1: the record needs no backup
	acks, live int // replicas holding the record (this instance included), and counted
	abort      bool
}

var replRunPool = sync.Pool{New: func() any { return new(replRun) }}

// replicate makes each record of a run durable on a quorum of its PG's
// replica set, and sets ok[i] when the caller may persist record i's
// durability flag (or ack a DELETE): when it is quorum-durable — counting
// this instance, and counting demotions, which shrink the set rather than
// fail the quorum (a failure that cannot demote leaves the backup in the
// set, counted against the quorum). A record whose PG this instance does
// not primary, or that has no backups, is ok at once. A record is not ok
// when a backup proved this instance is no longer its PG's primary under
// the newest epoch, or when a crash point at pts fired around its frame.
//
// Each backup gets one frame with every record that names it (appendRun);
// quorum, demotion and the deposed verdict are per record, from its own PG.
func (s *Server) replicate(h any, recs []store.ExportKey, ok []bool, pts replPoints) {
	s.clMu.RLock()
	m, name := s.clMap, s.clName
	s.clMu.RUnlock()
	r := replRunPool.Get().(*replRun)
	defer replRunPool.Put(r)
	r.tally, r.backups = r.tally[:0], r.backups[:0]
	pending := 0
	for i := range recs {
		ok[i] = true
		// A record of a PG this instance does not own (deposed, or
		// mid-migration) needs no backup: its flag only vouches for local
		// bytes routed clients can no longer observe, so setting it is
		// harmless and unblocks the verifier.
		pg := -1
		if m != nil && len(recs[i].Key) > 0 {
			pg = replicaPG(m, name, recs[i].Key)
		}
		if pg >= 0 {
			pending++
			for _, b := range m.BackupsFor(pg) {
				if !slices.Contains(r.backups, b) {
					r.backups = append(r.backups, b)
				}
			}
		}
		r.tally = append(r.tally, replTally{pg: pg, acks: 1, live: 1})
	}
	if pending == 0 {
		return
	}
	s.replPending.Add(int64(pending))
	defer s.replPending.Add(-int64(pending))
	_, tc := trace.Unwrap(h)
	t0 := uint64(time.Now().UnixNano())
	deposed := false
	for _, b := range r.backups {
		r.idx, r.share = r.idx[:0], r.share[:0]
		for i, t := range r.tally {
			if t.pg >= 0 && slices.Contains(m.BackupsFor(t.pg), b) {
				r.idx, r.share = append(r.idx, i), append(r.share, recs[i])
			}
		}
		s.appendRun(m, b, r, pts)
		for j, out := range r.out {
			t := &r.tally[r.idx[j]]
			switch out {
			case replAcked:
				t.acks++
				t.live++
			case replDeposed:
				t.abort, deposed = true, true
			case replAborted:
				t.abort = true
			default:
				if !s.demoteBackup(t.pg, b, out) {
					// The set could not be shrunk (this instance was
					// deposed mid-replicate, or clustering vanished): the
					// backup stays a live replica the record did not reach,
					// so it counts against the quorum instead of out of it.
					t.live++
				}
			}
		}
	}
	clear(r.share) // drop the records' buffers until the next run
	for i, t := range r.tally {
		ok[i] = t.pg < 0 || !t.abort && t.acks >= t.live/2+1
	}
	if tc != nil {
		tc.Add("repl_append", t0, uint64(time.Now().UnixNano()))
		if deposed {
			tc.Mark("repl_deposed")
		}
	}
}

// appendRun ships r.share to the named backup in one frame and, under the
// same sender mutex, checks each key's head state (Engine.ExportState)
// against the record shipped. Only the keys a concurrent mutation moved
// are exported, and those exports travel as one compensating frame (see
// the package comment on ordering). It leaves each record's outcome in
// r.out — the compensating frame's for a compensated record.
func (s *Server) appendRun(m *cluster.Map, name string, r *replRun, pts replPoints) {
	r.out = r.out[:0]
	addr, ok := m.AddrOf(name)
	if !ok {
		for range r.share {
			r.out = append(r.out, replTransport)
		}
		return
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
	out := s.sendFrame(name, addr, r.share, m.Epoch, pts)
	for range r.share {
		r.out = append(r.out, out)
	}
	if out != replAcked {
		return
	}
	r.comp, r.compIdx = r.comp[:0], r.compIdx[:0]
	for j := range r.share {
		rec := &r.share[j]
		eng := s.st.Shard(s.st.ShardFor(rec.Key))
		// An absent key reads as a bare tombstone on both checks.
		if tomb, cut, newest, found := eng.ExportState(rec.Key); !replStateChanged(rec, tomb || !found, cut, newest) {
			continue
		}
		cur, found := eng.ExportOne(rec.Key)
		if !found {
			cur = store.ExportKey{Key: rec.Key, Tombstone: true}
		}
		if replStateChanged(rec, cur.Tombstone, cur.CutSeq, cur.NewestSeq()) {
			r.comp, r.compIdx = append(r.comp, cur), append(r.compIdx, j)
		}
	}
	if len(r.comp) > 0 {
		out := s.sendFrame(name, addr, r.comp, m.Epoch, pts)
		for _, j := range r.compIdx {
			r.out[j] = out
		}
		clear(r.comp)
	}
}

// sendFrame ships one frame of mirror records, consulting the crash points
// around it, and classifies the outcome.
func (s *Server) sendFrame(name, addr string, recs []store.ExportKey, epoch uint64, pts replPoints) replOutcome {
	if s.replCrash != nil && s.replCrash(pts.pre) {
		return replAborted
	}
	st, err := s.ship(name, addr, recs, epoch)
	switch {
	case err == nil && st == wire.StOK:
		s.replAppends.Add(1)
		s.replRecords.Add(uint64(len(recs)))
		if s.replCrash != nil && s.replCrash(pts.post) {
			return replAborted
		}
		return replAcked
	case err == nil && st == wire.StWrongEpoch:
		return replDeposed
	}
	s.replFailures.Add(1)
	switch {
	case err != nil:
		return replTransport
	case st == wire.StFull:
		return replFull
	}
	return replStatus
}

// ship sends one record frame to the named instance under epoch — the
// one sender of TReplAppend, for mirror appends and copies alike — and
// returns the receiver's status. A receiver holding a strictly newer map
// refuses the frame with StWrongEpoch, and this instance adopts that map.
func (s *Server) ship(name, addr string, recs []store.ExportKey, epoch uint64) (uint8, error) {
	var st uint8
	err := s.peers.call(name, addr, func(c *Client) error {
		var err error
		st, err = c.ReplAppend(recs, epoch)
		if err == nil && st == wire.StWrongEpoch {
			if nm, merr := c.ClusterMapRPC(); merr == nil {
				s.SetClusterMap(nm)
			}
		}
		return err
	})
	return st, err
}

// replStateChanged reports whether the key's authoritative state — its
// tombstone bit, cut and newest seq — moved since sent was built: a
// tombstone appeared or cleared, the cut sequence advanced, or a
// different newest version landed.
func replStateChanged(sent *store.ExportKey, tomb bool, cut, newest uint64) bool {
	return tomb != sent.Tombstone || cut != sent.CutSeq || newest != sent.NewestSeq()
}

// peerTimeout bounds each attempt of an instance-to-instance call: a
// backup that cannot answer inside it (and inside the peer table's one
// quick retry) is demoted rather than waited on, and a hung peer costs a
// map push bounded time, not a hang.
const peerTimeout = 2 * time.Second

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

// ReplCounters returns the replication-layer event counters: mirror
// frames acked by backups, failed frames, backups demoted (whatever the
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
