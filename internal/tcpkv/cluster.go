// Server side of the cluster placement layer. A tcpkv server becomes a
// cluster instance when it is given a name and an epoch-versioned
// cluster map (internal/cluster): from then on it is AUTHORITATIVE for
// ownership — every routed RPC op whose key falls outside the placement
// groups the map assigns to this instance is rejected with StWrongEpoch
// and the server's current epoch, and the client (whose cached map is
// advisory, like its hint cache) refetches and retries. A server whose
// map is nil behaves exactly like a pre-cluster server: no ownership
// checks, no new wire traffic, bit-identical behavior.
//
// Ownership applies to the RPC path only. One-sided READ/WRITE frames
// model RNIC DMA and cannot be checked per-key; they stay safe because
// migration purges moved entries from the source hash table, so a stale
// one-sided read misses (or fails the object checks) and the client
// falls back to the RPC path, where the wrong-epoch redirect happens.
package tcpkv

import (
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"time"

	"efactory/internal/cluster"
	"efactory/internal/kv"
	"efactory/internal/store"
	"efactory/internal/wire"
)

// EnableCluster names this server and installs the standalone seed map:
// one instance (this one, reachable at addr) owning all pgs placement
// groups at epoch 1. Call before Serve.
func (s *Server) EnableCluster(name, addr string, pgs int) {
	m := cluster.SingleInstance(name, addr, pgs)
	if s.cfg.Replicas > 1 {
		// The seed map carries the replication target; joiners are
		// attached as backups (replAttach) until every PG has
		// cfg.Replicas copies.
		m.ReplicationFactor = s.cfg.Replicas
	}
	s.clMu.Lock()
	s.clName = name
	s.clSelf = addr
	s.clMap = m
	s.clMu.Unlock()
	reg := s.st.Metrics()
	reg.SetInstance(name)
	reg.SetEpoch(1)
	s.registerClusterMetrics()
}

// SetInstanceName prepares a joining server: it has an identity but no
// map until the join response (or a TClusterMapSet push) installs one.
// With a nil map no ownership checks run, so a named-but-mapless server
// still behaves like an unclustered one. Call before Serve.
func (s *Server) SetInstanceName(name, addr string) {
	s.clMu.Lock()
	s.clName = name
	s.clSelf = addr
	s.clMu.Unlock()
	s.st.Metrics().SetInstance(name)
	s.registerClusterMetrics()
}

// Join is the whole bring-up of a joining instance: take the identity
// name (reachable at self), ask the clustered instance at seedAddr to
// admit it, and install the map that comes back (epoch+1, name owning
// nothing), which is returned. The listener for self must already be
// bound: peers dial it as soon as the map names it.
func (s *Server) Join(name, self, seedAddr string) (*cluster.Map, error) {
	s.SetInstanceName(name, self)
	c, err := Dial(seedAddr)
	if err != nil {
		return nil, fmt.Errorf("tcpkv: join via %s: %w", seedAddr, err)
	}
	defer c.Close()
	m, err := c.JoinRPC(name, self)
	if err != nil {
		return nil, fmt.Errorf("tcpkv: join via %s: %w", seedAddr, err)
	}
	s.SetClusterMap(m)
	return m, nil
}

// WaitBackup blocks until this instance's map lists name as a backup of
// every placement group it owns. The replica attach a join triggers runs
// asynchronously; a write acknowledged before it finishes has no mirror.
func (s *Server) WaitBackup(name string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		m, missing := s.ClusterMap(), 0
		if m == nil {
			return fmt.Errorf("tcpkv: waiting for backup %s on an unclustered server", name)
		}
		for _, pg := range m.OwnedPGs(s.InstanceName()) {
			if !slices.Contains(m.BackupsFor(pg), name) {
				missing++
			}
		}
		if missing == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("tcpkv: %s never attached as backup: %d PGs missing", name, missing)
		}
		time.Sleep(time.Millisecond)
	}
}

// InstanceName returns the cluster identity ("" when unclustered).
func (s *Server) InstanceName() string {
	s.clMu.RLock()
	defer s.clMu.RUnlock()
	return s.clName
}

// ClusterMap returns the server's current map (nil when clustering is
// disabled or a joiner has not been given a map yet).
func (s *Server) ClusterMap() *cluster.Map {
	s.clMu.RLock()
	defer s.clMu.RUnlock()
	return s.clMap
}

// ClusterCounters returns the cluster-layer event counters: routed ops
// rejected with StWrongEpoch, keys shipped by migrations, and completed
// migrations. External harnesses (modelcheck, benches) assert on these —
// e.g. that a converged client stops drawing rejects in steady state.
func (s *Server) ClusterCounters() (wrongEpochRejects, keysMigrated, migrations uint64) {
	return s.wrongEpoch.Load(), s.migKeysMoved.Load(), s.migDone.Load()
}

// SetClusterMap installs m if it is strictly newer than the current map
// (or the server has none). It returns the epoch the server ends up at,
// which is also what a TClusterMapSet response carries — the pusher
// learns the server's view either way. Maps never move backwards.
//
// Installing a map that takes PGs away from this instance — a deposed
// primary learning it was failed over — also purges the lost groups'
// entries, asynchronously, after an opGate barrier has flushed every op
// approved under the old map: stale one-sided readers then miss here
// and fall back to the routed path, where the wrong-epoch redirect
// steers them to the new owner. (Migration sources purge synchronously
// inside their blocked window; this purge finds nothing there.)
func (s *Server) SetClusterMap(m *cluster.Map) uint64 {
	if m == nil || m.Validate() != nil {
		s.clMu.RLock()
		defer s.clMu.RUnlock()
		if s.clMap == nil {
			return 0
		}
		return s.clMap.Epoch
	}
	s.clMu.Lock()
	var lost []int
	if s.clMap == nil || m.Epoch > s.clMap.Epoch {
		if s.clMap != nil && s.clName != "" {
			for _, pg := range s.clMap.OwnedPGs(s.clName) {
				if pg < len(m.Assign) && m.Assign[pg] != s.clName {
					lost = append(lost, pg)
				}
			}
		}
		s.clMap = m
		// Structured trace events recorded from here on carry the new
		// epoch, so a ring dump shows exactly when the instance moved.
		s.st.Metrics().SetEpoch(m.Epoch)
	}
	ep := s.clMap.Epoch
	s.clMu.Unlock()
	if len(lost) > 0 {
		// Async: the caller may be a mutating handler holding the opGate
		// read side (a DELETE whose mirror append just got deposed), and
		// the barrier below takes the write side.
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.opGate.Lock()
			s.opGate.Unlock() //nolint:staticcheck // barrier: old-map ops applied
			// Re-check each purge decision against the map that is current
			// NOW, not the one that triggered it: while this goroutine
			// waited on the barrier the instance may have been re-attached
			// as a replica of a lost PG (snapshot already ingested), and a
			// stale purge would leave a backup the map counts toward
			// quorum holding none of the PG's records.
			s.clMu.RLock()
			cur, name := s.clMap, s.clName
			s.clMu.RUnlock()
			set := make(map[int]bool, len(lost))
			for _, pg := range lost {
				if replicaOf(cur, name, pg) {
					continue
				}
				set[pg] = true
			}
			if len(set) == 0 {
				return
			}
			accept := func(hash uint64) bool { return set[cluster.PGOf(hash, m.PGs)] }
			for i := 0; i < s.st.NumShards(); i++ {
				s.st.Shard(i).PurgeMatching(accept)
			}
		}()
	}
	return ep
}

// replicaOf reports whether m lists name as a replica — primary or
// backup — of placement group pg.
func replicaOf(m *cluster.Map, name string, pg int) bool {
	if m == nil || pg < 0 || pg >= len(m.Assign) {
		return false
	}
	if m.Assign[pg] == name {
		return true
	}
	for _, b := range m.BackupsFor(pg) {
		if b == name {
			return true
		}
	}
	return false
}

// blockPG marks pg as refusing routed ops (the migration cutover
// window); unblockPG lifts it. While blocked, ops on the PG get
// StWrongEpoch at the CURRENT epoch — the client's map is not stale, so
// it backs off and retries instead of refetching, and the retry lands
// after cutover under the new epoch.
func (s *Server) blockPG(pg int) {
	s.clMu.Lock()
	if s.clBlocked == nil {
		s.clBlocked = make(map[int]bool)
	}
	s.clBlocked[pg] = true
	s.clMu.Unlock()
}

func (s *Server) unblockPG(pg int) {
	s.clMu.Lock()
	delete(s.clBlocked, pg)
	s.clMu.Unlock()
}

// unowned reports whether a request naming keys must be rejected with
// StWrongEpoch, and at which epoch. If ANY key is unowned the whole request
// is rejected — requests are all-or-nothing on the wire, and a split batch
// would force per-op status plumbing through the grant arrays for an
// event that is rare (it only happens while a client's map is stale).
// With a nil map every key is owned (clustering off).
func (s *Server) unowned(keys [][]byte) (epoch uint64, reject bool) {
	s.clMu.RLock()
	m := s.clMap
	name := s.clName
	if m == nil {
		s.clMu.RUnlock()
		return 0, false
	}
	// The blocked-map lookups stay under the read lock: blockPG mutates
	// the map concurrently, and a map value is not safe to read through
	// a reference captured before the mutation.
	for _, k := range keys {
		h := kv.HashKey(k)
		if (len(s.clBlocked) > 0 && s.clBlocked[cluster.PGOf(h, m.PGs)]) || !m.Owns(name, h) {
			s.clMu.RUnlock()
			s.wrongEpoch.Add(1)
			return m.Epoch, true
		}
	}
	s.clMu.RUnlock()
	return 0, false
}

// guard is Server seen through the protocol core's placement seam
// (server.Guard). A distinct type so the three hooks do not join Server's
// exported method set.
type guard Server

// Gate is the read side of opGate: every mutating request holds it across
// ownership check, apply and dirty-note.
func (g *guard) Gate() sync.Locker { return g.opGate.RLocker() }

func (g *guard) Unowned(keys [][]byte) (uint64, bool) { return (*Server)(g).unowned(keys) }

// Applied notes key dirty for a running migration and, for a DELETE,
// mirrors the tombstone: false means it is not quorum-durable, so the
// DELETE must not be acknowledged — a crash of this primary now must not
// resurrect an acked delete.
func (g *guard) Applied(h any, eng *store.Engine, key []byte, del bool) bool {
	s := (*Server)(g)
	s.noteDirty(key)
	return !del || s.mirrorDelete(h, eng, key)
}

// migTracker records keys mutated while a migration is copying their
// placement group, so drain rounds can re-copy exactly what changed.
type migTracker struct {
	accept func(hash uint64) bool
	mu     sync.Mutex
	dirty  map[string]struct{}
}

// note records a mutated key if it belongs to the migrating PG.
func (t *migTracker) note(key []byte) {
	if !t.accept(kv.HashKey(key)) {
		return
	}
	t.mu.Lock()
	t.dirty[string(key)] = struct{}{}
	t.mu.Unlock()
}

// take swaps the dirty set out, leaving an empty one behind.
func (t *migTracker) take() map[string]struct{} {
	t.mu.Lock()
	d := t.dirty
	t.dirty = make(map[string]struct{})
	t.mu.Unlock()
	return d
}

// noteDirty is the write-path hook: one atomic load when no migration
// is running, one map insert when the key is in the PG being moved.
func (s *Server) noteDirty(key []byte) {
	if t := s.mig.Load(); t != nil {
		t.note(key)
	}
}

// handleClusterMap answers TClusterMap with the current map (StError
// when clustering is off — pre-cluster servers answer the same way via
// handle's default arm, so clients can't tell the difference).
func (s *Server) handleClusterMap() wire.Msg {
	m := s.ClusterMap()
	if m == nil {
		return wire.Msg{Type: wire.TClusterMapResp, Status: wire.StError}
	}
	return wire.Msg{Type: wire.TClusterMapResp, Status: wire.StOK, Token: uint32(m.Epoch), Value: m.Encode()}
}

// handleClusterMapSet adopts the offered map if strictly newer; the
// response Token carries the epoch the server ended at either way.
func (s *Server) handleClusterMapSet(m wire.Msg) wire.Msg {
	nm, err := cluster.DecodeMap(m.Value)
	if err != nil {
		return wire.Msg{Type: wire.TClusterMapSetResp, Status: wire.StError}
	}
	ep := s.SetClusterMap(nm)
	return wire.Msg{Type: wire.TClusterMapSetResp, Status: wire.StOK, Token: uint32(ep)}
}

// handleJoin admits a new instance: epoch+1 map with the joiner added
// (owning nothing), pushed best-effort to the other instances, returned
// to the joiner in the response.
func (s *Server) handleJoin(m wire.Msg) wire.Msg {
	name, addr := string(m.Key), string(m.Value)
	if name == "" || addr == "" {
		return wire.Msg{Type: wire.TJoinResp, Status: wire.StError}
	}
	s.clMu.Lock()
	if s.clMap == nil {
		s.clMu.Unlock()
		return wire.Msg{Type: wire.TJoinResp, Status: wire.StError}
	}
	nm := s.clMap.WithInstance(name, addr)
	s.clMap = nm
	s.clMu.Unlock()
	s.st.Metrics().SetEpoch(nm.Epoch)
	s.pushMapToPeers(nm, name)
	if nm.ReplicationFactor >= 2 {
		// Attach the joiner as a backup to under-replicated PGs this
		// instance primaries. Asynchronous: the joiner needs its join
		// response (and its listener) before it can ingest a snapshot.
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.replAttach(name)
		}()
	}
	return wire.Msg{Type: wire.TJoinResp, Status: wire.StOK, Token: uint32(nm.Epoch), Value: nm.Encode()}
}

// pushMapToPeers offers nm to every other instance (best effort: a peer
// that is down learns the epoch from its clients' traffic instead —
// wrong-epoch redirects carry it). skip names an instance that gets the
// map by another channel (a joiner via its response, a migration target
// via the cutover push).
func (s *Server) pushMapToPeers(nm *cluster.Map, skip string) {
	s.clMu.RLock()
	self := s.clName
	s.clMu.RUnlock()
	for _, in := range nm.Instances {
		if in.Name == self || in.Name == skip {
			continue
		}
		if c, err := Dial(in.Addr); err == nil {
			c.SetClusterMapRPC(nm)
			c.Close()
		}
	}
}

// handleMigIngest imports a batch of exported keys into the local
// shards. Ownership checks deliberately do not apply: the target of a
// migration ingests a placement group it does not own yet.
func (s *Server) handleMigIngest(m wire.Msg) wire.Msg {
	batch, err := decodeExportBatch(m.Value)
	if err != nil {
		return wire.Msg{Type: wire.TMigIngestResp, Status: wire.StError}
	}
	for _, ek := range batch {
		eng := s.st.Shard(cluster.ShardFor(ek.Key, s.st.NumShards()))
		if eng.ImportKey(nil, ek) != store.StatusOK {
			return wire.Msg{Type: wire.TMigIngestResp, Status: wire.StFull}
		}
	}
	return wire.Msg{Type: wire.TMigIngestResp, Status: wire.StOK}
}

// registerClusterMetrics exposes the placement layer's migration
// counters through the store's telemetry registry, once per server
// however often it is named (Join names a server a test helper may have
// named already). The epoch gauge and wrong-epoch reject counter are
// first-class: NewServer registers them on every server, clustered or
// not.
func (s *Server) registerClusterMetrics() {
	s.clMetrics.Do(s.addClusterMetrics)
}

func (s *Server) addClusterMetrics() {
	reg := s.st.Metrics()
	lbl := map[string]string{"role": "server"}
	reg.AddCounter("efactory_cluster_migration_keys_total",
		"Keys copied out by migrations this instance sourced.", lbl,
		func() float64 { return float64(s.migKeysMoved.Load()) })
	reg.AddCounter("efactory_cluster_migrations_total",
		"Migrations this instance completed as the source.", lbl,
		func() float64 { return float64(s.migDone.Load()) })
	reg.AddGauge("efactory_repl_lag",
		"Mirror appends currently awaiting backup acks.", lbl,
		func() float64 { return float64(s.replPending.Load()) })
	reg.AddCounter("efactory_repl_appends_total",
		"Replicated commit records shipped to backups.", lbl,
		func() float64 { return float64(s.replAppends.Load()) })
	reg.AddCounter("efactory_repl_append_failures_total",
		"Mirror appends that failed at the transport (each demotes the backup).", lbl,
		func() float64 { return float64(s.replFailures.Load()) })
	reg.AddCounter("efactory_repl_demotions_total",
		"Backups dropped from replica sets after append failures.", lbl,
		func() float64 { return float64(s.replDemotions.Load()) })
	reg.AddCounter("efactory_repl_promotions_total",
		"Failover promotions completed on this instance.", lbl,
		func() float64 { return float64(s.replPromotions.Load()) })
	reg.AddCounter("efactory_repl_ingested_total",
		"Replicated commit records ingested as a backup.", lbl,
		func() float64 { return float64(s.replIngested.Load()) })
}

// decodeExportBatch parses a TMigIngest payload. The concrete type
// lives in internal/store (ExportKey); JSON keeps the wire layer free
// of a second hand-rolled codec for a control-plane path whose cost is
// dominated by the value bytes either way.
func decodeExportBatch(b []byte) ([]store.ExportKey, error) {
	var batch []store.ExportKey
	if err := json.Unmarshal(b, &batch); err != nil {
		return nil, err
	}
	return batch, nil
}
