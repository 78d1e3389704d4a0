package store

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"efactory/internal/cluster"
	"efactory/internal/kv"
	"efactory/internal/nvm"
	"efactory/internal/obs"
)

// Store composes Config.Shards engines over one device. Shard 0 of a
// single-shard store occupies exactly the legacy (pre-sharding) layout, so
// existing file-backed stores stay readable.
type Store struct {
	cfg     Config
	layout  kv.Layout
	dev     nvm.Device
	engines []*Engine
	reg     *obs.Registry
	txnMu   sync.Locker   // the commit lock (see txn.go)
	txnID   atomic.Uint64 // last transaction id handed out
}

// New carves dev into per-shard regions, builds one engine per shard, and
// recovers any persisted state (a reopened file-backed device or a crashed
// in-memory one): the commit records a crash left unapplied are replayed
// or discarded whole, then each engine repairs its shard in place. A crash
// inside New loses nothing; the next New recovers the same state. The
// caller owns dev's lifetime. A device written with N shards must be
// reopened with the same N: the layout is not self-describing.
func New(dev nvm.Device, cfg Config, deps Deps) (*Store, RecoveryStats, error) {
	if cfg.Buckets <= 0 || cfg.PoolSize <= 0 || cfg.VerifyTimeout <= 0 {
		return nil, RecoveryStats{}, errInvalidConfig
	}
	deps.fillDefaults()
	l := cfg.Layout()
	if dev.Size() < l.DeviceSize() {
		return nil, RecoveryStats{}, fmt.Errorf("store: device %d B smaller than config needs (%d B)", dev.Size(), l.DeviceSize())
	}
	s := &Store{
		cfg: cfg, layout: l, dev: dev,
		engines: make([]*Engine, l.Shards),
		reg:     obs.New("efactory", l.Shards, MetricOpNames(), traceRingCap),
		txnMu:   deps.NewLock(),
	}
	var rst RecoveryStats
	for i := range s.engines {
		s.engines[i] = newEngine(dev, cfg, deps, l, i, s.reg)
	}
	if err := s.replayTxns(&rst); err != nil {
		return nil, rst, err
	}
	for _, e := range s.engines {
		est, err := e.recover()
		rst.Add(est)
		if err != nil {
			return nil, rst, err
		}
	}
	s.registerMetrics()
	return s, rst, nil
}

// ErrRecoveryFull is New's error when recovery cannot finish for lack of
// room: neither pool can take the survivors a cut-short cleaning run left
// in the other, or the table has no slot for a replayed transaction's key.
// Recovery stops short of that write, so the image still resolves to the
// survivors it started from.
var ErrRecoveryFull = errors.New("store: recovery ran out of room")

// Metrics returns the store's telemetry registry: per-shard, per-op
// latency histograms, gauges (pool occupancy, table load, durability lag),
// counters, and the trace ring. Transports surface it over HTTP and RPC.
func (s *Store) Metrics() *obs.Registry { return s.reg }

// Layout returns the device layout.
func (s *Store) Layout() kv.Layout { return s.layout }

// NumShards returns the shard count.
func (s *Store) NumShards() int { return len(s.engines) }

// Shard returns engine i.
func (s *Store) Shard(i int) *Engine { return s.engines[i] }

// ShardFor returns the shard owning key.
func (s *Store) ShardFor(key []byte) int {
	return cluster.ShardFor(key, len(s.engines))
}

// StatsTotal aggregates every shard's counters.
func (s *Store) StatsTotal() Stats {
	var t Stats
	for _, e := range s.engines {
		t.Add(e.Stats())
	}
	return t
}

// ShardStats returns a per-shard stats snapshot.
func (s *Store) ShardStats() []Stats {
	out := make([]Stats, len(s.engines))
	for i, e := range s.engines {
		out[i] = e.Stats()
	}
	return out
}

// Cleaning reports whether any shard is cleaning.
func (s *Store) Cleaning() bool {
	for _, e := range s.engines {
		if e.Cleaning() {
			return true
		}
	}
	return false
}

// StartCleaning triggers a cleaning run on every shard not already
// cleaning; it reports whether at least one run started.
func (s *Store) StartCleaning() bool {
	started := false
	for _, e := range s.engines {
		if e.StartCleaning() {
			started = true
		}
	}
	return started
}

// Stop marks every shard stopped.
func (s *Store) Stop() {
	for _, e := range s.engines {
		e.Stop()
	}
}
