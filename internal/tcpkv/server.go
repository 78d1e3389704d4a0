// Package tcpkv runs the eFactory protocol over real TCP, giving the
// library a deployable network mode (cmd/efactory-server and
// cmd/efactory-cli). The storage logic — hash table, dual log pools,
// version chains, durability flags, background verification, two-stage
// log cleaning, and crash recovery — lives in the shared sharded engine
// (internal/store), driven here on real goroutines with real locks and
// the wall clock — and the request handling in the shared protocol core
// (internal/server); this package is the TCP transport binding. RDMA
// semantics are emulated faithfully:
//
//   - One-sided READ/WRITE frames are served by a dedicated engine
//     goroutine per connection that touches the device directly, never the
//     request loop — like an RNIC bypassing the host CPU. Racing reads can
//     observe torn objects, exactly as over real RDMA; the durability flag
//     and CRC machinery handle it.
//   - PUT acknowledges before durability (client-active scheme with
//     asynchronous durability); a background goroutine per shard verifies
//     and persists, setting the durability flag.
//   - GET uses the hybrid read scheme: one-sided entry + object reads,
//     falling back to an RPC when the fetched object is not durable.
//   - Log cleaning (§4.4) runs the two-stage compress/merge protocol over
//     two data pools per shard, triggered by a free-space threshold.
//
// With Config.Shards > 1 the keyspace splits over independent engine
// shards — each with its own table region, pool pair, verifier goroutine,
// and cleaner — giving real multicore parallelism; clients route by the
// same key-hash split (cluster.ShardOf). Shard s's regions are addressed as
// rkeys 1+3*s (table) and 2+3*s, 3+3*s (pools), so a single-shard server
// keeps the legacy rkeys 1, 2, 3.
//
// Unlike the simulation transport, clients are not push-notified when
// cleaning starts, and they ignore the wire.NoteCleaning that responses
// still carry (set by the core from the shards a request addressed). They
// do not need it for consistency: mid-clean an entry names two locations,
// and the client core never serves such an entry one-sidedly — which of
// the two holds the key's newest version is the server's head rule to
// decide. The simulator keeps the paper's notification (§4.4: every read
// takes the RPC path while cleaning), which is what Figure 11 measures.
//
// Backed by an nvm.FileBacked device the store survives process restarts:
// on startup each shard recovers by walking version lists and restoring
// the newest intact version of every key, as efactory.Recover does in
// simulation mode.
package tcpkv

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"efactory/internal/cluster"
	"efactory/internal/fault"
	"efactory/internal/kv"
	"efactory/internal/nvm"
	"efactory/internal/obs"
	"efactory/internal/server"
	"efactory/internal/store"
	"efactory/internal/trace"
	"efactory/internal/txn"
	"efactory/internal/wire"
)

// Channel bytes sent as the first byte of each TCP connection. 0x01 was
// the retired blocking RPC channel; a peer announcing it is disconnected.
const (
	chanOneSided = 0x02
	// chanRPCPipe is the pipelined RPC channel: every frame carries a
	// 4-byte sequence tag ahead of the wire message, and responses may
	// return out of order, so one connection can hold many RPCs in flight.
	chanRPCPipe = 0x03
)

// DefaultPipelineWorkers bounds how many of one pipelined connection's
// requests the server processes concurrently when Config.PipelineWorkers
// is zero.
const DefaultPipelineWorkers = 4

// DefaultMaxGetBatch caps the ops per TGetBatch or TTxnRead request when
// Config.MaxGetBatch is zero.
const DefaultMaxGetBatch = server.DefaultMaxOps

// One-sided opcodes.
const (
	opRead  = 0x01
	opWrite = 0x02
)

// Region keys for shard 0 (and pre-sharding servers): the hash table plus
// one rkey per data pool. Shard s adds 3*s to each.
const (
	rkeyTable    = 1
	rkeyPoolBase = 2
)

// rkeysPerShard is the stride between consecutive shards' rkey blocks
// (table + two pools).
const rkeysPerShard = 3

// Config sizes a TCP server.
type Config struct {
	Buckets  int // hash buckets PER SHARD
	PoolSize int // capacity of EACH of the two data pools (per shard)
	// Shards splits the keyspace over independent engine shards. 0 or 1
	// gives the classic single-engine behavior and device layout.
	Shards int
	// VerifyTimeout bounds how long an incomplete write may stay pending
	// before being invalidated.
	VerifyTimeout time.Duration
	// BGInterval is the background verifier's idle poll period.
	BGInterval time.Duration
	// CleanThreshold triggers log cleaning when the working pool's free
	// fraction drops below it. Zero disables automatic cleaning.
	CleanThreshold float64
	// BGBatch caps how many contiguous objects each shard's background
	// verifier may coalesce into one group-verified, group-flushed run
	// (store.Engine.BGBatch); the effective size adapts to the shard's
	// durability lag, up to this cap. 0 or 1 keeps the classic
	// one-object-per-step BGStep path.
	BGBatch int
	// PipelineWorkers bounds how many of one pipelined connection's
	// requests the server processes concurrently. 0 means
	// DefaultPipelineWorkers.
	PipelineWorkers int
	// MaxGetBatch caps how many ops one TGetBatch or TTxnRead request may
	// carry; larger batches are rejected with StError. 0 means
	// DefaultMaxGetBatch.
	MaxGetBatch int
	// Replicas is the copies-per-PG target (primary included) a clustered
	// server seeds its map with: joining instances are attached as backups
	// until every PG has this many copies, and every durability flag
	// becomes a quorum commit across the replica set. 0 or 1 disables
	// replication (single-copy behavior, bit-identical to pre-replication
	// servers).
	Replicas int
	// FaultPlan, when non-nil, wires the crash-point injection subsystem
	// (internal/fault): the device and the engines' cost sink are wrapped
	// so every cost charge and every flush/drain counts a boundary, and
	// once the plan trips the device drops all further mutations — the
	// persisted image is frozen exactly as a power failure at that
	// boundary would leave it. Torture harnesses only.
	FaultPlan *fault.Plan
	// NetFaults, when non-nil, injects network faults: response-frame
	// drops (optionally leaking a truncated prefix) on the RPC channel and
	// stalls on one-sided reads. Exercises client retry/timeout logic.
	NetFaults *fault.NetPlan
}

// DefaultConfig returns a small, usable configuration.
func DefaultConfig() Config {
	return Config{
		Buckets:        16384,
		PoolSize:       64 << 20,
		VerifyTimeout:  50 * time.Millisecond,
		BGInterval:     200 * time.Microsecond,
		CleanThreshold: 0.15,
	}
}

func (c Config) storeConfig() store.Config {
	return store.Config{
		Shards:         c.Shards,
		Buckets:        c.Buckets,
		PoolSize:       c.PoolSize,
		VerifyTimeout:  c.VerifyTimeout,
		CleanThreshold: c.CleanThreshold,
	}
}

// Layout returns the device layout cfg implies.
func (c Config) Layout() kv.Layout { return c.storeConfig().Layout() }

// DeviceSize returns the device capacity cfg requires.
func (c Config) DeviceSize() int { return c.Layout().DeviceSize() }

// Stats counts server events; it is the shared engine's counter set, so
// the JSON stats blob keeps its field names from before the extraction.
type Stats = store.Stats

// Server is a TCP-mode eFactory server.
type Server struct {
	cfg    Config
	dev    nvm.Device
	st     *store.Store
	txn    *txn.Manager
	core   *server.Core
	layout kv.Layout

	closing   chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
	ln        net.Listener
	connMu    sync.Mutex
	conns     map[net.Conn]struct{}

	// Cluster placement state (see cluster.go). A nil clMap disables the
	// layer entirely: no ownership checks, wire behavior bit-identical to
	// a pre-cluster server.
	clMu      sync.RWMutex
	clName    string       // instance identity ("" = unclustered)
	clSelf    string       // advertised address of this instance
	clMap     *cluster.Map // authoritative ownership; nil = disabled
	clBlocked map[int]bool // PGs refusing routed ops mid-cutover
	clMetrics sync.Once    // cluster counters registered

	// mig points at the active migration's dirty-key tracker (nil when no
	// migration is running); migOne serializes migrations per source.
	mig    atomic.Pointer[migTracker]
	migOne sync.Mutex

	// migCrash, when non-nil, is consulted at each migration protocol
	// checkpoint; returning true aborts the migration there, leaving
	// whatever state the crash point implies. Torture harnesses use it to
	// model the source process dying mid-drain or mid-cutover.
	migCrash func(point string) bool

	// opGate orders mutating RPC ops against a migration's cutover: each
	// mutating handler holds the read side across ownership check, engine
	// apply, and dirty-note, and the migration takes the write side once
	// (a barrier) right after blocking the PG — so an op that passed the
	// check before the block is guaranteed to have applied AND landed in
	// the dirty set before the final drain exports it. Without this an
	// acked write could slip between the last export and the purge.
	opGate sync.RWMutex

	wrongEpoch   atomic.Uint64 // routed ops rejected with StWrongEpoch
	migKeysMoved atomic.Uint64 // keys copied out by sourced migrations
	migDone      atomic.Uint64 // migrations completed as the source

	// Replication state (see repl.go). replPeers holds one ordered append
	// channel per backup this primary mirrors to; replDemoteMu serializes
	// replica-set shrinks so concurrent verifier goroutines cannot revive
	// each other's demotion with a stale base map.
	replMu       sync.Mutex
	replPeers    map[string]*replPeer
	replDemoteMu sync.Mutex
	// replCrash, when non-nil, is consulted at each replication protocol
	// point; returning true makes the protocol behave as if the process
	// died there. Failover torture harnesses only.
	replCrash      func(point string) bool
	replPending    atomic.Int64  // mirror appends awaiting backup acks
	replAppends    atomic.Uint64 // records shipped to backups
	replFailures   atomic.Uint64 // append transport failures
	replDemotions  atomic.Uint64 // backups dropped from replica sets
	replPromotions atomic.Uint64 // promotions completed on this instance
	replIngested   atomic.Uint64 // records ingested as a backup

	// tracer retains the server-side spans of traced requests (frames
	// whose trailer carries a client-minted trace ID) and of migration
	// runs. Served at /debug/slow and over TTraceDump.
	tracer *trace.Tracer
}

// NewServer builds a server over dev, recovering any existing state (a
// reopened file-backed device). The caller owns dev's lifetime.
func NewServer(dev nvm.Device, cfg Config) (*Server, error) {
	if cfg.Buckets <= 0 || cfg.PoolSize <= 0 {
		return nil, errors.New("tcpkv: invalid config")
	}
	if cfg.VerifyTimeout == 0 {
		cfg.VerifyTimeout = DefaultConfig().VerifyTimeout
	}
	if cfg.BGInterval == 0 {
		cfg.BGInterval = DefaultConfig().BGInterval
	}
	if dev.Size() < cfg.DeviceSize() {
		return nil, fmt.Errorf("tcpkv: device %d B smaller than config needs (%d B)", dev.Size(), cfg.DeviceSize())
	}
	if cfg.FaultPlan != nil {
		// All device traffic — engine mutations, flushes, and the
		// one-sided channel — goes through the fault wrapper, so a tripped
		// plan freezes the persisted image even against in-flight value
		// writes, exactly as a process crash would.
		dev = fault.WrapDevice(dev, cfg.FaultPlan)
	}
	s := &Server{
		cfg:     cfg,
		dev:     dev,
		closing: make(chan struct{}),
		conns:   make(map[net.Conn]struct{}),
		// Servers never head-sample: they trace exactly the requests whose
		// frames carry an ID, and retain all of them (threshold 0).
		tracer: trace.NewTracer(0, 0),
	}
	deps := store.Deps{
		Spawn: func(name string, fn func(h any)) {
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				fn(nil)
			}()
		},
		CleanerWait: func(h any) bool {
			select {
			case <-s.closing:
				return false
			case <-time.After(cfg.BGInterval):
				return true
			}
		},
		// Every durability flag is a quorum commit when the key's PG
		// carries backups; with no cluster map (or no backups) the
		// MirrorNeeded fast path keeps the flag set under the engine lock,
		// bit-identical to an unreplicated server.
		Mirror:       s.replMirror,
		MirrorNeeded: s.replicatedPG,
	}
	if cfg.FaultPlan != nil {
		// Every engine cost charge becomes a crash boundary; the wall
		// clock (a nil inner sink) keeps timing behavior unchanged.
		deps.Sink = fault.WrapSink(cfg.FaultPlan, nil)
	}
	st, _, err := store.New(dev, cfg.storeConfig(), deps)
	if err != nil {
		return nil, fmt.Errorf("tcpkv: %w", err)
	}
	s.st = st
	// nil lock = a real mutex: TCP handlers run on concurrent goroutines,
	// so the transaction layer's commit/snapshot critical sections need
	// actual mutual exclusion (unlike the cooperative simulation).
	s.txn = txn.NewManager(st, nil)
	s.layout = st.Layout()
	pools := make([][2]uint32, st.NumShards())
	for sh := range pools {
		_, poolBase := shardRKeys(sh)
		pools[sh] = [2]uint32{poolBase, poolBase + 1}
	}
	s.core = server.New(s.txn, pools, cfg.MaxGetBatch, (*guard)(s))
	// Cluster state is first-class telemetry even on an unclustered
	// server: epoch 0 / zero rejects say "placement layer idle" instead
	// of the series not existing.
	reg := st.Metrics()
	reg.AddGauge("efactory_cluster_epoch", "Current cluster-map epoch (0 = no map installed).", nil,
		func() float64 {
			if m := s.ClusterMap(); m != nil {
				return float64(m.Epoch)
			}
			return 0
		})
	reg.AddCounter("efactory_wrong_epoch_rejects_total",
		"Routed ops rejected with StWrongEpoch (key outside owned placement groups, or PG blocked mid-cutover).", nil,
		func() float64 { return float64(s.wrongEpoch.Load()) })
	for i := 0; i < st.NumShards(); i++ {
		s.wg.Add(1)
		go s.background(st.Shard(i))
	}
	return s, nil
}

// Store exposes the sharded storage engine (tests and tooling).
func (s *Server) Store() *store.Store { return s.st }

// Stats returns an aggregate snapshot of the server counters.
func (s *Server) Stats() Stats { return s.st.StatsTotal() }

// ShardStats returns per-shard counters.
func (s *Server) ShardStats() []Stats { return s.st.ShardStats() }

// Metrics returns the engine's telemetry registry (histograms, gauges,
// counters, trace ring). Serve it over HTTP with obs.Handler.
func (s *Server) Metrics() *obs.Registry { return s.st.Metrics() }

// Tracer returns the server's retained-span store: server-side spans of
// every traced request plus migration-phase spans. Serve it over HTTP
// with trace.Tracer.ServeSlow.
func (s *Server) Tracer() *trace.Tracer { return s.tracer }

// Cleaning reports whether log cleaning is in progress on any shard.
func (s *Server) Cleaning() bool { return s.st.Cleaning() }

// StartCleaning triggers a cleaning run on every shard not already
// cleaning; it reports whether at least one run started.
func (s *Server) StartCleaning() bool { return s.st.StartCleaning() }

// Serve accepts and serves connections until Close.
func (s *Server) Serve(ln net.Listener) error {
	s.connMu.Lock()
	s.ln = ln
	s.connMu.Unlock()
	select {
	case <-s.closing:
		// Close ran before it could see the listener; finish its job.
		ln.Close()
		return nil
	default:
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-s.closing:
				return nil
			default:
				return err
			}
		}
		// Decide "closing?" and Add under the lock Close holds before it
		// waits: an Add racing Wait breaks the WaitGroup contract, and a
		// connection registered after Close swept conns would never be
		// disconnected.
		s.connMu.Lock()
		select {
		case <-s.closing:
			s.connMu.Unlock()
			conn.Close()
			return nil
		default:
		}
		s.wg.Add(1)
		s.conns[conn] = struct{}{}
		s.connMu.Unlock()
		go s.serveConn(conn)
	}
}

// ListenAndServe listens on addr and serves.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Close stops the server, disconnects every client, and waits for its
// goroutines. Close is idempotent.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		close(s.closing)
		s.st.Stop()
		s.connMu.Lock()
		if s.ln != nil {
			s.ln.Close()
		}
		for conn := range s.conns {
			conn.Close()
		}
		s.connMu.Unlock()
		s.replMu.Lock()
		for _, p := range s.replPeers {
			// Close without taking p.mu: an in-flight append must error
			// out rather than park Close behind a peer round trip.
			if c := p.c.Swap(nil); c != nil {
				c.Close()
			}
		}
		s.replMu.Unlock()
	})
	s.wg.Wait()
	return nil
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	defer func() {
		s.connMu.Lock()
		delete(s.conns, conn)
		s.connMu.Unlock()
	}()
	var kind [1]byte
	if _, err := io.ReadFull(conn, kind[:]); err != nil {
		return
	}
	switch kind[0] {
	case chanRPCPipe:
		s.servePipelined(conn)
	case chanOneSided:
		s.serveOneSided(conn)
	}
}

// readFrameInto receives one length-prefixed frame into buf's backing
// array (growing it when too small), so sequential receive loops reuse
// one buffer once it has seen their peak frame size. The returned slice
// aliases buf's backing; callers pass it back on the next call.
func readFrameInto(conn net.Conn, buf []byte) ([]byte, error) {
	// The length prefix is staged in the destination buffer rather than a
	// local array: a local would escape through the net.Conn interface
	// and cost a heap allocation per frame.
	if cap(buf) < 4 {
		buf = make([]byte, 0, 4096)
	}
	hdr := buf[:4]
	if _, err := io.ReadFull(conn, hdr); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n > 64<<20 {
		return nil, fmt.Errorf("tcpkv: oversized frame (%d bytes)", n)
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(conn, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// frameBufPool recycles request-frame buffers on the pipelined channel,
// where frame ownership passes from the read loop to a worker (so a
// single per-connection buffer cannot be reused in place).
var frameBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// servePipelined is the sequence-tagged RPC channel: one connection
// carries many requests in flight at once. Each frame's payload is a
// 4-byte big-endian sequence number followed by the wire message; the
// response echoes the sequence so the client can demultiplex completions
// that return out of order. Requests are handled by a bounded worker pool
// (Config.PipelineWorkers) and responses are written under a per-connection
// mutex so frames never interleave.
func (s *Server) servePipelined(conn net.Conn) {
	workers := s.cfg.PipelineWorkers
	if workers <= 0 {
		workers = DefaultPipelineWorkers
	}
	// Persistent workers instead of a goroutine per request: the spawn,
	// its closure, and its response buffer were three allocations per op
	// on the hot path. Each worker owns a core scratch and a response
	// frame buffer for its connection lifetime; request frames come from
	// frameBufPool and go back once the response is encoded.
	jobs := make(chan pipeJob, workers)
	var (
		wmu sync.Mutex
		wg  sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			var sc server.Scratch
			out := make([]byte, 0, 4096)
			var zero [8]byte
			for job := range jobs {
				resp := s.handle(job.m, &sc)
				// Frame: 4-byte length + 4-byte seq echo + message.
				out = append(out[:0], zero[:]...)
				out = resp.AppendEncode(out)
				binary.BigEndian.PutUint32(out, uint32(len(out)-4))
				binary.BigEndian.PutUint32(out[4:], job.seq)
				// The response no longer references the request frame
				// (AppendEncode copied any aliased key/value bytes).
				*job.raw = (*job.raw)[:0]
				frameBufPool.Put(job.raw)
				wmu.Lock()
				if drop, partial := s.cfg.NetFaults.NextFrame(); drop {
					// The op was applied; only its response is lost. Cut
					// the connection so the client fails everything in
					// flight over to a fresh one.
					if partial {
						conn.Write(out[:4+(len(out)-4+1)/2])
					}
					conn.Close()
				} else if _, err := conn.Write(out); err != nil {
					conn.Close()
				}
				wmu.Unlock()
			}
		}()
	}
	defer wg.Wait() // workers finish before serveConn closes the socket
	defer close(jobs)
	for {
		bp := frameBufPool.Get().(*[]byte)
		raw, err := readFrameInto(conn, *bp)
		if err != nil {
			frameBufPool.Put(bp)
			return
		}
		*bp = raw[:0] // keep any growth in the pooled backing
		if len(raw) < 4 {
			frameBufPool.Put(bp)
			return
		}
		seq := binary.BigEndian.Uint32(raw)
		m, err := wire.Decode(raw[4:])
		if err != nil {
			frameBufPool.Put(bp)
			return
		}
		jobs <- pipeJob{seq: seq, m: m, raw: bp}
	}
}

// pipeJob hands one decoded pipelined request from the read loop to a
// worker. m's Key/Value alias raw's backing; the worker returns raw to
// frameBufPool after encoding the response.
type pipeJob struct {
	seq uint32
	m   wire.Msg
	raw *[]byte
}

// serveOneSided is the RNIC-emulation channel: READ/WRITE frames touch the
// device directly, bypassing the request loop.
func (s *Server) serveOneSided(conn net.Conn) {
	// One-sided frames are strictly sequential per connection, so one
	// request buffer and one response buffer serve the whole session.
	var (
		raw []byte
		out = make([]byte, 0, 4096)
		err error
	)
	// Pre-framed single-status replies (4-byte length prefix + 1 byte).
	ack := [5]byte{0, 0, 0, 1, 1}
	nak := [5]byte{0, 0, 0, 1, 0}
	for {
		raw, err = readFrameInto(conn, raw)
		if err != nil {
			return
		}
		if len(raw) < 17 {
			return
		}
		op := raw[0]
		rkey := binary.BigEndian.Uint32(raw[1:])
		off := int(binary.BigEndian.Uint64(raw[5:]))
		length := int(binary.BigEndian.Uint32(raw[13:]))
		base, size, ok := s.region(rkey)
		// Compared without adding: off+length wraps for an offset near the
		// top of the int range, and the sum would pass as in-bounds.
		if !ok || off < 0 || length < 0 || off > size || length > size-off {
			conn.Write(nak[:])
			continue
		}
		switch op {
		case opRead:
			if d := s.cfg.NetFaults.NextRead(); d > 0 {
				time.Sleep(d) // a stalled RNIC read completion
			}
			// Frame: 4-byte length + status + data, one Write.
			if cap(out) < 5+length {
				out = make([]byte, 0, 5+length)
			}
			out = out[:5+length]
			binary.BigEndian.PutUint32(out, uint32(1+length))
			out[4] = 1
			s.dev.Read(base+off, out[5:])
			if _, err := conn.Write(out); err != nil {
				return
			}
		case opWrite:
			data := raw[17:]
			if len(data) != length {
				conn.Write(nak[:])
				continue
			}
			s.dev.Write(base+off, data)
			if _, err := conn.Write(ack[:]); err != nil {
				return
			}
		default:
			return
		}
	}
}

// region resolves an rkey to a device window. Shard s's table is rkey
// 1+3*s; its pools are 2+3*s and 3+3*s.
func (s *Server) region(rkey uint32) (base, size int, ok bool) {
	if rkey < rkeyTable {
		return 0, 0, false
	}
	id := int(rkey - rkeyTable)
	shard := id / rkeysPerShard
	r := id % rkeysPerShard
	if shard >= s.layout.Shards {
		return 0, 0, false
	}
	if r == 0 {
		return s.layout.TableBase(shard), s.layout.TableBytesAligned(), true
	}
	return s.layout.PoolBase(shard, r-1), s.layout.PoolSize, true
}

// shardRKeys returns the table rkey and pool rkey base for shard sh.
func shardRKeys(sh int) (table, poolBase uint32) {
	return uint32(rkeyTable + rkeysPerShard*sh), uint32(rkeyPoolBase + rkeysPerShard*sh)
}

// handle processes one RPC, opening a server-side root span when the
// request frame carried a trace ID.
func (s *Server) handle(m wire.Msg, sc *server.Scratch) wire.Msg {
	tc := trace.NewCtx(m.Trace)
	if tc == nil {
		return s.dispatch(nil, m, sc)
	}
	t0 := uint64(time.Now().UnixNano())
	tc.Root("server_"+server.OpName(m.Type), t0, 0)
	if len(m.Key) > 0 {
		tc.SetRoot(0, "", kv.HashKey(m.Key))
	}
	resp := s.dispatch(trace.Wrap(nil, tc), m, sc)
	end := uint64(time.Now().UnixNano())
	outcome := "ok"
	switch resp.Status {
	case wire.StWrongEpoch:
		outcome = "wrong_epoch"
		tc.Mark("wrong_epoch")
	case wire.StError:
		outcome = "error"
		tc.Mark("error")
	}
	if s.mig.Load() != nil {
		tc.Mark("migration")
	}
	tc.SetRoot(end, outcome, 0)
	s.clMu.RLock()
	name := s.clName
	var epoch uint64
	if s.clMap != nil {
		epoch = s.clMap.Epoch
	}
	s.clMu.RUnlock()
	if name == "" {
		name = "server"
	}
	tc.Stamp(name, epoch)
	s.tracer.Submit(tc, end-t0)
	return resp
}

// dispatch routes one RPC: the seven data-plane requests to the protocol
// core, everything else to this transport's control plane. h is the
// engine handle (nil, or trace-wrapped for traced requests), sc the
// calling worker's reusable buffers.
func (s *Server) dispatch(h any, m wire.Msg, sc *server.Scratch) wire.Msg {
	if resp, ok := s.core.Handle(h, m, sc); ok {
		return resp
	}
	switch m.Type {
	case wire.THello:
		return wire.Msg{
			Type: wire.THelloResp, Status: wire.StOK,
			RKey: rkeyTable, Token: rkeyPoolBase,
			Len: uint64(s.cfg.Buckets), Off: uint64(s.layout.Shards),
		}
	case wire.TStats:
		blob, err := json.Marshal(s.Stats())
		if err != nil {
			return wire.Msg{Type: wire.TStatsResp, Status: wire.StError}
		}
		return wire.Msg{Type: wire.TStatsResp, Status: wire.StOK, Value: blob}
	case wire.TShardStats:
		blob, err := json.Marshal(s.ShardStats())
		if err != nil {
			return wire.Msg{Type: wire.TShardStatsResp, Status: wire.StError}
		}
		return wire.Msg{Type: wire.TShardStatsResp, Status: wire.StOK, Value: blob}
	case wire.TMetrics:
		blob, err := json.Marshal(s.Metrics().Snapshot())
		if err != nil {
			return wire.Msg{Type: wire.TMetricsResp, Status: wire.StError}
		}
		return wire.Msg{Type: wire.TMetricsResp, Status: wire.StOK, Value: blob}
	case wire.TClusterMap:
		return s.handleClusterMap()
	case wire.TClusterMapSet:
		return s.handleClusterMapSet(m)
	case wire.TJoin:
		return s.handleJoin(m)
	case wire.TMigrate:
		return s.handleMigrate(m)
	case wire.TMigIngest:
		return s.handleMigIngest(m)
	case wire.TReplAppend:
		return s.handleReplAppend(m)
	case wire.TReplPull:
		return s.handleReplPull(m)
	case wire.TPromote:
		return s.handlePromote(m)
	case wire.TTraceDump:
		blob, err := json.Marshal(s.tracer.Dump(m.Off))
		if err != nil {
			return wire.Msg{Type: wire.TTraceDumpResp, Status: wire.StError}
		}
		return wire.Msg{Type: wire.TTraceDumpResp, Status: wire.StOK, Value: blob}
	}
	return wire.Msg{Type: m.Type + 1, Status: wire.StError}
}

// Txn exposes the server's transaction manager (tests and tooling).
func (s *Server) Txn() *txn.Manager { return s.txn }

// background drives one shard's verification-and-persisting thread
// (§4.3.2) in real time: on every tick, run the verifier to a standstill.
func (s *Server) background(eng *store.Engine) {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.BGInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.closing:
			return
		case <-ticker.C:
		}
		eng.BGDrain(nil, s.cfg.BGBatch)
	}
}
