package efactory

import (
	"sync"
	"time"

	"efactory/internal/client"
	"efactory/internal/fault"
	"efactory/internal/kv"
	"efactory/internal/model"
	"efactory/internal/nvm"
	"efactory/internal/obs"
	"efactory/internal/rnic"
	"efactory/internal/server"
	"efactory/internal/sim"
	"efactory/internal/store"
	"efactory/internal/trace"
	"efactory/internal/txn"
	"efactory/internal/wire"
)

// ServerStats counts server-side events; read it via Server.Stats after
// Env.Run for assertions and reporting.
type ServerStats struct {
	store.Stats
	ServerBusyNanos int64
}

// nopLocker is the engine lock in simulation mode: the cooperative
// scheduler runs one process at a time and the engine only yields inside
// cost charges, so mutual exclusion holds by construction (a real mutex
// would deadlock the single-threaded event loop).
type nopLocker struct{}

func (nopLocker) Lock()   {}
func (nopLocker) Unlock() {}

// simSink charges engine work as virtual time: each op maps to a
// model.Params duration and sleeps the acting process for it. Foreground
// ops are additionally accounted as server-busy time.
type simSink struct {
	env  *sim.Env
	par  *model.Params
	busy int64
}

func (k *simSink) Now() uint64 { return uint64(k.env.Now()) }

func (k *simSink) Charge(h any, op store.Op, n int) {
	var d time.Duration
	switch op {
	case store.OpLookup, store.OpBGLookup, store.OpCleanEntry:
		d = k.par.HashLookupCost
	case store.OpAlloc:
		d = k.par.AllocCost
	case store.OpGetScan, store.OpBGScan:
		d = k.par.BGScanStep
	case store.OpCRC, store.OpBGCRC:
		d = k.par.CRCTime(n)
	case store.OpFlush:
		d = k.par.FlushTime(n)
	case store.OpFlushClean:
		d = k.par.FlushCleanTime(n)
	case store.OpBGFlush:
		d = k.par.BGFlushTime(n)
	case store.OpCleanCopy:
		d = k.par.CleanMoveCost + k.par.CopyTime(n) + k.par.BGFlushTime(n)
	}
	if d == 0 {
		return
	}
	if op.Foreground() {
		k.busy += int64(d)
	}
	proc(h).Sleep(d)
}

// proc recovers the acting simulation process from an engine handle,
// which may be wrapped with a trace context (trace.H) on traced
// requests.
func proc(h any) *sim.Proc {
	ph, _ := trace.Unwrap(h)
	return ph.(*sim.Proc)
}

// Server is the eFactory server node: NVM device, the sharded storage
// engine (internal/store), per-shard memory regions, request workers, and
// one background verification process per shard. All storage logic lives
// in the engine and all request handling in the protocol core
// (internal/server); this type is the simulation transport binding.
type Server struct {
	env *sim.Env
	par *model.Params
	cfg Config

	nic  *rnic.NIC
	dev  *nvm.Memory
	st   *store.Store
	txn  *txn.Manager
	core *server.Core
	sink *simSink

	tableMR []*rnic.MR
	poolMR  [][2]*rnic.MR

	srq     *sim.Queue[rnic.Message]
	clients []*rnic.Endpoint
	stopped bool

	tracer *trace.Tracer // server-side retained-span store
}

// NewServer builds a server on a fresh NVM device, registers its memory
// regions, and starts its worker and background processes in env.
func NewServer(env *sim.Env, par *model.Params, cfg Config) *Server {
	if cfg.Buckets <= 0 || cfg.PoolSize <= 0 || cfg.Workers <= 0 {
		panic("efactory: invalid config")
	}
	if cfg.VerifyTimeout == 0 {
		cfg.VerifyTimeout = par.VerifyTimeout
	}
	dev := nvm.New(cfg.DeviceSize())
	s := &Server{env: env, par: par, cfg: cfg, dev: dev}
	// The server never head-samples on its own: it traces exactly the
	// requests whose frames carry a client-minted ID, and retains every
	// one of them (threshold 0) in the bounded store.
	s.tracer = trace.NewTracer(0, 0)
	s.nic = rnic.NewNIC(env, par, "efactory-server")
	s.srq = s.nic.EnableSRQ()
	s.initStore()
	s.startProcs()
	return s
}

// initStore builds the sharded engine over the device (recovering any
// persisted state) and registers one MR per shard region.
func (s *Server) initStore() store.RecoveryStats {
	s.sink = &simSink{env: s.env, par: s.par}
	// With a fault plan, the engine sees the wrapped device and sink so
	// every flush/drain and cost charge counts a crash-point boundary; the
	// RDMA memory regions stay on the raw device (one-sided DMA lands in
	// the volatile domain until the NIC itself is crashed by the plan's
	// trip callback).
	var dev nvm.Device = s.dev
	var sink store.CostSink = s.sink
	if s.cfg.FaultPlan != nil {
		dev = fault.WrapDevice(s.dev, s.cfg.FaultPlan)
		sink = fault.WrapSink(s.cfg.FaultPlan, s.sink)
	}
	deps := store.Deps{
		Sink:    sink,
		NewLock: func() sync.Locker { return nopLocker{} },
		Spawn: func(name string, fn func(h any)) {
			s.env.Go("efactory-cleaner", func(p *sim.Proc) { fn(p) })
		},
		CleanerWait: func(h any) bool {
			proc(h).Sleep(s.par.BGIdlePoll)
			return true
		},
		OnCleanStart: func(h any) { s.broadcast(proc(h), wire.TCleanStart) },
		OnCleanEnd:   func(h any) { s.broadcast(proc(h), wire.TCleanEnd) },
	}
	st, rst, err := store.New(dev, s.cfg.storeConfig(), deps)
	if err != nil {
		panic("efactory: " + err.Error())
	}
	s.st = st
	// The commit lock is a no-op for the same reason the engine locks are:
	// the commit section never yields, so the scheduler cannot interleave
	// another process inside it.
	s.txn = txn.NewManager(st, nopLocker{})
	l := st.Layout()
	s.tableMR = make([]*rnic.MR, l.Shards)
	s.poolMR = make([][2]*rnic.MR, l.Shards)
	pools := make([][2]uint32, l.Shards)
	for sh := 0; sh < l.Shards; sh++ {
		s.tableMR[sh] = s.nic.RegisterMR(s.dev, l.TableBase(sh), l.TableBytesAligned())
		for i := 0; i < 2; i++ {
			s.poolMR[sh][i] = s.nic.RegisterMR(s.dev, l.PoolBase(sh, i), l.PoolSize)
			pools[sh][i] = s.poolMR[sh][i].RKey()
		}
	}
	// No Guard: the simulated server is unclustered.
	s.core = server.New(s.txn, pools, 0, nil)
	return rst
}

func (s *Server) startProcs() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.env.Go("efactory-worker", s.worker)
	}
	if !s.cfg.DisableBackground {
		for i := 0; i < s.st.NumShards(); i++ {
			eng := s.st.Shard(i)
			s.env.Go("efactory-bg", func(p *sim.Proc) { s.bgLoop(eng, p) })
		}
	}
}

// bgLoop drives one shard's background verification thread (§4.3.2).
func (s *Server) bgLoop(eng *store.Engine, p *sim.Proc) {
	for !s.stopped {
		eng.BGDrain(p, s.cfg.BGBatch)
		p.Sleep(s.par.BGIdlePoll)
	}
}

// Device exposes the NVM device (tests crash it; recovery reopens it).
func (s *Server) Device() *nvm.Memory { return s.dev }

// NIC exposes the server NIC (tests crash it).
func (s *Server) NIC() *rnic.NIC { return s.nic }

// Store exposes the sharded storage engine.
func (s *Server) Store() *store.Store { return s.st }

// Table exposes shard 0's hash index for tests and recovery checks.
func (s *Server) Table() *kv.Table { return s.st.Shard(0).Table() }

// Pool returns shard 0's data pool i (0 or 1).
func (s *Server) Pool(i int) *kv.Pool { return s.st.Shard(0).Pool(i) }

// CurrentPool returns the index of shard 0's current working pool.
func (s *Server) CurrentPool() int { return s.st.Shard(0).CurrentPool() }

// Cleaning reports whether log cleaning is in progress on any shard.
func (s *Server) Cleaning() bool { return s.st.Cleaning() }

// StartCleaning triggers a log-cleaning run on every shard; it reports
// whether at least one run started.
func (s *Server) StartCleaning() bool { return s.st.StartCleaning() }

// Stats returns a snapshot of the aggregated server counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{Stats: s.st.StatsTotal(), ServerBusyNanos: s.sink.busy}
}

// ShardStats returns per-shard engine counters.
func (s *Server) ShardStats() []store.Stats { return s.st.ShardStats() }

// Metrics returns the engine's telemetry registry. Under the simulator
// the histograms record virtual time: each section's span is the cost the
// CostSink charged, so the same instrumentation describes modeled
// latency here and wall-clock latency on the TCP server.
func (s *Server) Metrics() *obs.Registry { return s.st.Metrics() }

// Tracer returns the server's retained-span store: the server-side
// spans of every traced request it served.
func (s *Server) Tracer() *trace.Tracer { return s.tracer }

// Stop shuts down the server's processes (end of an experiment).
func (s *Server) Stop() {
	s.stopped = true
	s.st.Stop()
	s.srq.Close()
}

// AttachClient connects a new client NIC and returns the bound Client.
func (s *Server) AttachClient(name string) *Client {
	cnic := rnic.NewNIC(s.env, s.par, name)
	ce, se := rnic.Connect(cnic, s.nic)
	s.clients = append(s.clients, se)
	shards := make([]client.Shard, s.st.NumShards())
	for i := range shards {
		shards[i] = client.Shard{
			Table: s.tableMR[i].RKey(),
			Pool:  [2]uint32{s.poolMR[i][0].RKey(), s.poolMR[i][1].RKey()},
		}
	}
	return newClient(s.env, s.par, cnic, ce, shards, s.cfg.Buckets)
}

// busy charges d of CPU time to the worker process p and accounts it.
func (s *Server) busy(p *sim.Proc, d time.Duration) {
	s.sink.busy += int64(d)
	p.Sleep(d)
}

func (s *Server) recvCost() time.Duration {
	if s.cfg.RecvBatching {
		return s.par.RecvCostBatched
	}
	return s.par.RecvCost
}

// worker is one request-processing thread: it drains the shared receive
// queue and hands each request to the protocol core, charging the
// per-message receive, dispatch and send costs around it.
func (s *Server) worker(p *sim.Proc) {
	var sc server.Scratch
	for {
		msg, ok := s.srq.Get(p)
		if !ok {
			return
		}
		s.busy(p, s.recvCost())
		m, err := wire.Decode(msg.Data)
		if err != nil {
			continue
		}
		s.busy(p, s.par.DispatchCost)
		// A traced frame opens a server-side root span; engine calls see
		// the wrapped handle and attach their section spans to it.
		var h any = p
		tc := trace.NewCtx(m.Trace)
		t0 := uint64(s.env.Now())
		if tc != nil {
			tc.Root("server_"+server.OpName(m.Type), t0, 0)
			tc.SetRoot(0, "", kv.HashKey(m.Key))
			h = trace.Wrap(p, tc)
		}
		if resp, ok := s.core.Handle(h, m, &sc); ok {
			s.busy(p, s.par.SendCost)
			_ = msg.From.Send(p, resp.Encode())
		}
		if tc != nil {
			end := uint64(s.env.Now())
			tc.SetRoot(end, "ok", 0)
			s.tracer.Submit(tc, end-t0)
		}
	}
}

// Txn exposes the transaction manager (tests and tortures).
func (s *Server) Txn() *txn.Manager { return s.txn }

// broadcast notifies every connected client (cleaning start/end).
func (s *Server) broadcast(p *sim.Proc, typ uint8) {
	m := wire.Msg{Type: typ}
	for _, ep := range s.clients {
		s.busy(p, s.par.SendCost)
		_ = ep.Send(p, m.Encode())
	}
}
