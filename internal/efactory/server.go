package efactory

import (
	"sync"
	"time"

	"efactory/internal/client"
	"efactory/internal/cluster"
	"efactory/internal/fault"
	"efactory/internal/kv"
	"efactory/internal/model"
	"efactory/internal/nvm"
	"efactory/internal/obs"
	"efactory/internal/rnic"
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
// in the engine; this type is the simulation-transport adapter.
type Server struct {
	env *sim.Env
	par *model.Params
	cfg Config

	nic  *rnic.NIC
	dev  *nvm.Memory
	st   *store.Store
	txn  *txn.Manager
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
	for sh := 0; sh < l.Shards; sh++ {
		s.tableMR[sh] = s.nic.RegisterMR(s.dev, l.TableBase(sh), l.TableBytesAligned())
		for i := 0; i < 2; i++ {
			s.poolMR[sh][i] = s.nic.RegisterMR(s.dev, l.PoolBase(sh, i), l.PoolSize)
		}
	}
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
// With BGBatch > 1 it uses the group-verified, group-flushed path, sizing
// each batch from the shard's durability lag.
func (s *Server) bgLoop(eng *store.Engine, p *sim.Proc) {
	for !s.stopped {
		progressed := false
		for pi := 0; pi < 2; pi++ {
			if s.cfg.BGBatch > 1 {
				for eng.BGBatch(p, pi, eng.AdaptiveBGBatch(s.cfg.BGBatch)) > 0 {
					progressed = true
				}
			} else {
				for eng.BGStep(p, pi) {
					progressed = true
				}
			}
		}
		if !progressed {
			p.Sleep(s.par.BGIdlePoll)
		}
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
// queue and dispatches requests to the owning shard's engine.
func (s *Server) worker(p *sim.Proc) {
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
		shard := cluster.ShardFor(m.Key, s.st.NumShards())
		eng := s.st.Shard(shard)
		// A traced frame opens a server-side root span; engine calls see
		// the wrapped handle and attach their section spans to it.
		var h any = p
		tc := trace.NewCtx(m.Trace)
		t0 := uint64(s.env.Now())
		if tc != nil {
			tc.Root("server_"+serverOpName(m.Type), t0, 0)
			tc.SetRoot(0, "", kv.HashKey(m.Key))
			h = trace.Wrap(p, tc)
		}
		switch m.Type {
		case wire.TPut:
			s.handlePut(p, h, msg.From, shard, eng, m)
		case wire.TPutBatch:
			s.handlePutBatch(p, h, msg.From, m)
		case wire.TGet:
			s.handleGet(p, h, msg.From, shard, eng, m)
		case wire.TGetBatch:
			s.handleGetBatch(p, h, msg.From, m)
		case wire.TDel:
			s.handleDel(p, h, msg.From, eng, m)
		case wire.TTxnCommit:
			s.handleTxnCommit(p, h, msg.From, m)
		case wire.TTxnRead:
			s.handleTxnRead(p, h, msg.From, m)
		}
		if tc != nil {
			end := uint64(s.env.Now())
			tc.SetRoot(end, "ok", 0)
			s.tracer.Submit(tc, end-t0)
		}
	}
}

// serverOpName names a server root span after its request type.
func serverOpName(t uint8) string {
	switch t {
	case wire.TPut:
		return "put"
	case wire.TPutBatch:
		return "put_batch"
	case wire.TGet:
		return "get"
	case wire.TGetBatch:
		return "get_batch"
	case wire.TDel:
		return "del"
	case wire.TTxnCommit:
		return "txn_commit"
	case wire.TTxnRead:
		return "txn_read"
	}
	return "op"
}

func (s *Server) reply(p *sim.Proc, to *rnic.Endpoint, eng *store.Engine, m wire.Msg) {
	if eng.Cleaning() {
		m.Note |= wire.NoteCleaning
	}
	s.busy(p, s.par.SendCost)
	_ = to.Send(p, m.Encode())
}

func (s *Server) handlePut(p *sim.Proc, h any, from *rnic.Endpoint, shard int, eng *store.Engine, m wire.Msg) {
	res := eng.Put(h, m.Key, int(m.Len), m.Crc)
	if res.Status != store.StatusOK {
		s.reply(p, from, eng, wire.Msg{Type: wire.TPutResp, Status: wire.StFull})
		return
	}
	s.reply(p, from, eng, wire.Msg{
		Type:   wire.TPutResp,
		Status: wire.StOK,
		RKey:   s.poolMR[shard][res.Pool].RKey(),
		Off:    res.Off,
		Len:    uint64(res.Len),
	})
}

// handlePutBatch allocates every op of a TPutBatch in one request: the
// per-message recv/dispatch/send costs were paid once by the caller, so
// the marginal cost of each extra op is just its engine work. Ops route
// to their owning shards individually — a batch may span shards.
func (s *Server) handlePutBatch(p *sim.Proc, h any, from *rnic.Endpoint, m wire.Msg) {
	ops, err := wire.DecodePutOps(m.Value)
	if err != nil {
		s.replyAny(p, from, wire.Msg{Type: wire.TPutBatchResp, Status: wire.StError})
		return
	}
	grants := make([]wire.PutGrant, len(ops))
	for i, op := range ops {
		shard := cluster.ShardFor(op.Key, s.st.NumShards())
		eng := s.st.Shard(shard)
		res := eng.Put(h, op.Key, op.VLen, op.Crc)
		if res.Status != store.StatusOK {
			grants[i] = wire.PutGrant{Status: wire.StFull}
			continue
		}
		grants[i] = wire.PutGrant{
			Status: wire.StOK,
			RKey:   s.poolMR[shard][res.Pool].RKey(),
			Off:    res.Off,
			Len:    uint32(res.Len),
		}
	}
	s.replyAny(p, from, wire.Msg{Type: wire.TPutBatchResp, Status: wire.StOK, Value: wire.EncodePutGrants(grants)})
}

// replyAny is reply for responses not tied to one shard: the cleaning
// note is set if any shard is mid-cleaning.
func (s *Server) replyAny(p *sim.Proc, to *rnic.Endpoint, m wire.Msg) {
	if s.st.Cleaning() {
		m.Note |= wire.NoteCleaning
	}
	s.busy(p, s.par.SendCost)
	_ = to.Send(p, m.Encode())
}

func (s *Server) handleGet(p *sim.Proc, h any, from *rnic.Endpoint, shard int, eng *store.Engine, m wire.Msg) {
	res := eng.Get(h, m.Key)
	if res.Status != store.StatusOK {
		s.reply(p, from, eng, wire.Msg{Type: wire.TGetResp, Status: wire.StNotFound})
		return
	}
	s.reply(p, from, eng, wire.Msg{
		Type:   wire.TGetResp,
		Status: wire.StOK,
		RKey:   s.poolMR[shard][res.Pool].RKey(),
		Off:    res.Off,
		Len:    uint64(res.Len),
		KLen:   uint32(res.KLen),
	})
}

// handleGetBatch resolves every op of a TGetBatch in one request. Ops are
// grouped by owning shard so each shard's engine takes its lock once per
// batch; client-learned slots pass through as engine lookup hints. The
// reply carries index-aligned grants, each with the resolved slot, version
// sequence, and durability flag so clients can warm their hint caches.
func (s *Server) handleGetBatch(p *sim.Proc, h any, from *rnic.Endpoint, m wire.Msg) {
	ops, err := wire.DecodeGetOps(m.Value)
	if err != nil {
		s.replyAny(p, from, wire.Msg{Type: wire.TGetResults, Status: wire.StError})
		return
	}
	grants := make([]wire.GetGrant, len(ops))
	byShard := make([][]int, s.st.NumShards())
	for i, op := range ops {
		sh := cluster.ShardFor(op.Key, len(byShard))
		byShard[sh] = append(byShard[sh], i)
	}
	for sh, list := range byShard {
		if len(list) == 0 {
			continue
		}
		keys := make([][]byte, len(list))
		slots := make([]int, len(list))
		for j, i := range list {
			keys[j] = ops[i].Key
			slots[j] = -1
			if ops[i].Slot != wire.NoSlot {
				slots[j] = int(ops[i].Slot)
			}
		}
		for j, res := range s.st.Shard(sh).GetBatch(h, keys, slots) {
			i := list[j]
			if res.Status != store.StatusOK {
				grants[i] = wire.GetGrant{Status: wire.StNotFound}
				continue
			}
			var flags uint8
			if res.Durable {
				flags |= wire.GrantDurable
			}
			grants[i] = wire.GetGrant{
				Status: wire.StOK,
				Flags:  flags,
				RKey:   s.poolMR[sh][res.Pool].RKey(),
				Slot:   uint32(res.Slot),
				Len:    uint32(res.Len),
				KLen:   uint32(res.KLen),
				Off:    res.Off,
				Seq:    res.Seq,
			}
		}
	}
	s.replyAny(p, from, wire.Msg{Type: wire.TGetResults, Status: wire.StOK, Value: wire.EncodeGetGrants(grants)})
}

func (s *Server) handleDel(p *sim.Proc, h any, from *rnic.Endpoint, eng *store.Engine, m wire.Msg) {
	if eng.Del(h, m.Key) != store.StatusOK {
		s.reply(p, from, eng, wire.Msg{Type: wire.TDelResp, Status: wire.StNotFound})
		return
	}
	s.reply(p, from, eng, wire.Msg{Type: wire.TDelResp, Status: wire.StOK})
}

// wireStatus maps an engine status to its wire code.
func wireStatus(st store.Status) uint8 {
	switch st {
	case store.StatusOK:
		return wire.StOK
	case store.StatusNotFound:
		return wire.StNotFound
	case store.StatusFull:
		return wire.StFull
	}
	return wire.StError
}

// handleTxnCommit applies a multi-key transaction: the ops arrive in one
// doorbell-grouped message (values inline — staging is server-driven,
// there is no one-sided write phase), the manager stages and commits
// them, and the reply carries the transaction id plus index-aligned
// per-op statuses.
func (s *Server) handleTxnCommit(p *sim.Proc, h any, from *rnic.Endpoint, m wire.Msg) {
	ops, err := wire.DecodeTxnOps(m.Value)
	if err != nil {
		s.replyAny(p, from, wire.Msg{Type: wire.TTxnCommitResp, Status: wire.StError})
		return
	}
	keys := make([][]byte, len(ops))
	vals := make([][]byte, len(ops))
	for i, op := range ops {
		keys[i], vals[i] = op.Key, op.Value
	}
	id, per, st := s.txn.Commit(h, keys, vals)
	sts := make([]uint8, len(per))
	for i, pst := range per {
		sts[i] = wireStatus(pst)
	}
	s.replyAny(p, from, wire.Msg{
		Type: wire.TTxnCommitResp, Status: wireStatus(st),
		Off: id, Value: wire.EncodeTxnStatuses(sts),
	})
}

// handleTxnRead serves a snapshot-isolated multi-key read: every key is
// resolved at one cut pinned across shards. Values return inline (the
// RPC read path) — the server already walked to the snapshot's version,
// so there is no durable-location grant for a one-sided follow-up.
func (s *Server) handleTxnRead(p *sim.Proc, h any, from *rnic.Endpoint, m wire.Msg) {
	ops, err := wire.DecodeGetOps(m.Value)
	if err != nil {
		s.replyAny(p, from, wire.Msg{Type: wire.TTxnReadResp, Status: wire.StError})
		return
	}
	keys := make([][]byte, len(ops))
	for i, op := range ops {
		keys[i] = op.Key
	}
	res := s.txn.SnapshotGet(h, keys)
	rs := make([]wire.TxnResult, len(res))
	for i, r := range res {
		rs[i] = wire.TxnResult{Status: wireStatus(r.Status), Seq: r.Seq, Value: r.Value}
	}
	s.replyAny(p, from, wire.Msg{Type: wire.TTxnReadResp, Status: wire.StOK, Value: wire.EncodeTxnResults(rs)})
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
