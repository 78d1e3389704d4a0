package tcpkv

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"efactory/internal/crc"
	"efactory/internal/fault"
	"efactory/internal/kv"
	"efactory/internal/nvm"
	"efactory/internal/trace"
	"efactory/internal/wire"
)

// tcpVerifyTimeout replaces the fault.Config default when the caller did
// not pick a wall-clock-scale bound: the shared default (2µs) is tuned
// for the harnesses' virtual clocks, and at wall-clock speed it would
// invalidate every torn PUT before the next op's frame could arrive, so
// no op would ever meet one pending.
const tcpVerifyTimeout = 25 * time.Millisecond

// oneAttempt is every torture client's transport policy: no retries — a
// crash run must see each op's first outcome, not a masked one — and a
// deadline that is a hang safety net only. Route-level wrong-epoch
// retries stay on in the routed client; they are the redirect contract
// under test.
var oneAttempt = RetryPolicy{Attempts: 1, Timeout: 5 * time.Second}

// allocOnly sends a PUT allocation RPC and never writes the value — the
// torture workload's torn PUT, a client that died mid-write. It goes
// through the verbs seam, so it carries the cluster epoch and a
// wrong-epoch reject comes back typed for the routed client to re-route.
func (c *Client) allocOnly(key, value []byte) error {
	resp, raw, err := (*verbs)(c).Call(wire.Msg{Type: wire.TPut, Crc: crc.Checksum(value), Len: uint64(len(value)), Key: key})
	if err != nil {
		return err
	}
	releaseResp(raw)
	if resp.Status != wire.StOK {
		return fmt.Errorf("tcpkv: alloc status %d", resp.Status)
	}
	return nil
}

// allocOnly is the routed torn PUT: the allocation lands on the instance
// owning key, under the same re-route loop as every other single-key op.
func (cc *ClusterClient) allocOnly(key, value []byte) error {
	return cc.do("torn_put", key, func(c *Client, _ *trace.Ctx) error { return c.allocOnly(key, value) })
}

// tortureClient is the op surface Client and ClusterClient share.
type tortureClient interface {
	Put(key, value []byte) error
	allocOnly(key, value []byte) error
	Get(key []byte) ([]byte, error)
	GetBatch(keys [][]byte) ([][]byte, []error)
	Delete(key []byte) error
	TxnCommit(keys, vals [][]byte) (uint64, error)
	TxnRead(keys [][]byte) ([][]byte, []error)
}

// tortureTarget binds a client to what its runner schedules between ops
// and to the runner's notion of death — a fault.Target.
type tortureTarget struct {
	tortureClient
	tick func(i int)
	dead func() bool
}

func (t tortureTarget) Tick(i int)                      { t.tick(i) }
func (t tortureTarget) Dead() bool                      { return t.dead() }
func (t tortureTarget) TornPut(key, value []byte) error { return t.allocOnly(key, value) }

// tortureConfig maps the workload shape onto a server config, flooring
// VerifyTimeout at wall-clock scale. Cleaning is driven explicitly by the
// workload (CleanEvery), not by occupancy, so every run sweeps the same
// op schedule.
func tortureConfig(tc fault.Config) (fault.Config, Config) {
	tc = tc.WithDefaults()
	if tc.VerifyTimeout < time.Millisecond {
		tc.VerifyTimeout = tcpVerifyTimeout
	}
	return tc, Config{
		Buckets:        tc.Buckets,
		PoolSize:       tc.PoolSize,
		Shards:         tc.Shards,
		VerifyTimeout:  tc.VerifyTimeout,
		BGBatch:        tc.BGBatch,
		CleanThreshold: 0,
	}
}

// cleanWhenDue starts log cleaning before op i when the schedule says so;
// the run races the driver, like production.
func cleanWhenDue(tc fault.Config, srv *Server, i int) {
	if tc.CleanDue(i) {
		srv.StartCleaning()
	}
}

// serveLoopback starts srv on an ephemeral loopback port.
func serveLoopback(srv *Server) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	go srv.Serve(ln)
	return ln.Addr().String(), nil
}

// fileDev is a temp-file device a runner can power-cycle: the file only
// ever receives explicitly flushed lines, so the reopened device IS the
// post-crash persisted image (a strict Survival-0 power failure).
type fileDev struct {
	path string
	size int
	*nvm.FileBacked
}

func newFileDev(size int) (*fileDev, error) {
	dir, err := os.MkdirTemp("", "efactory-torture-*")
	if err != nil {
		return nil, err
	}
	f := &fileDev{path: filepath.Join(dir, "nvm.img"), size: size}
	if f.FileBacked, err = nvm.OpenFile(f.path, size); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return f, nil
}

// reopen is the process restart: close the live handle, open the file again.
func (f *fileDev) reopen() error {
	err := f.Close()
	f.FileBacked = nil
	if err != nil {
		return err
	}
	f.FileBacked, err = nvm.OpenFile(f.path, f.size)
	return err
}

func (f *fileDev) remove() {
	if f.FileBacked != nil {
		f.Close()
	}
	os.RemoveAll(filepath.Dir(f.path))
}

// engineGet reads key straight off a (recovered) server's engines.
func engineGet(srv *Server, key string) ([]byte, bool) {
	return fault.StoreGet(srv.st, []byte(key))
}

// tracedOracle returns an oracle whose violations carry the offending
// key's span timeline across every given tracer. Runners trace every op
// and retain all of them; tracer refs stay readable after Close —
// retention is in-memory.
func tracedOracle(tracers ...*trace.Tracer) *fault.Oracle {
	o := fault.NewOracle()
	o.SetSpanDump(func(key string) string {
		h := kv.HashKey([]byte(key))
		var spans []trace.Span
		for _, tr := range tracers {
			spans = append(spans, tr.SpansForKey(h)...)
		}
		if len(spans) == 0 {
			return ""
		}
		return trace.Timeline(spans)
	})
	return o
}

// RunTCPTorture executes one crash-point torture run over the real TCP
// transport on a file-backed device: a live Server (real goroutines,
// locks, wall clock, background verifiers) driven by a Client over
// loopback, with the device and cost sinks wrapped under a fault.Plan.
// The crash model is a process failure: once the plan trips the device
// drops all further mutations, the server is shut down, and the file is
// reopened. A second server then recovers from the file and the
// durability Oracle is checked against its engines.
//
// Unlike the store and simulation harnesses, runs are not bit-for-bit
// reproducible — goroutine scheduling and wall-clock timing vary — so
// boundary counts are approximate across runs of the same seed. The
// oracle is sound regardless: it only ever requires outcomes that are
// legal for every schedule.
func RunTCPTorture(tc fault.Config) (fault.Result, error) {
	tc, cfg := tortureConfig(tc)
	plan := fault.NewPlan(tc.CrashAt)
	dev, err := newFileDev(cfg.DeviceSize())
	if err != nil {
		return fault.Result{}, err
	}
	defer dev.remove()
	pcfg := cfg
	pcfg.FaultPlan = plan
	srv, err := NewServer(dev, pcfg)
	if err != nil {
		return fault.Result{}, err
	}
	defer srv.Close()
	addr, err := serveLoopback(srv)
	if err != nil {
		return fault.Result{}, err
	}
	cl, err := Dial(addr)
	if err != nil {
		return fault.Result{}, err
	}
	defer cl.Close()
	cl.SetRetryPolicy(oneAttempt)
	cl.EnableTracing(1, 0)
	oracle := tracedOracle(cl.Tracer(), srv.Tracer())

	tick := func(i int) { cleanWhenDue(tc, srv, i) }
	violations := fault.Drive(tortureTarget{cl, tick, plan.Tripped}, oracle, fault.Workload(tc), false)

	res := fault.Result{Boundaries: plan.Boundaries(), Tripped: plan.Tripped(), Stats: srv.Stats()}

	cl.Close()
	srv.Close()
	if err := dev.reopen(); err != nil {
		return res, err
	}
	srv2, err := NewServer(dev, cfg) // recovery runs inside store.New
	if err != nil {
		return res, fmt.Errorf("recovery failed: %w", err)
	}
	defer srv2.Close()
	res.Violations = append(violations, oracle.Check(func(k string) ([]byte, bool) { return engineGet(srv2, k) })...)
	return res, nil
}

// crashCtl decides when the instance under test "dies" in a cluster
// torture run. Two modes: plan mode ties death to the fault.Plan's
// boundary trip (crash points land wherever device activity puts them),
// abort mode kills it deterministically at the first visit of a named
// protocol checkpoint — so a sweep can visit every drain/cutover/mirror
// phase even though the protocols are fast relative to the workload.
// Either way, once died() reports true the workload stops and in-flight
// ops count as pending, exactly as a process death would leave them.
type crashCtl struct {
	plan    *fault.Plan
	abortAt string // "" = plan mode
	aborted atomic.Bool
}

func (c *crashCtl) died() bool { return c.plan.Tripped() || c.aborted.Load() }

// hook is the Server.migCrash / SetReplCrash callback.
func (c *crashCtl) hook(point string) bool {
	if c.abortAt != "" {
		if point == c.abortAt {
			c.aborted.Store(true)
			return true
		}
		return false
	}
	if c.plan.Tripped() {
		c.aborted.Store(true)
		return true
	}
	return false
}

// tortureCluster is the two-instance loopback fixture the migration,
// failover and backup-crash runners share: a (device passed in, under
// the plan) owns every placement group, b (in-memory, healthy) has
// joined it, and a routed client with tracing on every op feeds an
// oracle that prints a key's timeline across all three tracers.
type tortureCluster struct {
	tc         fault.Config
	srvA, srvB *Server
	cc         *ClusterClient
	joinEpoch  uint64
	oracle     *fault.Oracle
}

func (fx *tortureCluster) close() {
	if fx.cc != nil {
		fx.cc.Close()
	}
	fx.srvA.Close()
	if fx.srvB != nil {
		fx.srvB.Close()
	}
}

// startTortureCluster brings the fixture up. With cfg.Replicas > 1 it
// waits for b to be attached as backup to every PG: the join spawns the
// replica-attach loop, and traffic may only start at full attachment, or
// a crash could orphan a half-attached group (the single-node-death
// contract starts there).
func startTortureCluster(tc fault.Config, cfg Config, devA nvm.Device, plan *fault.Plan, pgs int) (fx *tortureCluster, err error) {
	aCfg := cfg
	aCfg.FaultPlan = plan
	fx = &tortureCluster{tc: tc}
	if fx.srvA, err = NewServer(devA, aCfg); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			fx.close()
		}
	}()
	if fx.srvB, err = NewServer(nvm.New(cfg.DeviceSize()), cfg); err != nil {
		return nil, err
	}
	addrA, err := serveLoopback(fx.srvA)
	if err != nil {
		return nil, err
	}
	addrB, err := serveLoopback(fx.srvB)
	if err != nil {
		return nil, err
	}
	fx.srvA.EnableCluster("a", addrA, pgs)
	m, err := fx.srvB.Join("b", addrB, addrA)
	if err != nil {
		return nil, err
	}
	fx.joinEpoch = m.Epoch
	if cfg.Replicas > 1 {
		if err = fx.srvA.WaitBackup("b", 10*time.Second); err != nil {
			return nil, err
		}
	}
	ccfg := DefaultClusterClientConfig()
	ccfg.Retry = oneAttempt
	if fx.cc, err = DialCluster(addrA, ccfg); err != nil {
		return nil, err
	}
	fx.cc.EnableTracing(1, 0)
	fx.oracle = tracedOracle(fx.cc.Tracer(), fx.srvA.Tracer(), fx.srvB.Tracer())
	return fx, nil
}

// drive replays the seeded workload through the routed client; tick is
// what the runner schedules before op i.
func (fx *tortureCluster) drive(tick func(i int), dead func() bool) []string {
	return fault.Drive(tortureTarget{fx.cc, tick, dead}, fx.oracle, fault.Workload(fx.tc), false)
}

// clean is the Tick of a runner that only cleans (on a).
func (fx *tortureCluster) clean(i int) { cleanWhenDue(fx.tc, fx.srvA, i) }
