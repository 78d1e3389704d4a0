package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"efactory/internal/nvm"
	"efactory/internal/stats"
	"efactory/internal/tcpkv"
)

// clusterPGs is the placement-group count of every clustered set-up.
const clusterPGs = 16

// instance is one in-process tcpkv server on an in-memory device and a
// loopback listener.
type instance struct {
	srv    *tcpkv.Server
	dev    *nvm.Memory
	cfg    tcpkv.Config
	addr   string
	served chan error // Serve's return value
}

// serverConfig is tcpkv.DefaultConfig with only the sizing fields set:
// every fast-path knob (BGBatch, pipeline workers, ...) keeps the value a
// user gets, so the numbers move when a default is flipped.
func serverConfig(s spec) tcpkv.Config {
	cfg := tcpkv.DefaultConfig()
	cfg.Buckets, cfg.PoolSize, cfg.Replicas = s.buckets, s.poolSize, s.replicas
	return cfg
}

// startInstance builds a server on dev and serves it on a fresh loopback
// port. prepare runs before Serve, which is when cluster identity must be
// installed.
func startInstance(dev *nvm.Memory, cfg tcpkv.Config, prepare func(srv *tcpkv.Server, addr string)) (*instance, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv, err := tcpkv.NewServer(dev, cfg)
	if err != nil {
		ln.Close()
		return nil, err
	}
	in := &instance{srv: srv, dev: dev, cfg: cfg, addr: ln.Addr().String(), served: make(chan error, 1)}
	if prepare != nil {
		prepare(srv, in.addr)
	}
	go func() { in.served <- srv.Serve(ln) }()
	return in, nil
}

func (in *instance) close() error {
	in.srv.Close()
	return <-in.served
}

// lagBytes is the verifier backlog over every shard: the value behind the
// efactory_durability_lag_bytes gauge.
func (in *instance) lagBytes() int {
	total := 0
	st := in.srv.Store()
	for i := 0; i < st.NumShards(); i++ {
		b, _ := st.Shard(i).DurabilityLag()
		total += b
	}
	return total
}

// startServers brings up what the workload runs against: one plain
// instance, or (clustered) instance a owning every placement group with,
// at Replicas 2, instance b attached as backup of each — the bootstrap
// internal/bench/failoverfig.go uses.
func startServers(cfg tcpkv.Config, clustered bool) ([]*instance, error) {
	newDev := func() *nvm.Memory { return nvm.New(cfg.DeviceSize()) }
	if !clustered {
		in, err := startInstance(newDev(), cfg, nil)
		if err != nil {
			return nil, err
		}
		return []*instance{in}, nil
	}
	a, err := startInstance(newDev(), cfg, func(srv *tcpkv.Server, addr string) { srv.EnableCluster("a", addr, clusterPGs) })
	if err != nil {
		return nil, err
	}
	insts := []*instance{a}
	if cfg.Replicas < 2 {
		return insts, nil
	}
	b, err := startInstance(newDev(), cfg, func(srv *tcpkv.Server, addr string) { srv.SetInstanceName("b", addr) })
	if err != nil {
		closeAll(insts)
		return nil, err
	}
	insts = append(insts, b)
	seed, err := tcpkv.Dial(a.addr)
	if err != nil {
		closeAll(insts)
		return nil, err
	}
	m, err := seed.JoinRPC("b", b.addr)
	seed.Close()
	if err != nil {
		closeAll(insts)
		return nil, fmt.Errorf("join: %w", err)
	}
	b.srv.SetClusterMap(m)
	// The backup attach is asynchronous; writes issued before every PG
	// lists b would miss their mirror.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		attached := 0
		for pg, am := 0, a.srv.ClusterMap(); pg < clusterPGs; pg++ {
			if slices.Contains(am.BackupsFor(pg), "b") {
				attached++
			}
		}
		if attached == clusterPGs {
			return insts, nil
		}
		if time.Now().After(deadline) {
			closeAll(insts)
			return nil, fmt.Errorf("backup attached to %d of %d PGs", attached, clusterPGs)
		}
	}
}

func closeAll(insts []*instance) error {
	var first error
	for _, in := range insts {
		if err := in.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// client is what a workload needs from tcpkv.Client or
// tcpkv.ClusterClient.
type client interface {
	Get(key []byte) ([]byte, error)
	Put(key, value []byte) error
	GetBatch(keys [][]byte) ([][]byte, []error)
	Close() error
}

// dial opens one client with the library's defaults: tcpkv.Dial for a
// plain server, DialCluster(DefaultClusterClientConfig) for a cluster.
func dial(insts []*instance, clustered bool) (client, error) {
	if clustered {
		return tcpkv.DialCluster(insts[0].addr, tcpkv.DefaultClusterClientConfig())
	}
	return tcpkv.Dial(insts[0].addr)
}

// plainClients returns the per-connection clients behind cl, whose
// counters the per-layer metrics read.
func plainClients(cl client) []*tcpkv.Client {
	switch c := cl.(type) {
	case *tcpkv.Client:
		return []*tcpkv.Client{c}
	case *tcpkv.ClusterClient:
		var out []*tcpkv.Client
		for _, pc := range c.Clients() {
			out = append(out, pc)
		}
		return out
	}
	return nil
}

// Counter indices of a snapshot; deltas over the measured phases feed the
// per-layer metrics.
const (
	cPuts = iota
	cGets
	cGetFast
	cBGVerified
	cBGSkipped
	cBGStale
	cBGInvalid
	cCleanings
	cCleanMoved
	cAllocFail
	cFlushedLines
	cReplAppends
	cReplFailures
	cReplDemotions
	cWrongEpoch
	cPureReads
	cFallbackReads
	cRetries
	cReconnects
	cMallocs
	cAllocBytes
	cGCs
	cGCPauseNS
	cCPUNS
	nCounters
)

type counters [nCounters]float64

func (a *counters) addDelta(after, before counters) {
	for i := range a {
		a[i] += after[i] - before[i]
	}
}

// env is one round's servers, clients and checking state.
type env struct {
	s       spec
	insts   []*instance // [0] is the primary
	clients []client
	keys    [][]byte
	ck      *checker
	bufs    [][][]byte // [client][slot]: reusable value buffers, one per key of a call
	counter []uint64   // per-client write counter
	lagPeak int        // peak primary verifier backlog seen at chunk ends, bytes
}

func (e *env) close() error {
	for _, cl := range e.clients {
		cl.Close()
	}
	return closeAll(e.insts)
}

// snap reads every counter the per-layer metrics use. Clients must be
// idle: their counters are unsynchronised fields.
func (e *env) snap() counters {
	var c counters
	p := e.insts[0]
	st := p.srv.Stats()
	c[cPuts], c[cGets], c[cGetFast] = float64(st.Puts), float64(st.Gets), float64(st.GetFastPath)
	c[cBGVerified], c[cBGSkipped] = float64(st.BGVerified), float64(st.BGSkipped)
	c[cBGStale], c[cBGInvalid] = float64(st.BGStale), float64(st.BGInvalidated+st.GetInvalidated)
	c[cCleanings], c[cCleanMoved], c[cAllocFail] = float64(st.Cleanings), float64(st.CleanMoved), float64(st.AllocFailures)
	c[cFlushedLines] = float64(p.dev.FlushedLines())
	appends, failures, demotions, _, _ := p.srv.ReplCounters()
	c[cReplAppends], c[cReplFailures], c[cReplDemotions] = float64(appends), float64(failures), float64(demotions)
	for _, in := range e.insts {
		rejects, _, _ := in.srv.ClusterCounters()
		c[cWrongEpoch] += float64(rejects)
	}
	for _, cl := range e.clients {
		for _, pc := range plainClients(cl) {
			c[cPureReads] += float64(pc.PureReads)
			c[cFallbackReads] += float64(pc.FallbackReads)
			c[cRetries] += float64(pc.Retries)
			c[cReconnects] += float64(pc.Reconnects)
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c[cMallocs], c[cAllocBytes] = float64(ms.Mallocs), float64(ms.TotalAlloc)
	c[cGCs], c[cGCPauseNS] = float64(ms.NumGC), float64(ms.PauseTotalNs)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c[cCPUNS] = float64(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return c
}

// drain waits until the verifier has passed every object on every
// instance and no cleaning run is in progress, so that later reads find
// durable versions and take the same path on every run.
func (e *env) drain() error {
	deadline := time.Now().Add(60 * time.Second)
	for _, in := range e.insts {
		for in.lagBytes() != 0 || in.srv.Cleaning() {
			if time.Now().After(deadline) {
				return fmt.Errorf("%s: verifier backlog %d B, cleaning %v after 60 s", e.s.name, in.lagBytes(), in.srv.Cleaning())
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	return nil
}

// result is what one client measured in one phase.
type result struct {
	read, write stats.Recorder // latency of every successful client call
	chunkEnds   []time.Time    // end of each equal op-count chunk
	attempted   int            // keys
	failed      int            // keys whose op returned an error
	firstErr    error          // first op error or invalid value
	invalid     int            // values that failed validation
}

// newResult sizes the latency recorders for calls samples each, so that
// recording in the measured phase never grows a slice: Reset keeps the
// backing array.
func newResult(calls int) *result {
	r := &result{chunkEnds: make([]time.Time, 0, chunks)}
	for _, rec := range []*stats.Recorder{&r.read, &r.write} {
		for i := 0; i < calls; i++ {
			rec.Record(0)
		}
		rec.Reset()
	}
	return r
}

func (r *result) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

func (r *result) check(err error) {
	if err != nil {
		r.invalid++
		if r.firstErr == nil {
			r.firstErr = err
		}
	}
}

// drive issues one client's stream, closed loop: the next call is made
// only when the previous one has returned. Nothing is generated here;
// values are stamped into the client's reusable buffers and latencies go
// into slices sized beforehand.
func (e *env) drive(c int, st stream, res *result, rec *Recorder, parent uint64) {
	if e.s.batched {
		e.driveBatched(c, st, res, rec, parent)
		return
	}
	cl, buf, acked := e.clients[c], e.bufs[c][0], e.ck.acked[c]
	per := max(len(st)/chunks, 1)
	for i, o := range st {
		k := o.key()
		res.attempted++
		if o.isPut() {
			e.counter[c]++
			stamp(buf, k, c, e.counter[c])
			t0 := time.Now()
			err := cl.Put(e.keys[k], buf)
			t1 := time.Now()
			rec.Add("tcpkv.Put", parent, int64(i), t0, t1, 1)
			if err != nil {
				res.fail(err)
			} else {
				acked[k] = e.counter[c]
				res.write.Record(t1.Sub(t0))
			}
		} else {
			t0 := time.Now()
			v, err := cl.Get(e.keys[k])
			t1 := time.Now()
			rec.Add("tcpkv.Get", parent, int64(i), t0, t1, 1)
			if err != nil {
				res.fail(err)
			} else {
				res.read.Record(t1.Sub(t0))
				res.check(e.ck.inline(c, k, v))
			}
		}
		if (i+1)%per == 0 {
			e.chunkEnd(c, res)
		}
	}
}

// driveBatched issues a stream as calls of batchKeys keys. A stream is
// all puts (phase W) or all gets (phase R).
func (e *env) driveBatched(c int, st stream, res *result, rec *Recorder, parent uint64) {
	cl := e.clients[c].(*tcpkv.Client)
	acked := e.ck.acked[c]
	keys := make([][]byte, batchKeys)
	idx := make([]int, batchKeys)
	ctrs := make([]uint64, batchKeys)
	errs := make([]error, batchKeys)
	calls := len(st) / batchKeys
	per := max(calls/chunks, 1)
	for j := 0; j < calls; j++ {
		ops := st[j*batchKeys : (j+1)*batchKeys]
		for i, o := range ops {
			idx[i], keys[i] = o.key(), e.keys[o.key()]
		}
		res.attempted += batchKeys
		if ops[0].isPut() {
			for i := range ops {
				e.counter[c]++
				ctrs[i] = e.counter[c]
				stamp(e.bufs[c][i], idx[i], c, ctrs[i])
			}
			t0 := time.Now()
			errs = cl.PutBatchInto(keys, e.bufs[c], errs)
			t1 := time.Now()
			rec.Add("tcpkv.PutBatchInto", parent, int64(j), t0, t1, batchKeys)
			ok := true
			for i, err := range errs {
				if err != nil {
					res.fail(err)
					ok = false
				} else {
					acked[idx[i]] = ctrs[i] // in issue order, so a key repeated in the call keeps its last write
				}
			}
			if ok {
				res.write.Record(t1.Sub(t0))
			}
		} else {
			t0 := time.Now()
			vals, gerrs := cl.GetBatch(keys)
			t1 := time.Now()
			rec.Add("tcpkv.GetBatch", parent, int64(j), t0, t1, batchKeys)
			ok := true
			for i, err := range gerrs {
				if err != nil {
					res.fail(err)
					ok = false
				} else {
					res.check(e.ck.inline(c, idx[i], vals[i]))
				}
			}
			if ok {
				res.read.Record(t1.Sub(t0))
			}
		}
		if (j+1)%per == 0 {
			e.chunkEnd(c, res)
		}
	}
}

// chunkEnd marks a chunk boundary; client 0 also samples the primary's
// verifier backlog there (one short engine-lock hold per chunk).
func (e *env) chunkEnd(c int, res *result) {
	res.chunkEnds = append(res.chunkEnds, time.Now())
	if c == 0 {
		e.lagPeak = max(e.lagPeak, e.insts[0].lagBytes())
	}
}

// phase runs one stream per client concurrently and returns each client's
// result with the phase's start and end.
func (e *env) phase(streams []stream, rec *Recorder, name string) ([]*result, time.Time, time.Time) {
	results := make([]*result, len(streams))
	forks := make([]*Recorder, len(streams))
	for c, st := range streams {
		results[c] = newResult(len(st) / e.s.keysPerCall())
		forks[c] = rec.Fork(len(st)/e.s.keysPerCall() + 1)
	}
	parent := rec.Open(name, 0, -1)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.drive(c, streams[c], results[c], forks[c], parent)
		}()
	}
	wg.Wait()
	end := time.Now()
	keys := 0
	for c := range streams {
		rec.Merge(forks[c])
		keys += len(streams[c])
	}
	rec.Close(parent, keys)
	return results, start, end
}

// setUp brings up servers and clients, preloads keys with single Puts
// (every key, or only the listed ones for a ladder rung that replays a
// short prefix), runs the fixed warm-up and drains the verifier. All of
// it is set-up time.
func setUp(s spec, keys [][]byte, preload []int, warm []stream) (*env, error) {
	clustered := s.replicas > 0
	insts, err := startServers(serverConfig(s), clustered)
	if err != nil {
		return nil, err
	}
	e := &env{s: s, insts: insts, keys: keys, ck: newChecker(s), counter: make([]uint64, s.clients)}
	for c := 0; c < s.clients; c++ {
		cl, err := dial(insts, clustered)
		if err != nil {
			e.close()
			return nil, fmt.Errorf("dial: %w", err)
		}
		e.clients = append(e.clients, cl)
		var bufs [][]byte
		for i := 0; i < s.keysPerCall(); i++ {
			bufs = append(bufs, fillFor(c, s.vlen))
		}
		e.bufs = append(e.bufs, bufs)
	}
	if preload == nil {
		preload = make([]int, len(keys))
		for k := range preload {
			preload[k] = k
		}
	}
	load := fillFor(loaderID, s.vlen)
	for _, k := range preload {
		stamp(load, k, loaderID, 1)
		if err := e.clients[0].Put(keys[k], load); err != nil {
			e.close()
			return nil, fmt.Errorf("preload key %d: %w", k, err)
		}
	}
	results, _, _ := e.phase(warm, nil, "warm-up")
	for _, r := range results {
		if r.firstErr != nil {
			e.close()
			return nil, fmt.Errorf("warm-up: %w", r.firstErr)
		}
	}
	if err := e.drain(); err != nil {
		e.close()
		return nil, err
	}
	runtime.GC()
	return e, nil
}

// readBack reads, through client 0, every key a client wrote since the
// preload and requires it to hold some client's last acknowledged write.
// Single Gets are timed: a workload with no reads reports them as its
// read latency.
func (e *env) readBack(res *result) {
	cl := e.clients[0]
	var batch [][]byte
	var idx []int
	flush := func() {
		if len(batch) == 0 {
			return
		}
		vals, errs := cl.GetBatch(batch)
		for i, err := range errs {
			if err != nil {
				res.fail(fmt.Errorf("read-back key %d: %w", idx[i], err))
			} else {
				res.check(e.ck.final(idx[i], vals[i]))
			}
		}
		batch, idx = batch[:0], idx[:0]
	}
	single := !e.s.batched && e.s.getFrac == 0
	for k := range e.keys {
		written := false
		for _, row := range e.ck.acked {
			written = written || row[k] != 0
		}
		if !written {
			continue
		}
		if single {
			t0 := time.Now()
			v, err := cl.Get(e.keys[k])
			t1 := time.Now()
			if err != nil {
				res.fail(fmt.Errorf("read-back key %d: %w", k, err))
				continue
			}
			res.read.Record(t1.Sub(t0))
			res.check(e.ck.final(k, v))
			continue
		}
		batch, idx = append(batch, e.keys[k]), append(idx, k)
		if len(batch) == batchKeys {
			flush()
		}
	}
	flush()
}

// roundOut is everything one round measured.
type roundOut struct {
	setup      time.Duration
	wall       time.Duration // measured phases only, drain between them excluded
	drain      time.Duration // verifier catch-up after the last measured phase
	keysOK     int
	attempted  int
	failed     int
	invalid    int
	firstErr   error
	read       stats.Recorder
	write      stats.Recorder
	chunkRates []float64 // rate of every client's every chunk, relative to the median chunk of its phase
	delta      counters
	lagPeak    int
	tableLoad  float64
	recover    time.Duration
	problems   []string // broken workload assumptions (cleaning, mirroring, epochs)
}

// runRound is one set-up, the workload's measured phases, the read-back
// and the tear-down. rec is nil for an untraced round. withRecover adds a
// close-and-reopen of the primary's device, timing recovery.
func runRound(s spec, keys [][]byte, p plan, round int, rec *Recorder, withRecover bool) (*roundOut, error) {
	t0 := time.Now()
	e, err := setUp(s, keys, nil, p.warm[round])
	if err != nil {
		return nil, err
	}
	out := &roundOut{setup: time.Since(t0)}
	nphases := len(p.phases[round][0])
	var before, after counters
	for ph := 0; ph < nphases; ph++ {
		streams := make([]stream, s.clients)
		for c := range streams {
			streams[c] = p.phases[round][c][ph]
		}
		if ph > 0 {
			// Reads of phase R must not race the verifier: the set-up
			// drained before phase W, and the same drain separates W from R.
			if err := e.drain(); err != nil {
				e.close()
				return nil, err
			}
		}
		before = e.snap()
		results, start, end := e.phase(streams, rec, fmt.Sprintf("measured-%d", ph))
		after = e.snap()
		out.delta.addDelta(after, before)
		out.wall += end.Sub(start)
		for _, r := range results {
			out.absorb(r)
			var rates []float64
			prev := start
			for _, t := range r.chunkEnds {
				rates = append(rates, 1/t.Sub(prev).Seconds())
				prev = t
			}
			for _, v := range rates {
				out.chunkRates = append(out.chunkRates, v/median(rates))
			}
		}
	}
	out.keysOK = out.attempted - out.failed
	out.lagPeak = e.lagPeak

	back := newResult(len(keys))
	tDrain := time.Now()
	if err := e.drain(); err != nil {
		e.close()
		return nil, err
	}
	out.drain = time.Since(tDrain)
	e.readBack(back)
	if !s.batched && s.getFrac == 0 {
		out.read = back.read
	}
	out.failed += back.failed
	out.invalid += back.invalid
	if out.firstErr == nil {
		out.firstErr = back.firstErr
	}
	out.problems = e.assumptions(out.delta)
	out.tableLoad = e.insts[0].srv.Store().Shard(0).TableLoad()
	for _, cl := range e.clients {
		cl.Close()
	}
	primary := e.insts[0]
	if err := closeAll(e.insts); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if withRecover {
		t := time.Now()
		srv, err := tcpkv.NewServer(primary.dev, primary.cfg)
		out.recover = time.Since(t)
		if err != nil {
			return nil, fmt.Errorf("recover: %w", err)
		}
		if got := srv.Stats().Recovered; got != len(keys) {
			out.problems = append(out.problems, fmt.Sprintf("recovery restored %d of %d keys", got, len(keys)))
		}
		srv.Close()
	}
	return out, nil
}

// rate is the round's throughput: keys completed over measured time.
func (o *roundOut) rate() float64 { return float64(o.keysOK) / o.wall.Seconds() }

func (o *roundOut) absorb(r *result) {
	o.attempted += r.attempted
	o.failed += r.failed
	o.invalid += r.invalid
	if o.firstErr == nil {
		o.firstErr = r.firstErr
	}
	o.read.Merge(&r.read)
	o.write.Merge(&r.write)
}

// assumptions checks what each workload was sized for: cleaning runs on
// update-4k and nowhere else, only cluster-rf2 mirrors, no routed op is
// rejected, no allocation fails.
func (e *env) assumptions(d counters) []string {
	var bad []string
	total := e.insts[0].srv.Stats().Cleanings
	switch {
	case e.s.shrunk:
	case e.s.cleans && d[cCleanings] == 0:
		bad = append(bad, "log cleaning never ran in the measured phase")
	case !e.s.cleans && total != 0:
		bad = append(bad, fmt.Sprintf("log cleaning ran %d times on a workload sized to avoid it", total))
	}
	switch {
	case e.s.replicas < 2 && d[cReplAppends] != 0:
		bad = append(bad, fmt.Sprintf("%v mirror appends on an unreplicated workload", d[cReplAppends]))
	case e.s.replicas >= 2 && d[cReplAppends] == 0:
		bad = append(bad, "no mirror appends at Replicas 2")
	}
	if d[cReplFailures] != 0 || d[cReplDemotions] != 0 {
		bad = append(bad, fmt.Sprintf("%v mirror append failures, %v demotions", d[cReplFailures], d[cReplDemotions]))
	}
	if d[cWrongEpoch] != 0 {
		bad = append(bad, fmt.Sprintf("%v wrong-epoch rejects", d[cWrongEpoch]))
	}
	if d[cAllocFail] != 0 {
		bad = append(bad, fmt.Sprintf("%v allocation failures", d[cAllocFail]))
	}
	return bad
}

// makeKeys formats the key space once: "user" and the index, zero-padded
// on the left to 32 bytes. ycsb.Key pads on the right, which makes key 64
// and key 640 the same string, and a colliding key would read as another
// key's value.
func makeKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("user%0*d", keyLen-len("user"), i))
	}
	return keys
}

// errIncorrect marks a run whose outputs were wrong or whose ops failed;
// the metric table is still printed before the process exits non-zero.
var errIncorrect = errors.New("benchmark outputs incorrect")
