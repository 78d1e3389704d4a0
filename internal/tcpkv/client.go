package tcpkv

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"efactory/internal/client"
	"efactory/internal/cluster"
	"efactory/internal/hint"
	"efactory/internal/kv"
	"efactory/internal/obs"
	"efactory/internal/trace"
	"efactory/internal/wire"
)

// The client's sentinels are the protocol core's, shared with the
// simulated transport: errors.Is matches across both.
var (
	// ErrNotFound is returned by Get/Delete for absent keys.
	ErrNotFound = client.ErrNotFound
	// ErrServerFull is returned by Put when the pool is exhausted.
	ErrServerFull = client.ErrServerFull
	// ErrTxnAborted is returned for every op of a transaction the server
	// rejected for a reason other than pool/table pressure (which maps to
	// ErrServerFull): the transaction applied none of its ops.
	ErrTxnAborted = client.ErrTxnAborted
)

// DefaultPipelineDepth bounds how many RPCs a client keeps in flight on
// its connection.
const DefaultPipelineDepth = 16

// Client is a TCP-mode eFactory client: the protocol core
// (internal/client) bound to one pipelined connection that carries many
// requests in flight at once (sequence-tagged frames, whose replies the
// waiting callers read and demultiplex themselves; see pipe). The RPCs
// and the one-sided READ bursts (TRead) share it, as an RDMA client's
// SENDs and READs share one queue pair. A Client runs no goroutine of
// its own.
// A Client keeps the connection it dialed for its whole life and
// makes exactly one attempt per op, bounded by the timeout fixed at dial:
// a transport failure reaches the caller, and recovery is a fresh client
// (the peer table's quick retry, the routed client's route loop). What
// lives here is only what is TCP: dialing, epoch stamping and
// wrong-epoch mapping, and the admin RPCs. Every client reads through a
// location hint cache (internal/hint). Methods are safe for concurrent
// use; concurrent RPCs share the pipelined connection instead of queueing
// behind each other.
type Client struct {
	addr string
	core *client.Core
	pipe *pipe // its timeout bounds each attempt, the handshake included

	// Stats holds the protocol core's path counters (PureReads,
	// FallbackReads, RPCReads, BatchedGets, HintedReads, ...), promoted as
	// fields of the client. Read them quiesced.
	client.Stats
	// Retries and Reconnects read 0 for every client: a Client neither
	// retries nor redials. They remain because the benchmark module's
	// tcpkv.retries and tcpkv.reconnects rows read them.
	Retries    int
	Reconnects int
}

// pipe is one pipelined RPC connection with no goroutine of its own:
// callers write their own sequence-tagged request frames under a write
// mutex, and then read the replies themselves. The right to read is a
// token (a one-slot channel): after writing, a caller waits for its own
// reply on its slot or for the token, whichever comes first. The holder
// reads frames through br, hands every other caller's reply to its slot,
// and gives the token back once its own arrives — so a lone caller
// writes, reads and returns with no hand-off, and the connection still
// carries up to DefaultPipelineDepth RPCs in flight at once.
type pipe struct {
	conn    net.Conn
	br      *bufio.Reader // replies; read only by the token holder
	timeout time.Duration // per-call bound (0 = none)

	done  chan struct{}
	sem   chan struct{} // bounds in-flight calls to DefaultPipelineDepth
	token chan struct{} // holds the read token while nobody reads
	wmu   sync.Mutex    // serializes request frames onto the socket

	mu      sync.Mutex
	pending map[uint32]chan pipeResult
	seq     uint32
	err     error
}

type pipeResult struct {
	payload []byte  // response message bytes (after the seq echo)
	raw     *[]byte // pooled backing of payload; release via releaseResp
	err     error
}

// callSlot is one pooled RPC call context: the request-frame scratch the
// caller sends as-is (zero copies on the write side), the scratch a READ
// burst encodes its READs in, and the reusable completion channel. Slots
// live in a package-level pool rather than on the pipe, so scratch reuse
// outlives any one connection — a fresh client starts on warmed buffers.
type callSlot struct {
	frame []byte
	reads []byte
	ch    chan pipeResult
}

var callSlotPool = sync.Pool{New: func() any {
	return &callSlot{frame: make([]byte, 0, 512), ch: make(chan pipeResult, 1)}
}}

// begin resets the slot's frame to the 8-byte [len][seq] placeholder the
// pipe fills in at send time; the caller appends the encoded message.
func (cs *callSlot) begin() {
	var hdr [8]byte
	cs.frame = append(cs.frame[:0], hdr[:]...)
}

// releaseResp returns a response buffer received from a callSlot
// exchange to the frame pool. Callers must be done with every byte that
// aliases it (Msg.Key/Value from wire.Decode included).
func releaseResp(bp *[]byte) {
	if bp != nil {
		frameBufPool.Put(bp)
	}
}

func newPipe(conn net.Conn, timeout time.Duration) *pipe {
	p := &pipe{
		conn:    conn,
		br:      bufio.NewReaderSize(conn, connBufSize),
		timeout: timeout,
		done:    make(chan struct{}),
		sem:     make(chan struct{}, DefaultPipelineDepth),
		token:   make(chan struct{}, 1),
		pending: make(map[uint32]chan pipeResult),
	}
	p.token <- struct{}{}
	return p
}

// fail marks the pipe dead exactly once: the socket closes (unblocking the
// token holder's read and any writer), every pending caller gets err, and
// future calls fail fast.
func (p *pipe) fail(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return
	}
	p.err = err
	close(p.done)
	p.conn.Close()
	for seq, ch := range p.pending {
		delete(p.pending, seq)
		ch <- pipeResult{err: err}
	}
}

func (p *pipe) failure() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// claim removes seq's waiter and returns its slot channel, or nil when
// the call has none anymore (it gave up, or fail already answered it).
// Whoever claims a waiter owes it exactly one result.
func (p *pipe) claim(seq uint32) chan pipeResult {
	p.mu.Lock()
	ch := p.pending[seq]
	delete(p.pending, seq)
	p.mu.Unlock()
	return ch
}

// call issues one RPC from a prepared slot and waits for its response.
// cs.frame must hold the 8-byte [len][seq] placeholder (callSlot.begin)
// followed by the encoded message; call fills the placeholder. Frames are
// [len][seq][msg] with the length prefix covering the 4-byte sequence tag.
// The sequence number is the call's identity on the shared connection;
// a pipe never resends a frame, so acknowledged sequences are never
// replayed.
//
// The caller writes its own frame, so nothing else ever touches cs.frame:
// a response that overtakes the return of Write finds the slot still
// checked out. The write's deadline is armed before it and cleared after
// — nothing further is owed on the write side until the next request, and
// a stale deadline would poison an idle connection.
// The wait for the reply is bounded by the same timeout, counted from
// the write's end: the token holder reads under it as a read deadline,
// and a caller waiting without the token on a timer. Either expiry fails
// the whole pipe.
//
// clean reports whether the slot completed its exchange (a result —
// success or error — was received on cs.ch): only then may the caller
// return cs to the pool. On the failure paths a token holder or fail()
// may still send on the slot's channel, so the slot must be abandoned to
// the GC.
func (p *pipe) call(cs *callSlot) (r pipeResult, clean bool) {
	select {
	case p.sem <- struct{}{}:
	case <-p.done:
		return pipeResult{err: p.failure()}, false
	}
	defer func() { <-p.sem }()

	p.mu.Lock()
	if p.err != nil {
		p.mu.Unlock()
		return pipeResult{err: p.err}, false
	}
	p.seq++
	seq := p.seq
	p.pending[seq] = cs.ch
	p.mu.Unlock()
	binary.BigEndian.PutUint32(cs.frame, uint32(len(cs.frame)-4))
	binary.BigEndian.PutUint32(cs.frame[4:], seq)

	p.wmu.Lock()
	if p.timeout > 0 {
		p.conn.SetWriteDeadline(time.Now().Add(p.timeout))
	}
	_, err := p.conn.Write(cs.frame)
	if err == nil && p.timeout > 0 {
		err = p.conn.SetWriteDeadline(time.Time{})
	}
	p.wmu.Unlock()
	if err != nil {
		// A torn request frame leaves the stream unparseable for everyone
		// sharing it: fail them over together.
		p.claim(seq)
		p.fail(err)
		return pipeResult{err: p.failure()}, false
	}

	var deadline time.Time
	if p.timeout > 0 {
		deadline = time.Now().Add(p.timeout)
	}
	// A lone caller finds the token free and reads at once, arming no
	// timer; only a caller that has to wait for it needs one.
	select {
	case r := <-cs.ch:
		return r, true
	case <-p.token:
		return p.await(seq, cs, deadline)
	default:
	}
	var expired <-chan time.Time
	if p.timeout > 0 {
		t := time.NewTimer(time.Until(deadline))
		defer t.Stop()
		expired = t.C
	}
	select {
	case r := <-cs.ch:
		return r, true
	case <-p.token:
		return p.await(seq, cs, deadline)
	case <-expired:
		// This sequence has no waiter anymore; the connection can no
		// longer be trusted to stay in sync, so fail everything on it
		// together.
		p.claim(seq)
		p.fail(os.ErrDeadlineExceeded)
		return pipeResult{err: os.ErrDeadlineExceeded}, false
	}
}

// await reads replies as the token holder until seq's own arrives, then
// passes the token on. Every other reply goes to its caller's slot; a
// reply nobody waits for (its caller gave up) is dropped. A read failure
// — the holder's deadline, a closed or torn connection — fails the pipe,
// and the holder returns the error fail delivered to its own slot.
func (p *pipe) await(seq uint32, cs *callSlot, deadline time.Time) (pipeResult, bool) {
	defer func() { p.token <- struct{}{} }()
	select {
	case r := <-cs.ch: // delivered before the token changed hands
		return r, true
	default:
	}
	if !deadline.IsZero() {
		p.conn.SetReadDeadline(deadline)
	}
	for {
		bp := frameBufPool.Get().(*[]byte)
		raw, err := readFrameInto(p.br, *bp, maxPipeFrame)
		if err == nil && len(raw) < 4 {
			err = errors.New("tcpkv: short pipelined frame")
		}
		if err != nil {
			frameBufPool.Put(bp)
			p.fail(err)
			return <-cs.ch, true
		}
		*bp = raw[:0] // keep any growth in the pooled backing
		got := binary.BigEndian.Uint32(raw)
		r := pipeResult{payload: raw[4:], raw: bp}
		switch ch := p.claim(got); {
		case ch == nil:
			frameBufPool.Put(bp)
			if got == seq { // fail answered this call first
				return <-cs.ch, true
			}
		case got == seq:
			return r, true
		default:
			ch <- r
		}
	}
}

// connect opens the connection to addr, bounded by timeout. The client
// has no protocol core until dial's handshake builds one.
func connect(addr string, timeout time.Duration) (*Client, error) {
	conn, err := dialChannel(addr, timeout)
	if err != nil {
		return nil, err
	}
	return &Client{addr: addr, pipe: newPipe(conn, timeout)}, nil
}

// Dial connects to a tcpkv server and performs the geometry handshake.
// The returned client sets no deadlines: each op is one attempt that
// waits as long as the server takes.
func Dial(addr string) (*Client, error) { return dial(addr, 0) }

// dial is Dial with every I/O bounded by timeout from the first byte: the
// connects and the handshake as well as every later attempt, so a peer
// that accepts but never answers costs one timeout, not a hang.
func dial(addr string, timeout time.Duration) (*Client, error) {
	c, err := connect(addr, timeout)
	if err != nil {
		return nil, err
	}
	resp, err := c.rpc(wire.Msg{Type: wire.THello})
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("tcpkv: handshake: %w", err)
	}
	buckets := int(resp.Len)
	if buckets <= 0 {
		c.Close()
		return nil, errors.New("tcpkv: bad handshake geometry")
	}
	// Shard 0's table and pool rkeys; shard s adds rkeysPerShard*s.
	// Pre-sharding servers leave the shard count (Off) zero.
	shards := make([]client.Shard, max(int(resp.Off), 1))
	for s := range shards {
		d := rkeysPerShard * uint32(s)
		shards[s] = client.Shard{Table: resp.RKey + d, Pool: [2]uint32{resp.Token + d, resp.Token + d + 1}}
	}
	c.core = client.New((*verbs)(c), shards, buckets, &c.Stats, int(resp.KLen))
	c.core.EnableHintCache()
	return c, nil
}

// Close tears the connection down for good: later ops fail.
func (c *Client) Close() error {
	c.pipe.fail(net.ErrClosed)
	return nil
}

// HintCache returns the client's location hint cache.
func (c *Client) HintCache() *hint.Cache { return c.core.HintCache() }

// SetClusterEpoch records the cluster-map epoch routed requests should
// carry (Token field; 0 = unclustered, which every server accepts).
// Forward-only; advancing it bulk-invalidates the hint cache — a hint
// learned under old placement must not survive a cutover.
func (c *Client) SetClusterEpoch(epoch uint64) { c.core.AdvanceEpoch(epoch) }

// wrongEpoch maps an StWrongEpoch response to the typed error routed
// clients dispatch on, recording the server's proven epoch.
func wrongEpoch(resp wire.Msg) error {
	return &cluster.WrongEpochError{Epoch: uint64(resp.Token)}
}

// rpc performs one request/response over the connection. Concurrent
// callers share the connection; responses demultiplex by sequence number.
// The decoded Msg may alias the response buffer, which is left to the GC —
// the protocol core, which bounds every response's lifetime, goes through
// rpcShared instead.
func (c *Client) rpc(req wire.Msg) (wire.Msg, error) {
	m, _, err := c.rpcShared(&req)
	return m, err
}

// rpcShared is rpc for callers that finish with the response before
// their next operation: the returned Msg aliases the returned pooled
// buffer, which the caller gives back via releaseResp once every aliased
// byte (Key/Value) is dead. A nil buffer is safe to release.
func (c *Client) rpcShared(req *wire.Msg) (wire.Msg, *[]byte, error) {
	return c.exchange(callSlotPool.Get().(*callSlot), req)
}

// exchange is rpcShared on a slot the caller took from callSlotPool.
func (c *Client) exchange(cs *callSlot, req *wire.Msg) (wire.Msg, *[]byte, error) {
	cs.begin()
	cs.frame = req.AppendEncode(cs.frame)
	r, clean := c.pipe.call(cs)
	if clean {
		callSlotPool.Put(cs)
	}
	if r.err != nil {
		releaseResp(r.raw)
		return wire.Msg{}, nil, r.err
	}
	m, err := wire.Decode(r.payload)
	if err != nil {
		releaseResp(r.raw)
		return wire.Msg{}, nil, err
	}
	return m, r.raw, nil
}

// readBurst is one TRead call: the READs in reqs go out in one frame,
// and the reply's data lands in each Req.Buf; a READ the server refused
// sets its Req.NAK instead.
func (c *Client) readBurst(reqs []client.Req) error {
	cs := callSlotPool.Get().(*callSlot)
	le := binary.LittleEndian
	b := cs.reads[:0]
	for i := range reqs {
		b = le.AppendUint32(b, reqs[i].RKey)
		b = le.AppendUint64(b, reqs[i].Off)
		b = le.AppendUint32(b, uint32(len(reqs[i].Buf)))
	}
	cs.reads = b
	resp, raw, err := c.exchange(cs, &wire.Msg{Type: wire.TRead, Value: b})
	if err != nil {
		return err
	}
	defer releaseResp(raw)
	if resp.Status != wire.StOK {
		return fmt.Errorf("tcpkv: READ burst refused with status %d", resp.Status)
	}
	p := resp.Value
	for i := range reqs {
		dst := reqs[i].Buf
		switch {
		case len(p) > 0 && p[0] == 0:
			reqs[i].NAK = true
			p = p[1:]
		case len(p) > len(dst) && p[0] == 1:
			p = p[1+copy(dst, p[1:]):]
		default:
			return fmt.Errorf("tcpkv: malformed READ reply at READ %d of %d", i, len(reqs))
		}
	}
	if len(p) != 0 {
		return fmt.Errorf("tcpkv: %d bytes after the last READ's reply", len(p))
	}
	return nil
}

// verbs is Client seen through the protocol core's seam. A distinct type
// so the verbs do not join Client's exported method set.
type verbs Client

func (*verbs) Now() uint64 { return wallClock{}.Now() }

// ChargeCRC is empty: the checksum's real cost is paid computing it.
func (*verbs) ChargeCRC(int) {}

// Call stamps the request with the cluster-map epoch and maps a
// wrong-epoch rejection to the typed error routed clients dispatch on.
// NoteCleaning is ignored: the core sends every entry naming two locations
// — the mid-clean ones — to the server.
func (v *verbs) Call(req wire.Msg) (wire.Msg, *[]byte, error) {
	c := (*Client)(v)
	req.Token = uint32(c.core.Epoch())
	resp, raw, err := c.rpcShared(&req)
	if err == nil && resp.Status == wire.StWrongEpoch {
		releaseResp(raw)
		return wire.Msg{}, nil, wrongEpoch(resp)
	}
	return resp, raw, err
}

func (*verbs) Release(buf *[]byte) { releaseResp(buf) }

// ReadBurst sends reqs as one TRead call, or as several when their
// replies would pass inlineBudget, the most a server answers in one.
func (v *verbs) ReadBurst(reqs []client.Req) error {
	for len(reqs) > 0 {
		n, size := 1, 1+len(reqs[0].Buf)
		for n < len(reqs) && size+1+len(reqs[n].Buf) <= inlineBudget {
			size += 1 + len(reqs[n].Buf)
			n++
		}
		if err := (*Client)(v).readBurst(reqs[:n]); err != nil {
			return err
		}
		reqs = reqs[n:]
	}
	return nil
}

// WriteBurst is unreachable: the core sends every value inline to a
// server that announces a budget, and tcpkv has no one-sided WRITE.
func (*verbs) WriteBurst([]client.Req) error {
	return errors.New("tcpkv: there is no one-sided WRITE")
}

// Put stores value under key: checksum, then one allocation RPC that
// carries the value inline — no durability round trip (asynchronous
// durability). A value the log cannot hold (kv.Storable) is refused with
// a status error before anything is sent.
func (c *Client) Put(key, value []byte) error {
	tc, t0 := c.core.Begin("put", kv.HashKey(key))
	err := c.core.Put(tc, key, value)
	c.core.End(tc, t0, err)
	return err
}

// PutBatch stores len(keys) key/value pairs with multi-op allocation RPCs
// that carry the values: one per run of consecutive ops whose values fit
// the server's inline budget, so one RPC for any batch of at most 32 MiB
// of values. Completion semantics match Put: durability stays
// asynchronous, handled by the background verifier. The returned slice
// has one entry per op, in order: nil, ErrServerFull, a status error for
// an unstorable op, or a transport error shared by every op without an
// outcome of its own.
func (c *Client) PutBatch(keys, values [][]byte) []error {
	return c.PutBatchInto(keys, values, nil)
}

// PutBatchInto is PutBatch with a caller-owned error slice: when errs
// has the capacity it is resliced and returned, so a steady-state caller
// (a closed-loop load driver, a benchmark) reuses one slice for its
// whole run and the batch write path allocates nothing.
func (c *Client) PutBatchInto(keys, values [][]byte, errs []error) []error {
	if len(keys) != len(values) {
		panic("tcpkv: PutBatch keys/values length mismatch")
	}
	if cap(errs) >= len(keys) {
		errs = errs[:len(keys)]
	} else {
		errs = make([]error, len(keys))
	}
	if len(keys) == 0 {
		return errs
	}
	tc, t0 := c.core.Begin("put_batch", kv.HashKey(keys[0]))
	c.core.PutBatch(tc, keys, values, errs)
	c.core.End(tc, t0, client.FirstErr(errs))
	return errs
}

// Get fetches key's value with the hybrid read scheme.
func (c *Client) Get(key []byte) (out []byte, err error) {
	tc, t0 := c.core.Begin("get", kv.HashKey(key))
	out, err = c.core.Get(tc, key)
	c.core.End(tc, t0, err)
	return out, err
}

// GetBatch resolves len(keys) GETs as one operation: each round, the
// one-sided READs of every in-flight key go out in ONE TRead burst, and
// keys whose optimistic read fails verification fall back together in one
// read RPC (see client.Core.GetBatch). Results are index-aligned with keys: values[i]
// is valid iff errs[i] is nil (ErrNotFound, or a transport/status error
// shared by every key the failure reached).
func (c *Client) GetBatch(keys [][]byte) ([][]byte, []error) {
	vals := make([][]byte, len(keys))
	errs := make([]error, len(keys))
	if len(keys) == 0 {
		return vals, errs
	}
	tc, t0 := c.core.Begin("get_batch", kv.HashKey(keys[0]))
	c.core.GetBatch(tc, keys, vals, errs)
	c.core.End(tc, t0, client.FirstErr(errs))
	return vals, errs
}

// Delete removes key.
func (c *Client) Delete(key []byte) error {
	var st delRetryState
	tc, t0 := c.core.Begin("del", kv.HashKey(key))
	err := c.delAttempt(tc, key, &st)
	c.core.End(tc, t0, err)
	return err
}

// delAttempt is one DELETE attempt under the at-least-once rule, shared by
// Delete and the routed client's route loop: st spans every attempt of
// the op, so a DEL acked nowhere but applied somewhere maps a later
// not-found to success (see delRetryState).
func (c *Client) delAttempt(tc *trace.Ctx, key []byte, st *delRetryState) error {
	err := c.core.Delete(tc, key)
	var we *cluster.WrongEpochError
	var se *client.StatusError
	switch {
	case err == nil || errors.As(err, &we): // applied, or refused unapplied
		return err
	case errors.Is(err, ErrNotFound):
		return st.mapNotFound()
	case errors.As(err, &se):
		// The server applied the delete locally but could not
		// acknowledge it (e.g. the tombstone missed its replication
		// quorum): outcome unknown cluster-wide, retry elsewhere.
		err = fmt.Errorf("%w: %v", ErrRetryable, err)
	}
	st.noteUnknown()
	return err
}

// TxnCommit commits keys[i] -> vals[i] atomically: all ops become
// visible together or none do (see client.Core.TxnCommit). It returns the
// transaction id; on failure no op is applied. An empty commit returns
// (0, nil) without a request.
//
// A caller that retries a commit is at-least-once like every other op: a
// lost response frame does not reveal whether the server committed, so a
// retried commit may apply the same transaction twice (same values, a
// fresh transaction id).
func (c *Client) TxnCommit(keys, vals [][]byte) (id uint64, err error) {
	if len(keys) != len(vals) {
		panic("tcpkv: TxnCommit keys/vals length mismatch")
	}
	if len(keys) == 0 {
		return 0, nil
	}
	tc, t0 := c.core.Begin("txn_commit", kv.HashKey(keys[0]))
	id, err = c.core.TxnCommit(tc, keys, vals)
	c.core.End(tc, t0, err)
	return id, err
}

// TxnRead snapshot-reads keys at one consistent cut across shards. It
// returns index-aligned values and errors: an absent key yields
// ErrNotFound for its index and a nil value.
func (c *Client) TxnRead(keys [][]byte) ([][]byte, []error) {
	vals := make([][]byte, len(keys))
	errs := make([]error, len(keys))
	if len(keys) == 0 {
		return vals, errs
	}
	tc, t0 := c.core.Begin("txn_read", kv.HashKey(keys[0]))
	err := c.core.TxnRead(tc, keys, vals, errs)
	c.core.End(tc, t0, err)
	return vals, errs
}

// ServerStats fetches the server's counters.
func (c *Client) ServerStats() (Stats, error) {
	resp, err := c.rpc(wire.Msg{Type: wire.TStats})
	if err != nil {
		return Stats{}, err
	}
	if resp.Status != wire.StOK {
		return Stats{}, fmt.Errorf("tcpkv: stats status %d", resp.Status)
	}
	var st Stats
	if err := json.Unmarshal(resp.Value, &st); err != nil {
		return Stats{}, fmt.Errorf("tcpkv: stats decode: %w", err)
	}
	return st, nil
}

// ShardStats fetches per-shard server counters (one element per shard).
// Pre-sharding servers answer the unknown type with an error status, which
// surfaces as a normal error here.
func (c *Client) ShardStats() ([]Stats, error) {
	resp, err := c.rpc(wire.Msg{Type: wire.TShardStats})
	if err != nil {
		return nil, err
	}
	if resp.Status != wire.StOK {
		return nil, fmt.Errorf("tcpkv: shard stats status %d", resp.Status)
	}
	var st []Stats
	if err := json.Unmarshal(resp.Value, &st); err != nil {
		return nil, fmt.Errorf("tcpkv: shard stats decode: %w", err)
	}
	return st, nil
}

// Metrics fetches the server's telemetry snapshot (per-shard per-op
// latency histograms, gauges, counters). Servers predating the TMetrics
// type answer with an error status, which surfaces as a normal error.
func (c *Client) Metrics() (obs.Snapshot, error) {
	resp, err := c.rpc(wire.Msg{Type: wire.TMetrics})
	if err != nil {
		return obs.Snapshot{}, err
	}
	if resp.Status != wire.StOK {
		return obs.Snapshot{}, fmt.Errorf("tcpkv: metrics status %d", resp.Status)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(resp.Value, &snap); err != nil {
		return obs.Snapshot{}, fmt.Errorf("tcpkv: metrics decode: %w", err)
	}
	return snap, nil
}
