package efactory

import (
	"errors"

	"efactory/internal/client"
	"efactory/internal/hint"
	"efactory/internal/kv"
	"efactory/internal/model"
	"efactory/internal/rnic"
	"efactory/internal/sim"
	"efactory/internal/trace"
	"efactory/internal/wire"
)

// The client's sentinels are the protocol core's, shared with the TCP
// transport: errors.Is matches across both.
var (
	// ErrNotFound is returned by Get/Delete for absent keys.
	ErrNotFound = client.ErrNotFound
	// ErrServerFull is returned by Put when the log and cleaning cannot
	// make room.
	ErrServerFull = client.ErrServerFull
	// ErrTxnAborted is returned for every op of a transaction the server
	// rejected for a reason other than pool/table pressure.
	ErrTxnAborted = client.ErrTxnAborted
)

// ClientStats counts client-side path choices.
type ClientStats = client.Stats

// Client is an eFactory client on the simulated RDMA transport: the
// protocol core (internal/client) bound to a queue pair. It performs PUT
// with the client-active scheme and GET with the hybrid read scheme; what
// lives here is only what is simulator: the *sim.Proc every verb blocks,
// the modelled CRC cost, virtual time, and the clean-start/end
// notifications that feed the core's cleaning flag.
//
// A Client is driven by a single sim proc at a time — the harnesses attach
// one Client per worker — so the proc of the op in progress and the
// scratch below are never observed mid-operation by anyone else.
type Client struct {
	env  *sim.Env
	par  *model.Params
	nic  *rnic.NIC
	ep   *rnic.Endpoint
	core *client.Core

	p *sim.Proc // the proc driving the op in progress

	// Scratch reused across operations (rnic.Send copies the payload, so
	// reuse is safe the moment Send returns).
	enc []byte          // rpc request encoding
	rd  []rnic.ReadReq  // doorbell-batched READ chain
	wr  []rnic.WriteReq // doorbell-batched WRITE chain

	Stats ClientStats
}

func newClient(env *sim.Env, par *model.Params, nic *rnic.NIC, ep *rnic.Endpoint, shards []client.Shard, buckets int) *Client {
	c := &Client{env: env, par: par, nic: nic, ep: ep}
	c.core = client.New((*verbs)(c), shards, buckets, &c.Stats)
	return c
}

// SetHybridRead toggles the hybrid read scheme. Disabling it yields the
// "eFactory w/o hr" configuration from the paper's factor analysis (§6.1):
// every GET uses the RPC+RDMA path.
func (c *Client) SetHybridRead(on bool) { c.core.SetHybridRead(on) }

// EnableAdaptive turns on per-object adaptive hybrid reads: a read of an
// object this client wrote within the predictor's durability horizon
// skips the optimistic one-sided fetch and goes straight to RPC. Off by
// default, keeping figures bit-identical.
func (c *Client) EnableAdaptive() { c.core.EnableAdaptive() }

// EnableHintCache attaches a client-side location/durability hint cache
// with the given per-shard capacity (hint.DefaultCap if non-positive).
// The cache is off by default, so default-configuration timings are
// unchanged.
func (c *Client) EnableHintCache(capPerShard int) { c.core.EnableHintCache(capPerShard) }

// HintCache returns the attached hint cache (nil when disabled).
func (c *Client) HintCache() *hint.Cache { return c.core.HintCache() }

// EnableTracing samples 1-in-sampleEvery of this client's ops into
// propagated request traces on virtual time (see client.Core.EnableTracing).
// sampleEvery <= 0 disables tracing (the default): timings are
// bit-identical to an untraced client.
func (c *Client) EnableTracing(sampleEvery int, slowNS uint64) {
	c.core.EnableTracing(sampleEvery, slowNS)
}

// Tracer returns the client's retained-trace store (nil when tracing
// was never enabled).
func (c *Client) Tracer() *trace.Tracer { return c.core.Tracer() }

// verbs is Client seen through the protocol core's seam. A distinct type
// so the verbs do not join Client's exported method set.
type verbs Client

func (v *verbs) Now() uint64 { return uint64(v.env.Now()) }

// ChargeCRC sleeps the modelled cost of checksumming n value bytes.
func (v *verbs) ChargeCRC(n int) { v.p.Sleep(v.par.CRCTime(n)) }

func (v *verbs) Call(req wire.Msg) (wire.Msg, *[]byte, error) {
	m, err := (*Client)(v).rpc(v.p, req)
	return m, nil, err // the response owns its bytes: nothing to release
}

func (v *verbs) Release(*[]byte) {}

// nakAll maps a chain the responder NIC refused to post (a member failed
// validation, so the whole chain was flushed) onto per-request NAKs.
func nakAll(reqs []client.Req, err error) error {
	if !errors.Is(err, rnic.ErrBounds) {
		return err
	}
	for i := range reqs {
		reqs[i].NAK = true
	}
	return nil
}

func (v *verbs) ReadBurst(reqs []client.Req) error {
	v.rd = v.rd[:0]
	for _, r := range reqs {
		v.rd = append(v.rd, rnic.ReadReq{Dst: r.Buf, RKey: r.RKey, Off: int(r.Off)})
	}
	return nakAll(reqs, v.ep.ReadBatch(v.p, v.rd))
}

func (v *verbs) WriteBurst(reqs []client.Req) error {
	v.wr = v.wr[:0]
	for _, r := range reqs {
		v.wr = append(v.wr, rnic.WriteReq{Src: r.Buf, RKey: r.RKey, Off: int(r.Off)})
	}
	return nakAll(reqs, v.ep.WriteBatch(v.p, v.wr))
}

// enter binds the op about to run to its proc and consumes any queued
// clean-start/end notifications without blocking, so a client that only
// issues one-sided reads still learns about log cleaning promptly.
func (c *Client) enter(p *sim.Proc) {
	c.p = p
	for {
		raw, ok := c.ep.RecvQueue().TryGet()
		if !ok {
			return
		}
		c.handleAsync(raw)
	}
}

func (c *Client) handleAsync(raw rnic.Message) bool {
	m, err := wire.Decode(raw.Data)
	if err != nil {
		return true
	}
	switch m.Type {
	case wire.TCleanStart, wire.TCleanEnd:
		c.core.ObserveCleaning(m.Type == wire.TCleanStart)
		c.Stats.Notifications++
		return true
	}
	return false
}

// rpc sends a request and blocks until the matching response, handling any
// notifications that arrive in between.
func (c *Client) rpc(p *sim.Proc, req wire.Msg) (wire.Msg, error) {
	c.enc = req.AppendEncode(c.enc[:0])
	if err := c.ep.Send(p, c.enc); err != nil {
		return wire.Msg{}, err
	}
	for {
		raw, ok := c.ep.Recv(p)
		if !ok {
			return wire.Msg{}, rnic.ErrCrashed
		}
		if c.handleAsync(raw) {
			continue
		}
		m, err := wire.Decode(raw.Data)
		if err != nil {
			return wire.Msg{}, err
		}
		c.core.ObserveCleaning(m.Note&wire.NoteCleaning != 0)
		return m, nil
	}
}

// Put stores value under key using the client-active scheme with
// asynchronous durability (Figure 5).
func (c *Client) Put(p *sim.Proc, key, value []byte) error {
	c.enter(p)
	tc, t0 := c.core.Begin("put", kv.HashKey(key))
	err := c.core.Put(tc, key, value)
	c.core.End(tc, t0, err)
	return err
}

// PutBatch stores len(keys) key/value pairs with one allocation RPC and
// one doorbell-batched chain of one-sided WRITEs: every value write is
// posted before the client waits, and the chain completes in a single
// notification round. The returned slice has one entry per op, in order:
// nil, ErrServerFull, or a transport error shared by every op the failure
// reached.
func (c *Client) PutBatch(p *sim.Proc, keys, values [][]byte) []error {
	if len(keys) != len(values) {
		panic("efactory: PutBatch keys/values length mismatch")
	}
	errs := make([]error, len(keys))
	if len(keys) == 0 {
		return errs
	}
	c.enter(p)
	tc, t0 := c.core.Begin("put_batch", kv.HashKey(keys[0]))
	c.core.PutBatch(tc, keys, values, errs)
	c.core.End(tc, t0, client.FirstErr(errs))
	return errs
}

// Get fetches the value for key with the hybrid read scheme (Figure 6).
func (c *Client) Get(p *sim.Proc, key []byte) ([]byte, error) {
	c.enter(p)
	tc, t0 := c.core.Begin("get", kv.HashKey(key))
	val, err := c.core.Get(tc, key)
	c.core.End(tc, t0, err)
	return val, err
}

// GetBatch resolves len(keys) GETs as one operation, the READs of all
// in-flight keys chained per round into a single doorbell-batched group
// (see client.Core.GetBatch). Results are index-aligned with keys:
// errs[i] is nil, ErrNotFound, or a transport/status error.
func (c *Client) GetBatch(p *sim.Proc, keys [][]byte) ([][]byte, []error) {
	vals := make([][]byte, len(keys))
	errs := make([]error, len(keys))
	if len(keys) == 0 {
		return vals, errs
	}
	c.enter(p)
	tc, t0 := c.core.Begin("get_batch", kv.HashKey(keys[0]))
	c.core.GetBatch(tc, keys, vals, errs)
	c.core.End(tc, t0, client.FirstErr(errs))
	return vals, errs
}

// Delete removes key.
func (c *Client) Delete(p *sim.Proc, key []byte) error {
	c.enter(p)
	tc, t0 := c.core.Begin("del", kv.HashKey(key))
	err := c.core.Delete(tc, key)
	c.core.End(tc, t0, err)
	return err
}

// TxnCommit commits keys[i] -> vals[i] atomically: all ops become
// visible together or none do. It returns the transaction id and per-op
// errors index-aligned with keys; on failure every op carries the abort
// reason, because no op of a failed transaction is applied.
func (c *Client) TxnCommit(p *sim.Proc, keys, vals [][]byte) (uint64, []error) {
	if len(keys) != len(vals) {
		panic("efactory: TxnCommit keys/vals length mismatch")
	}
	errs := make([]error, len(keys))
	if len(keys) == 0 {
		return 0, errs
	}
	c.enter(p)
	tc, t0 := c.core.Begin("txn_commit", kv.HashKey(keys[0]))
	id, err := c.core.TxnCommit(tc, keys, vals)
	c.core.End(tc, t0, err)
	for i := range errs {
		errs[i] = err
	}
	return id, errs
}

// TxnRead snapshot-reads keys at one consistent cut across shards. It
// returns index-aligned values and errors: an absent key yields
// ErrNotFound for its index and a nil value.
func (c *Client) TxnRead(p *sim.Proc, keys [][]byte) ([][]byte, []error) {
	vals := make([][]byte, len(keys))
	errs := make([]error, len(keys))
	if len(keys) == 0 {
		return vals, errs
	}
	c.enter(p)
	tc, t0 := c.core.Begin("txn_read", kv.HashKey(keys[0]))
	err := c.core.TxnRead(tc, keys, vals, errs)
	c.core.End(tc, t0, err)
	return vals, errs
}
