// ClusterClient routes ops across a cluster of tcpkv servers through an
// epoch-guarded cached map (cluster.Router). The cache is advisory,
// exactly like the hint cache: a stale map costs a misrouted op that the
// server rejects with StWrongEpoch, after which the client refetches and
// retries. A rejection carrying a NEWER epoch proves the map stale (drop
// and refetch); one carrying the SAME epoch means the op hit a blocked
// migration cutover window — the map is right, the PG is briefly
// unavailable — so the client backs off and retries without refetching.
package tcpkv

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"efactory/internal/client"
	"efactory/internal/cluster"
	"efactory/internal/hint"
	"efactory/internal/kv"
	"efactory/internal/store"
	"efactory/internal/trace"
	"efactory/internal/wire"
)

// ClusterMapRPC fetches the server's current cluster map.
func (c *Client) ClusterMapRPC() (*cluster.Map, error) {
	resp, err := c.rpc(wire.Msg{Type: wire.TClusterMap})
	if err != nil {
		return nil, err
	}
	if resp.Status != wire.StOK {
		return nil, fmt.Errorf("tcpkv: cluster map status %d", resp.Status)
	}
	return cluster.DecodeMap(resp.Value)
}

// SetClusterMapRPC offers the server a map; it adopts it only if
// strictly newer. The returned epoch is the server's view afterwards.
func (c *Client) SetClusterMapRPC(m *cluster.Map) (uint64, error) {
	resp, err := c.rpc(wire.Msg{Type: wire.TClusterMapSet, Value: m.Encode()})
	if err != nil {
		return 0, err
	}
	if resp.Status != wire.StOK {
		return 0, fmt.Errorf("tcpkv: cluster map set status %d", resp.Status)
	}
	return uint64(resp.Token), nil
}

// JoinRPC asks a clustered server to admit instance name at addr; the
// returned map (epoch+1, name owning nothing) is what the joiner should
// install on itself.
func (c *Client) JoinRPC(name, addr string) (*cluster.Map, error) {
	resp, err := c.rpc(wire.Msg{Type: wire.TJoin, Key: []byte(name), Value: []byte(addr)})
	if err != nil {
		return nil, err
	}
	if resp.Status != wire.StOK {
		return nil, fmt.Errorf("tcpkv: join status %d", resp.Status)
	}
	return cluster.DecodeMap(resp.Value)
}

// MigrateRPC asks the serving instance to migrate placement group pg to
// the named target; it blocks until cutover (or failure).
func (c *Client) MigrateRPC(pg int, target string) (MigrationSummary, error) {
	resp, err := c.rpc(wire.Msg{Type: wire.TMigrate, Off: uint64(pg), Key: []byte(target)})
	if err != nil {
		return MigrationSummary{}, err
	}
	if resp.Status != wire.StOK {
		return MigrationSummary{}, fmt.Errorf("tcpkv: migrate: %s", resp.Value)
	}
	var sum MigrationSummary
	if err := json.Unmarshal(resp.Value, &sum); err != nil {
		return MigrationSummary{}, fmt.Errorf("tcpkv: migrate summary decode: %w", err)
	}
	return sum, nil
}

// MigIngest ships one batch of exported keys to a migration target.
func (c *Client) MigIngest(batch []store.ExportKey) error {
	blob, err := json.Marshal(batch)
	if err != nil {
		return err
	}
	resp, err := c.rpc(wire.Msg{Type: wire.TMigIngest, Value: blob})
	if err != nil {
		return err
	}
	if resp.Status != wire.StOK {
		return fmt.Errorf("tcpkv: ingest status %d", resp.Status)
	}
	return nil
}

// ReplAppend ships replicated commit records to a backup under the
// sender's map epoch. A *cluster.WrongEpochError return means the
// backup holds a strictly newer map — the sender is deposed and must
// stop flagging writes durable until it adopts it.
func (c *Client) ReplAppend(batch []store.ExportKey, epoch uint64) error {
	blob, err := json.Marshal(batch)
	if err != nil {
		return err
	}
	// Under the retry loop: imports are idempotent, so a replayed append
	// is safe, and a transient transport blip gets the policy's quick
	// retry instead of immediately demoting a healthy backup.
	return c.retrying(func() error {
		resp, err := c.rpc(wire.Msg{Type: wire.TReplAppend, Token: uint32(epoch), Value: blob})
		if err != nil {
			return err
		}
		switch resp.Status {
		case wire.StOK:
			return nil
		case wire.StWrongEpoch:
			return &cluster.WrongEpochError{Epoch: uint64(resp.Token)}
		default:
			return fmt.Errorf("tcpkv: repl append status %d", resp.Status)
		}
	})
}

// ReplPull fetches every record the serving replica holds in placement
// group pg (promotion reconciliation).
func (c *Client) ReplPull(pg int) ([]store.ExportKey, error) {
	resp, err := c.rpc(wire.Msg{Type: wire.TReplPull, Off: uint64(pg)})
	if err != nil {
		return nil, err
	}
	if resp.Status != wire.StOK {
		return nil, fmt.Errorf("tcpkv: repl pull status %d", resp.Status)
	}
	return decodeExportBatch(resp.Value)
}

// PromoteRPC asks the serving instance to fail over from the named dead
// primary, taking ownership of every PG it backs up for it. Returns the
// map epoch after the promotion.
func (c *Client) PromoteRPC(dead string) (uint64, error) {
	resp, err := c.rpc(wire.Msg{Type: wire.TPromote, Key: []byte(dead)})
	if err != nil {
		return 0, err
	}
	if resp.Status != wire.StOK {
		return 0, fmt.Errorf("tcpkv: promote: %s", resp.Value)
	}
	return uint64(resp.Token), nil
}

// ccRouteAttempts bounds how many times one op re-routes after
// wrong-epoch rejections or instance failures. A blocked cutover window
// lasts VerifyTimeout+slack; with the capped backoff below this budget
// rides out windows two orders of magnitude longer than the defaults.
const ccRouteAttempts = 64

// ccStaleRounds bounds consecutive rounds in which the routed instance
// rejects with an epoch OLDER than the map that routed there. Refetching
// cannot advance past a map the client already holds, so without this
// bound a deposed instance that never learned its successor would eat
// the whole attempt budget; instead the op fails fast with ErrRouteStale
// (retryable — the promoted instance usually pushes its map shortly).
const ccStaleRounds = 8

// Route-retry backoff bounds (decorrelated jitter, see jitteredBackoff).
const (
	ccRouteBackoff    = 2 * time.Millisecond
	ccRouteMaxBackoff = 50 * time.Millisecond
)

// ClusterClientConfig carries the per-instance client settings a
// ClusterClient applies to every connection it opens.
type ClusterClientConfig struct {
	Hybrid   bool        // hybrid read scheme on per-instance clients
	HintCap  int         // per-shard hint cache capacity; 0 disables the cache
	Retry    RetryPolicy // transport retry policy per instance client
	Pipeline int         // pipeline depth (0 = DefaultPipelineDepth)
}

// DefaultClusterClientConfig enables hybrid reads and hint caching with
// the default transport retry policy.
func DefaultClusterClientConfig() ClusterClientConfig {
	return ClusterClientConfig{Hybrid: true, HintCap: hint.DefaultCap, Retry: DefaultRetryPolicy()}
}

// ClusterClient is a routed client over a set of tcpkv instances.
// Methods are safe for concurrent use.
type ClusterClient struct {
	cfg    ClusterClientConfig
	router cluster.Router

	mu      sync.Mutex
	clients map[string]*Client // by instance name
	seed    string             // bootstrap address, used while the map is cold
	lastMap *cluster.Map       // last map ever installed; map-refetch fallback when the seed died

	// WrongEpochRetries counts ops that re-routed after an StWrongEpoch
	// rejection; MapRefreshes counts TClusterMap fetches. Read quiesced.
	WrongEpochRetries int
	MapRefreshes      int

	// tracer mints one trace per routed op; the same ID follows the op
	// through re-routes, so a trace that crossed instances (wrong-epoch
	// redirect, migration) reads as one timeline. Nil unless
	// EnableTracing was called.
	tracer *trace.Tracer
}

// EnableTracing samples 1-in-sampleEvery routed ops into propagated
// traces (see Client.EnableTracing); route retries and wrong-epoch
// redirects appear as spans and retention marks on the SAME trace even
// when the op lands on a different instance per attempt. Configure
// before issuing concurrent ops.
func (cc *ClusterClient) EnableTracing(sampleEvery int, slowNS uint64) {
	cc.tracer = trace.NewTracer(sampleEvery, slowNS)
}

// Tracer returns the routed client's retained-trace store (nil when
// tracing was never enabled).
func (cc *ClusterClient) Tracer() *trace.Tracer { return cc.tracer }

// DialCluster bootstraps a routed client from any instance's address:
// the seed serves the initial map, after which ops route per-key.
func DialCluster(seed string, cfg ClusterClientConfig) (*ClusterClient, error) {
	cc := &ClusterClient{cfg: cfg, clients: make(map[string]*Client), seed: seed}
	if _, err := cc.currentMap(); err != nil {
		cc.Close()
		return nil, err
	}
	return cc, nil
}

// Router exposes the epoch-guarded map cache (stats, tests).
func (cc *ClusterClient) Router() *cluster.Router { return &cc.router }

// Close tears down every per-instance connection.
func (cc *ClusterClient) Close() error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	var first error
	for name, c := range cc.clients {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
		delete(cc.clients, name)
	}
	return first
}

// Clients returns the per-instance clients currently connected, keyed by
// instance name (tests and stats aggregation; do not Close them).
func (cc *ClusterClient) Clients() map[string]*Client {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	out := make(map[string]*Client, len(cc.clients))
	for k, v := range cc.clients {
		out[k] = v
	}
	return out
}

// newClient dials and configures one per-instance connection.
func (cc *ClusterClient) newClient(addr string) (*Client, error) {
	c, err := Dial(addr)
	if err != nil {
		return nil, err
	}
	c.SetHybridRead(cc.cfg.Hybrid)
	if cc.cfg.HintCap > 0 {
		c.EnableHintCache(cc.cfg.HintCap)
	}
	c.SetRetryPolicy(cc.cfg.Retry)
	if cc.cfg.Pipeline > 0 {
		if err := c.SetPipelineDepth(cc.cfg.Pipeline); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// clientFor returns (dialing lazily) the connection to instance in.
func (cc *ClusterClient) clientFor(in cluster.Instance) (*Client, error) {
	cc.mu.Lock()
	c, ok := cc.clients[in.Name]
	cc.mu.Unlock()
	if ok {
		return c, nil
	}
	c, err := cc.newClient(in.Addr)
	if err != nil {
		return nil, err
	}
	cc.mu.Lock()
	if prev, ok := cc.clients[in.Name]; ok {
		cc.mu.Unlock()
		c.Close()
		return prev, nil
	}
	cc.clients[in.Name] = c
	cc.mu.Unlock()
	return c, nil
}

// install records m as the freshest map seen: the router serves it to
// routing, and lastMap remembers it past invalidation so a refetch can
// still reach the cluster after the seed instance died.
func (cc *ClusterClient) install(m *cluster.Map) {
	cc.router.Install(m)
	cc.mu.Lock()
	if cc.lastMap == nil || m.Epoch >= cc.lastMap.Epoch {
		cc.lastMap = m
	}
	cc.mu.Unlock()
}

// adoptClient caches c under an instance name unless a connection is
// already registered there (then c is closed and the incumbent kept).
func (cc *ClusterClient) adoptClient(name string, c *Client) {
	cc.mu.Lock()
	if prev, ok := cc.clients[name]; ok && prev != c {
		cc.mu.Unlock()
		c.Close()
		return
	}
	cc.clients[name] = c
	cc.mu.Unlock()
}

// dropClient severs a connection that just failed mid-op, so the next
// route attempt redials (or routes elsewhere) instead of reusing a pipe
// to a dead instance. Concurrent ops sharing the connection fail
// transiently and re-route the same way.
func (cc *ClusterClient) dropClient(c *Client) {
	cc.mu.Lock()
	for name, cur := range cc.clients {
		if cur == c {
			delete(cc.clients, name)
			break
		}
	}
	cc.mu.Unlock()
	c.Close()
}

// currentMap returns the cached map, fetching one when the cache is cold
// or was invalidated. Fetches try every connected instance, then every
// address the last-known map listed, then the seed — so neither one dead
// instance nor specifically the dead SEED can blind the client: after a
// primary crash the survivors named in the stale map still answer.
func (cc *ClusterClient) currentMap() (*cluster.Map, error) {
	if m := cc.router.Current(); m != nil {
		return m, nil
	}
	cc.mu.Lock()
	cc.MapRefreshes++
	conns := make([]*Client, 0, len(cc.clients))
	for _, c := range cc.clients {
		conns = append(conns, c)
	}
	seed := cc.seed
	last := cc.lastMap
	cc.mu.Unlock()
	var lastErr error
	for _, c := range conns {
		m, err := c.ClusterMapRPC()
		if err == nil {
			cc.install(m)
			return cc.router.Current(), nil
		}
		if transient(err) {
			// Dead pipe: deregister it now, or the fallback dial below
			// would adopt-lose to the stale incumbent under its name.
			cc.dropClient(c)
		}
		lastErr = err
	}
	// Every live connection failed: dial fresh to each instance the last
	// installed map named. Connections above may be stale pipes to dead
	// instances; this pass reaches survivors we never dialed.
	if last != nil {
		for _, in := range last.Instances {
			c, err := cc.newClient(in.Addr)
			if err != nil {
				lastErr = err
				continue
			}
			m, err := c.ClusterMapRPC()
			if err != nil {
				c.Close()
				lastErr = err
				continue
			}
			cc.adoptClient(in.Name, c)
			cc.install(m)
			return cc.router.Current(), nil
		}
	}
	// Cold cache (or every known instance failed): ask the seed directly.
	c, err := cc.newClient(seed)
	if err != nil {
		if lastErr == nil {
			lastErr = err
		}
		return nil, fmt.Errorf("tcpkv: no cluster map: %w", lastErr)
	}
	m, err := c.ClusterMapRPC()
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("tcpkv: no cluster map: %w", err)
	}
	cc.adoptClient(mapOwner(m, seed), c)
	cc.install(m)
	return cc.router.Current(), nil
}

// mapOwner names the instance living at addr under m ("" when unknown —
// the seed moved or the map predates it).
func mapOwner(m *cluster.Map, addr string) string {
	for _, in := range m.Instances {
		if in.Addr == addr {
			return in.Name
		}
	}
	return ""
}

// do routes one single-key op: resolve the key's instance under the
// cached map, stamp the client with the map's epoch, run the op, and on
// a wrong-epoch rejection refetch/back off and re-route. Transport
// errors also invalidate the map (the instance may have left).
func (cc *ClusterClient) do(name string, key []byte, op func(c *Client, tc *trace.Ctx) error) error {
	tc, t0 := beginOp(cc.tracer, name, kv.HashKey(key))
	err := cc.doCtx(tc, key, op)
	endOp(cc.tracer, tc, t0, err)
	return err
}

func (cc *ClusterClient) doCtx(tc *trace.Ctx, key []byte, op func(c *Client, tc *trace.Ctx) error) error {
	return cc.routedCtx(tc, func(m *cluster.Map) (cluster.Instance, bool, error) {
		in, _, ok := m.InstanceForKey(key)
		if !ok {
			return cluster.Instance{}, true, fmt.Errorf("tcpkv: no instance owns key under epoch %d", m.Epoch)
		}
		return in, false, nil
	}, op)
}

// routedCtx drives the route/refetch/backoff loop shared by single-key
// ops and transactional multi-key ops: resolve picks the serving
// instance under the current map (retryable=true means invalidate the
// map and re-route; false means the error is terminal), op runs against
// it, and wrong-epoch / transport outcomes feed the router.
func (cc *ClusterClient) routedCtx(tc *trace.Ctx, resolve func(m *cluster.Map) (cluster.Instance, bool, error), op func(c *Client, tc *trace.Ctx) error) error {
	backoff := ccRouteBackoff
	staleRounds := 0
	var lastErr error
	for attempt := 0; attempt < ccRouteAttempts; attempt++ {
		if attempt > 0 {
			// The route_retry span covers the backoff sleep: the gap
			// between a rejected attempt and the re-routed one.
			tRetry := traceNow(tc)
			time.Sleep(backoff)
			tc.Add("route_retry", tRetry, traceNow(tc))
			backoff = jitteredBackoff(backoff, ccRouteBackoff, ccRouteMaxBackoff, nil)
		}
		m, err := cc.currentMap()
		if err != nil {
			lastErr = err
			continue
		}
		in, retryable, err := resolve(m)
		if err != nil {
			if !retryable {
				return err
			}
			lastErr = err
			cc.router.Invalidate()
			continue
		}
		c, err := cc.clientFor(in)
		if err != nil {
			lastErr = err
			cc.router.Invalidate()
			continue
		}
		c.SetClusterEpoch(m.Epoch)
		err = op(c, tc)
		var we *cluster.WrongEpochError
		if errors.As(err, &we) {
			cc.noteWrongEpoch(we)
			if we.Epoch < m.Epoch {
				// The instance proved an epoch OLDER than the map that
				// routed us there: a refetch cannot advance past a map
				// the client already holds, so looping is pointless.
				if staleRounds++; staleRounds >= ccStaleRounds {
					return fmt.Errorf("%w: instance %s at epoch %d, map at epoch %d", ErrRouteStale, in.Name, we.Epoch, m.Epoch)
				}
			} else {
				staleRounds = 0
			}
			lastErr = err
			continue
		}
		if transient(err) || errors.Is(err, ErrRetryable) {
			// The instance died mid-op, or applied without acknowledging:
			// sever its pipe, suspect the map, and re-route — after a
			// failover the key's new owner is one refetch away.
			cc.dropClient(c)
			cc.router.Invalidate()
			lastErr = err
			continue
		}
		return err
	}
	return lastErr
}

// noteWrongEpoch feeds a rejection into the router: a newer proven epoch
// drops the cached map (next attempt refetches); a same-epoch rejection
// keeps it (blocked cutover — the backoff in do rides it out).
func (cc *ClusterClient) noteWrongEpoch(we *cluster.WrongEpochError) {
	cc.router.Observe(we.Epoch)
	cc.mu.Lock()
	cc.WrongEpochRetries++
	cc.mu.Unlock()
}

// Put stores value under key on the instance owning it.
func (cc *ClusterClient) Put(key, value []byte) error {
	return cc.do("put", key, func(c *Client, tc *trace.Ctx) error { return c.putCtx(tc, key, value) })
}

// Get fetches key's value from the instance owning it.
func (cc *ClusterClient) Get(key []byte) ([]byte, error) {
	var out []byte
	err := cc.do("get", key, func(c *Client, tc *trace.Ctx) error {
		v, err := c.getCtx(tc, key)
		out = v
		return err
	})
	return out, err
}

// Delete removes key on the instance owning it. One delRetryState spans
// every route attempt: a DEL whose first attempt died against the old
// primary but applied there stays "outcome unknown" when the retry lands
// on the promoted backup, so a not-found answer there reports success
// (the tombstone mirrored before the crash) instead of ErrNotFound.
func (cc *ClusterClient) Delete(key []byte) error {
	var st delRetryState
	return cc.do("del", key, func(c *Client, tc *trace.Ctx) error { return c.delCtxState(tc, key, &st) })
}

// ErrTxnCrossInstance reports a transactional op whose keys resolve to
// more than one instance under the current cluster map. Transactions are
// single-instance atomic (one store, one commit record); a caller that
// needs a cross-instance transaction must re-partition its keys.
// Terminal, not retryable: refetching the map cannot merge two placement
// groups.
var ErrTxnCrossInstance = errors.New("tcpkv: transaction spans multiple instances")

// txnResolve builds the routedCtx resolver for a transactional op: every
// key must land on one instance, or the op is rejected with the terminal
// ErrTxnCrossInstance.
func txnResolve(keys [][]byte) func(m *cluster.Map) (cluster.Instance, bool, error) {
	return func(m *cluster.Map) (cluster.Instance, bool, error) {
		in, _, ok := m.InstanceForKey(keys[0])
		if !ok {
			return cluster.Instance{}, true, fmt.Errorf("tcpkv: no instance owns key under epoch %d", m.Epoch)
		}
		for _, key := range keys[1:] {
			o, _, ok := m.InstanceForKey(key)
			if !ok {
				return cluster.Instance{}, true, fmt.Errorf("tcpkv: no instance owns key under epoch %d", m.Epoch)
			}
			if o.Name != in.Name {
				return cluster.Instance{}, false, fmt.Errorf("%w: keys split between %s and %s under epoch %d", ErrTxnCrossInstance, in.Name, o.Name, m.Epoch)
			}
		}
		return in, false, nil
	}
}

// TxnCommit commits keys[i] -> vals[i] atomically on the single instance
// owning every key (the fast path — and today the only path; a key set
// spanning instances fails whole with ErrTxnCrossInstance). Returns the
// transaction id and index-aligned per-op errors; on failure every op
// carries the shared reason, because no op of a failed transaction is
// applied.
func (cc *ClusterClient) TxnCommit(keys, vals [][]byte) (uint64, []error) {
	if len(keys) != len(vals) {
		panic("tcpkv: TxnCommit keys/vals length mismatch")
	}
	errs := make([]error, len(keys))
	if len(keys) == 0 {
		return 0, errs
	}
	var id uint64
	tc, t0 := beginOp(cc.tracer, "txn_commit", batchHash(keys))
	err := cc.routedCtx(tc, txnResolve(keys), func(c *Client, tc *trace.Ctx) error {
		var cerr error
		id, cerr = c.txnCommitCtx(tc, keys, vals)
		return cerr
	})
	endOp(cc.tracer, tc, t0, err)
	if err != nil {
		for i := range errs {
			errs[i] = err
		}
	}
	return id, errs
}

// TxnRead snapshot-reads keys at one consistent cut on the single
// instance owning every key (a snapshot is one store's cut, so a key set
// spanning instances fails whole with ErrTxnCrossInstance). Returns
// index-aligned values and errors; an absent key yields ErrNotFound.
func (cc *ClusterClient) TxnRead(keys [][]byte) ([][]byte, []error) {
	vals := make([][]byte, len(keys))
	errs := make([]error, len(keys))
	if len(keys) == 0 {
		return vals, errs
	}
	tc, t0 := beginOp(cc.tracer, "txn_read", batchHash(keys))
	err := cc.routedCtx(tc, txnResolve(keys), func(c *Client, tc *trace.Ctx) error {
		return c.txnReadCtx(tc, keys, vals, errs)
	})
	endOp(cc.tracer, tc, t0, client.FirstErr(errs))
	if err != nil {
		for i := range errs {
			errs[i] = err
		}
	}
	return vals, errs
}

// PutBatch stores the pairs, grouping ops by owning instance so each
// group rides that instance's multi-op PUT path. Groups run
// sequentially; keys rejected with wrong-epoch re-group under the
// refreshed map and retry. Results are index-aligned with keys.
func (cc *ClusterClient) PutBatch(keys, values [][]byte) []error {
	if len(keys) != len(values) {
		panic("tcpkv: PutBatch keys/values length mismatch")
	}
	errs := make([]error, len(keys))
	pending := make([]int, len(keys))
	for i := range pending {
		pending[i] = i
	}
	tc, t0 := beginOp(cc.tracer, "put_batch", batchHash(keys))
	cc.batched(tc, pending, errs, func(i int) []byte { return keys[i] }, func(c *Client, tc *trace.Ctx, idx []int) []error {
		k := make([][]byte, len(idx))
		v := make([][]byte, len(idx))
		for j, i := range idx {
			k[j], v[j] = keys[i], values[i]
		}
		be := make([]error, len(idx))
		c.putBatchCtx(tc, k, v, be)
		return be
	})
	endOp(cc.tracer, tc, t0, client.FirstErr(errs))
	return errs
}

// batchHash is the key hash a batch op's root span carries (first key).
func batchHash(keys [][]byte) uint64 {
	if len(keys) == 0 {
		return 0
	}
	return kv.HashKey(keys[0])
}

// GetBatch fetches the keys, grouped by owning instance like PutBatch.
// values[i] is valid iff errs[i] is nil.
func (cc *ClusterClient) GetBatch(keys [][]byte) ([][]byte, []error) {
	vals := make([][]byte, len(keys))
	errs := make([]error, len(keys))
	pending := make([]int, len(keys))
	for i := range pending {
		pending[i] = i
	}
	tc, t0 := beginOp(cc.tracer, "get_batch", batchHash(keys))
	cc.batched(tc, pending, errs, func(i int) []byte { return keys[i] }, func(c *Client, tc *trace.Ctx, idx []int) []error {
		k := make([][]byte, len(idx))
		for j, i := range idx {
			k[j] = keys[i]
		}
		vs, es := c.getBatchCtx(tc, k)
		for j, i := range idx {
			vals[i] = vs[j]
		}
		return es
	})
	endOp(cc.tracer, tc, t0, client.FirstErr(errs))
	return vals, errs
}

// batched drives the group/run/retry loop shared by PutBatch and
// GetBatch: group pending indices by owning instance under the current
// map, run each group, keep wrong-epoch-rejected indices pending for
// the next round (under a refreshed map), and write final outcomes into
// errs.
func (cc *ClusterClient) batched(tc *trace.Ctx, pending []int, errs []error, keyAt func(i int) []byte, run func(c *Client, tc *trace.Ctx, idx []int) []error) {
	backoff := ccRouteBackoff
	staleRounds := 0
	for attempt := 0; attempt < ccRouteAttempts && len(pending) > 0; attempt++ {
		if attempt > 0 {
			tRetry := traceNow(tc)
			time.Sleep(backoff)
			tc.Add("route_retry", tRetry, traceNow(tc))
			backoff = jitteredBackoff(backoff, ccRouteBackoff, ccRouteMaxBackoff, nil)
		}
		m, err := cc.currentMap()
		if err != nil {
			for _, i := range pending {
				errs[i] = err
			}
			continue // errs are overwritten if a later round succeeds
		}
		groups := make(map[string][]int)
		insts := make(map[string]cluster.Instance)
		for _, i := range pending {
			in, _, ok := m.InstanceForKey(keyAt(i))
			if !ok {
				errs[i] = fmt.Errorf("tcpkv: no instance owns key under epoch %d", m.Epoch)
				continue
			}
			groups[in.Name] = append(groups[in.Name], i)
			insts[in.Name] = in
		}
		var next []int
		staleRound := false
		for name, idx := range groups {
			c, err := cc.clientFor(insts[name])
			if err != nil {
				for _, i := range idx {
					errs[i] = err
				}
				next = append(next, idx...)
				cc.router.Invalidate()
				continue
			}
			c.SetClusterEpoch(m.Epoch)
			res := run(c, tc, idx)
			dropped := false
			for j, i := range idx {
				errs[i] = res[j]
				var we *cluster.WrongEpochError
				switch {
				case errors.As(res[j], &we):
					cc.noteWrongEpoch(we)
					if we.Epoch < m.Epoch {
						staleRound = true
					}
					next = append(next, i)
				case transient(res[j]) || errors.Is(res[j], ErrRetryable):
					// Instance failure mid-group: sever once, re-route the
					// whole group's failed indices under a fresh map.
					if !dropped {
						dropped = true
						cc.dropClient(c)
						cc.router.Invalidate()
					}
					next = append(next, i)
				}
			}
		}
		// Same stale-instance bound as doCtx: rounds rejected at an epoch
		// older than the routing map cannot converge by refetching.
		if staleRound {
			if staleRounds++; staleRounds >= ccStaleRounds {
				for _, i := range next {
					errs[i] = fmt.Errorf("%w: %v", ErrRouteStale, errs[i])
				}
				return
			}
		} else {
			staleRounds = 0
		}
		pending = next
	}
}
