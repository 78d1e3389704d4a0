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

// SetClusterMapRPC offers the server a map and returns the epoch it holds
// afterwards. A server that does not now hold m — it already had a newer
// map, or a different one at m's epoch — answers with a
// *cluster.WrongEpochError carrying its epoch.
func (c *Client) SetClusterMapRPC(m *cluster.Map) (uint64, error) {
	resp, err := c.rpc(wire.Msg{Type: wire.TClusterMapSet, Value: m.Encode()})
	if err != nil {
		return 0, err
	}
	switch resp.Status {
	case wire.StOK:
		return uint64(resp.Token), nil
	case wire.StWrongEpoch:
		return uint64(resp.Token), wrongEpoch(resp)
	}
	return 0, fmt.Errorf("tcpkv: cluster map set status %d", resp.Status)
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

// ReplAppend ships exported records — a mirror append, or one batch of a
// migration or replica-attach copy — under the sender's map epoch. A
// *cluster.WrongEpochError return means the receiver holds a strictly
// newer map: the sender is deposed (it must stop flagging writes durable
// until it adopts that map), or its copy runs under a stale map.
func (c *Client) ReplAppend(batch []store.ExportKey, epoch uint64) error {
	bp := recBufPool.Get().(*[]byte)
	*bp = store.AppendRecords((*bp)[:0], batch)
	// Imports are idempotent, so the peer table may replay an append on
	// a fresh connection. The call copies the frame into its own request
	// buffer, so the encoded frame is free again once it returns.
	resp, err := c.rpc(wire.Msg{Type: wire.TReplAppend, Token: uint32(epoch), Value: *bp})
	recBufPool.Put(bp)
	if err != nil {
		return err
	}
	switch resp.Status {
	case wire.StOK:
		return nil
	case wire.StWrongEpoch:
		return wrongEpoch(resp)
	}
	return &replStatusError{resp.Status}
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
	recs, err := store.DecodeRecordsInto(resp.Value, nil)
	if err != nil {
		return nil, fmt.Errorf("tcpkv: repl pull: %w", err)
	}
	return recs, nil
}

// recBufPool holds the buffers ReplAppend encodes record frames into.
var recBufPool = sync.Pool{New: func() any { return new([]byte) }}

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

// ccRouteAttempts bounds how many rounds one routed op runs: its first,
// then one per re-route after wrong-epoch rejections or instance
// failures. A blocked cutover window lasts one final drain of the keys
// dirtied since the last open round; with the capped backoff below this
// budget rides out windows far longer than that.
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

// ClusterClientConfig carries the settings a ClusterClient applies to
// every connection it opens.
type ClusterClientConfig struct {
	Timeout time.Duration // per-attempt I/O deadline, bounding dial and handshake too (0 = none)
}

// defaultTimeout bounds each attempt of a routed client's connections
// unless configured otherwise.
const defaultTimeout = 2 * time.Second

// DefaultClusterClientConfig bounds each attempt by defaultTimeout.
func DefaultClusterClientConfig() ClusterClientConfig {
	return ClusterClientConfig{Timeout: defaultTimeout}
}

// ClusterClient is a routed client over a set of tcpkv instances.
// Methods are safe for concurrent use.
type ClusterClient struct {
	router cluster.Router
	peers  *peers // per-instance connections, one attempt each: route is the only retry

	mu      sync.Mutex
	seed    string       // bootstrap address, used while the map is cold
	lastMap *cluster.Map // last map ever installed; map-refetch fallback when the seed died

	// WrongEpochRetries counts op rounds on one instance that re-routed
	// after an StWrongEpoch rejection; MapRefreshes counts TClusterMap
	// fetches. Read quiesced.
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
	cc.tracer = newTracer(sampleEvery, slowNS)
}

// Tracer returns the routed client's retained-trace store (nil when
// tracing was never enabled).
func (cc *ClusterClient) Tracer() *trace.Tracer { return cc.tracer }

// DialCluster bootstraps a routed client from any instance's address:
// the seed serves the initial map, after which ops route per-key. Every
// connection makes one attempt per call, bounded by cfg.Timeout: a
// transport failure reaches the route loop at once, which refetches the
// map and redials instead of retrying an instance that may be gone.
func DialCluster(seed string, cfg ClusterClientConfig) (*ClusterClient, error) {
	cc := &ClusterClient{peers: newPeers(cfg.Timeout, false), seed: seed}
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
	cc.peers.close()
	return nil
}

// Clients returns the per-instance clients currently connected, keyed by
// instance name (tests and stats aggregation; do not Close them).
func (cc *ClusterClient) Clients() map[string]*Client { return cc.peers.clients() }

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

// currentMap returns the cached map, fetching one when the cache is cold
// or was invalidated. Fetches ask every instance the last-known map
// listed, through the connection table (a dead pipe is dropped and the
// next instance tried), then the seed — so neither one dead instance nor
// specifically the dead SEED can blind the client: after a primary crash
// the survivors named in the stale map still answer.
func (cc *ClusterClient) currentMap() (*cluster.Map, error) {
	if m := cc.router.Current(); m != nil {
		return m, nil
	}
	cc.mu.Lock()
	cc.MapRefreshes++
	seed, last := cc.seed, cc.lastMap
	cc.mu.Unlock()
	fetch := func(c *Client) error {
		m, err := c.ClusterMapRPC()
		if err == nil {
			cc.install(m)
		}
		return err
	}
	var err error
	if last != nil {
		for _, in := range last.Instances {
			if err = cc.peers.call(in.Name, in.Addr, fetch); err == nil {
				return cc.router.Current(), nil
			}
		}
	}
	// Cold cache (or every known instance failed): ask the seed directly.
	if serr := cc.peers.once(seed, fetch); serr != nil {
		if err == nil {
			err = serr
		}
		return nil, fmt.Errorf("tcpkv: no cluster map: %w", err)
	}
	return cc.router.Current(), nil
}

// routeScratch holds one routed op's index buffers, pooled so the route
// loop's bookkeeping allocates nothing per op.
type routeScratch struct {
	pending, next, group []int
	owner                []cluster.Instance // owner[j] serves pending[j] this round; Name "" once grouped or unowned
}

var routeScratchPool = sync.Pool{New: func() any { return new(routeScratch) }}

// route is the routed client's one retry loop, under every op. Each
// round groups the pending indices of keys by owning instance under the
// current map and runs each group once on that instance's connection:
// run makes one attempt over keys[idx] and leaves each index's outcome
// in errs. An index whose outcome is a wrong-epoch reject, a transport
// failure or ErrRetryable stays pending for the next round; any other
// outcome is final. A single-key op is a group of one. With txn set the
// keys must resolve to one instance, so run sees every index, in order;
// keys split between instances fail whole with ErrTxnCrossInstance.
//
// Rounds share one attempt budget, one backoff schedule and one
// stale-round bound. A transport failure drops the instance's connection
// and, like ErrRetryable, a key no instance owns and a rejection proving
// a newer epoch, drops the cached map: the next round refetches it and
// redials, so after a failover the key's new owner is one refetch away.
// A rejection at the map's own epoch keeps it — a blocked cutover
// window, which the backoff rides out.
func (cc *ClusterClient) route(name string, keys [][]byte, txn bool, errs []error, run func(c *Client, tc *trace.Ctx, idx []int)) {
	tc, t0 := beginOp(cc.tracer, name, batchHash(keys))
	rs := routeScratchPool.Get().(*routeScratch)
	pending, next := rs.pending[:0], rs.next[:0]
	for i := range keys {
		pending = append(pending, i)
	}
	backoff := ccRouteBackoff
	staleRounds := 0
	for attempt := 0; attempt < ccRouteAttempts && len(pending) > 0; attempt++ {
		if attempt > 0 {
			// The route_retry span covers the backoff sleep: the gap
			// between a rejected round and the re-routed one.
			tRetry := traceNow(tc)
			time.Sleep(backoff)
			tc.Add("route_retry", tRetry, traceNow(tc))
			backoff = jitteredBackoff(backoff, ccRouteBackoff, ccRouteMaxBackoff, nil)
		}
		next = next[:0]
		m, err := cc.currentMap()
		if err != nil {
			for _, i := range pending {
				errs[i] = err
			}
			continue // every index stays pending
		}
		var owner []cluster.Instance
		owner, next = rs.resolve(m, keys, pending, txn, errs, next)
		if len(next) > 0 {
			cc.router.Invalidate()
		}
		staleRound := false
		for j, in := range owner {
			if in.Name == "" {
				continue
			}
			group := rs.group[:0]
			for k := j; k < len(owner); k++ {
				if owner[k].Name == in.Name {
					group = append(group, pending[k])
					owner[k].Name = ""
				}
			}
			rs.group = group
			var stale bool
			next, stale = cc.attempt(m, in, tc, group, errs, next, run)
			staleRound = staleRound || stale
		}
		if staleRound {
			if staleRounds++; staleRounds >= ccStaleRounds {
				for _, i := range next {
					errs[i] = fmt.Errorf("%w: %v", ErrRouteStale, errs[i])
				}
				next = next[:0]
			}
		} else {
			staleRounds = 0
		}
		pending, next = next, pending
	}
	rs.pending, rs.next = pending, next
	routeScratchPool.Put(rs)
	endOp(cc.tracer, tc, t0, client.FirstErr(errs))
}

// resolve finds each pending index's owner under m, in rs.owner. A key
// no instance owns gets its error and joins next; under txn it holds the
// whole transaction back, and keys split between instances fail whole
// with ErrTxnCrossInstance. Either way nothing of a transaction runs
// this round: the returned owners are empty.
func (rs *routeScratch) resolve(m *cluster.Map, keys [][]byte, pending []int, txn bool, errs []error, next []int) ([]cluster.Instance, []int) {
	owner := rs.owner[:0]
	for _, i := range pending {
		in, _, ok := m.InstanceForKey(keys[i])
		if !ok {
			errs[i] = fmt.Errorf("tcpkv: no instance owns key under epoch %d", m.Epoch)
			next = append(next, i)
		}
		owner = append(owner, in)
	}
	rs.owner = owner
	if !txn {
		return owner, next
	}
	if len(next) > 0 {
		for _, i := range pending {
			errs[i] = errs[next[0]]
		}
		return owner[:0], append(next[:0], pending...)
	}
	for _, in := range owner {
		if in.Name != owner[0].Name {
			err := fmt.Errorf("%w: keys split between %s and %s under epoch %d", ErrTxnCrossInstance, owner[0].Name, in.Name, m.Epoch)
			for _, i := range pending {
				errs[i] = err
			}
			return owner[:0], next
		}
	}
	return owner, next
}

// attempt runs one group of route's round on in's connection, stamped
// with m's epoch, and appends the indices to retry to next. stale reports
// a rejection at an epoch older than m.
func (cc *ClusterClient) attempt(m *cluster.Map, in cluster.Instance, tc *trace.Ctx, idx []int, errs []error, next []int, run func(c *Client, tc *trace.Ctx, idx []int)) (_ []int, stale bool) {
	c, _, err := cc.peers.conn(in.Name, in.Addr)
	if err != nil {
		for _, i := range idx {
			errs[i] = err
		}
	} else {
		c.SetClusterEpoch(m.Epoch)
		run(c, tc, idx)
	}
	var rejected *cluster.WrongEpochError
	dead, suspect := false, false
	for _, i := range idx {
		e := errs[i]
		if e == nil {
			continue
		}
		var we *cluster.WrongEpochError
		switch {
		case errors.As(e, &we):
			rejected = we
		case transient(e):
			dead = c != nil
			suspect = true
		case errors.Is(e, ErrRetryable):
			suspect = true
		default:
			continue // a final outcome
		}
		next = append(next, i)
	}
	if dead {
		cc.peers.drop(in.Name, c)
	}
	if suspect {
		cc.router.Invalidate()
	}
	if rejected != nil {
		cc.router.Observe(rejected.Epoch) // drops the map only for a newer epoch
		cc.mu.Lock()
		cc.WrongEpochRetries++
		cc.mu.Unlock()
		stale = rejected.Epoch < m.Epoch
	}
	return next, stale
}

// one routes a single-key op: a group of one.
func (cc *ClusterClient) one(name string, key []byte, run func(c *Client, tc *trace.Ctx) error) error {
	keys, errs := [1][]byte{key}, [1]error{}
	cc.route(name, keys[:], false, errs[:], func(c *Client, tc *trace.Ctx, _ []int) { errs[0] = run(c, tc) })
	return errs[0]
}

// Put stores value under key on the instance owning it.
func (cc *ClusterClient) Put(key, value []byte) error {
	return cc.one("put", key, func(c *Client, tc *trace.Ctx) error { return c.core.Put(tc, key, value) })
}

// Get fetches key's value from the instance owning it.
func (cc *ClusterClient) Get(key []byte) ([]byte, error) {
	var out []byte
	err := cc.one("get", key, func(c *Client, tc *trace.Ctx) (err error) {
		out, err = c.core.Get(tc, key)
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
	return cc.one("del", key, func(c *Client, tc *trace.Ctx) error { return c.delAttempt(tc, key, &st) })
}

// ErrTxnCrossInstance reports a transactional op whose keys resolve to
// more than one instance under the current cluster map. Transactions are
// single-instance atomic (one store, one commit record); a caller that
// needs a cross-instance transaction must re-partition its keys.
// Terminal, not retryable: refetching the map cannot merge two placement
// groups.
var ErrTxnCrossInstance = errors.New("tcpkv: transaction spans multiple instances")

// TxnCommit commits keys[i] -> vals[i] atomically on the single instance
// owning every key (the fast path — and today the only path; a key set
// spanning instances fails whole with ErrTxnCrossInstance). Returns the
// transaction id; on failure no op is applied. An empty commit returns
// (0, nil) without a request.
func (cc *ClusterClient) TxnCommit(keys, vals [][]byte) (uint64, error) {
	if len(keys) != len(vals) {
		panic("tcpkv: TxnCommit keys/vals length mismatch")
	}
	if len(keys) == 0 {
		return 0, nil
	}
	var id uint64
	errs := make([]error, len(keys))
	cc.route("txn_commit", keys, true, errs, func(c *Client, tc *trace.Ctx, _ []int) {
		var err error
		id, err = c.core.TxnCommit(tc, keys, vals)
		for i := range errs {
			errs[i] = err
		}
	})
	return id, errs[0]
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
	cc.route("txn_read", keys, true, errs, func(c *Client, tc *trace.Ctx, _ []int) {
		c.core.TxnRead(tc, keys, vals, errs)
	})
	return vals, errs
}

// PutBatch stores the pairs, grouping ops by owning instance so each
// group rides that instance's multi-op PUT path. Groups run
// sequentially; keys rejected with wrong-epoch, or whose instance
// failed, re-group under the refreshed map and retry (see route).
// Results are index-aligned with keys.
func (cc *ClusterClient) PutBatch(keys, values [][]byte) []error {
	if len(keys) != len(values) {
		panic("tcpkv: PutBatch keys/values length mismatch")
	}
	errs := make([]error, len(keys))
	cc.route("put_batch", keys, false, errs, func(c *Client, tc *trace.Ctx, idx []int) {
		ge := make([]error, len(idx))
		c.core.PutBatch(tc, pick(keys, idx), pick(values, idx), ge)
		for j, i := range idx {
			errs[i] = ge[j]
		}
	})
	return errs
}

// GetBatch fetches the keys, grouped by owning instance like PutBatch.
// values[i] is valid iff errs[i] is nil.
func (cc *ClusterClient) GetBatch(keys [][]byte) ([][]byte, []error) {
	vals := make([][]byte, len(keys))
	errs := make([]error, len(keys))
	cc.route("get_batch", keys, false, errs, func(c *Client, tc *trace.Ctx, idx []int) {
		gv, ge := make([][]byte, len(idx)), make([]error, len(idx))
		c.core.GetBatch(tc, pick(keys, idx), gv, ge)
		for j, i := range idx {
			vals[i], errs[i] = gv[j], ge[j]
		}
	})
	return vals, errs
}

// pick gathers s's elements at idx.
func pick[T any](s []T, idx []int) []T {
	out := make([]T, len(idx))
	for j, i := range idx {
		out[j] = s[i]
	}
	return out
}

// batchHash is the key hash a routed op's root span carries (first key).
func batchHash(keys [][]byte) uint64 {
	if len(keys) == 0 {
		return 0
	}
	return kv.HashKey(keys[0])
}
