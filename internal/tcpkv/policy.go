// Shared transport policy: one dial helper opens a client's connection,
// and one classifier (transient) tells the callers that recover — the
// peer table and the route loop — which failures a fresh connection may
// cure.
package tcpkv

import (
	"errors"
	"io"
	"math/rand"
	"net"
	"syscall"
	"time"
)

// ErrRetryable classifies server responses that left the op unapplied or
// unacknowledged — e.g. a DELETE whose tombstone missed its replication
// quorum. Unlike protocol outcomes (ErrNotFound) it is safe and
// necessary to retry, possibly on a different instance after a failover;
// the routed client re-routes on it like a transport failure.
var ErrRetryable = errors.New("tcpkv: retryable server error")

// ErrRouteStale reports that routing made no progress: an instance kept
// rejecting ops with an epoch OLDER than the map that routed there, so
// refetching cannot converge (the cluster is mid-failover, or the cached
// map points at a deposed instance that never learned its successor).
// Retryable — by the time the caller retries, the promoted instance has
// usually pushed its map.
var ErrRouteStale = errors.New("tcpkv: routing stalled on a stale instance")

// delRetryState carries a DELETE's at-least-once ambiguity across
// attempts — including re-routes to a different instance after a
// failover. Once any attempt ends without revealing whether the server
// applied the op (transport error, or an unacknowledged quorum
// failure), a later StNotFound means an earlier attempt's delete landed
// and maps to success, not ErrNotFound. The rule lives here, once, and
// runs in Client.delAttempt, the one DELETE attempt both Client.Delete
// and the routed client's route loop make: ClusterClient.Delete threads
// ONE state through every route attempt.
type delRetryState struct {
	unknown bool
}

// noteUnknown records an attempt whose server-side effect is unknown.
func (d *delRetryState) noteUnknown() { d.unknown = true }

// mapNotFound resolves a not-found outcome under the at-least-once rule.
func (d *delRetryState) mapNotFound() error {
	if d.unknown {
		return nil // an earlier attempt's delete landed
	}
	return ErrNotFound
}

// jitteredBackoff returns the next retry delay under decorrelated
// jitter: uniform in [base, 3*prev], capped at max (when max > 0).
// Plain doubling synchronizes every client that failed together — after
// a failover they all hammer the promoted primary on the same schedule;
// the decorrelated draw keeps the herd spread while still backing off
// exponentially in expectation. intn is the random source (nil uses the
// process-wide one); tests inject a seeded source for determinism.
func jitteredBackoff(prev, base, max time.Duration, intn func(int64) int64) time.Duration {
	if base <= 0 {
		return prev
	}
	if intn == nil {
		intn = rand.Int63n
	}
	d := base
	if span := 3*prev - base; span > 0 {
		d = base + time.Duration(intn(int64(span)))
	}
	if max > 0 && d > max {
		d = max
	}
	return d
}

// dialChannel opens one connection to addr within timeout (0 = none) and
// announces the pipelined channel with the one-byte handshake every tcpkv
// connection starts with.
func dialChannel(addr string, timeout time.Duration) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	if _, err := conn.Write([]byte{chanRPCPipe}); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// transient reports whether err is a transport failure worth retrying on
// a fresh connection. Protocol outcomes (ErrNotFound, ErrServerFull,
// status errors, NAKs) are final; connection-level failures — resets,
// closed or half-closed connections, truncated frames, deadline
// expiries — are not.
func transient(err error) bool {
	if err == nil {
		return false
	}
	var ne net.Error
	return errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) ||
		errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE) ||
		errors.Is(err, syscall.ECONNREFUSED) ||
		errors.As(err, &ne)
}
