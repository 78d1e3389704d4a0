// Shared transport-recovery policy for the client's two channels. The
// pipelined RPC channel and the lock-step one-sided channel fail in the
// same ways (resets, stalls, torn frames) and must recover the same way:
// one RetryPolicy drives both, one deadline discipline bounds each
// attempt on both, and one dial helper re-establishes either. Keeping
// these here — instead of copy-pasted per channel — is what guarantees
// the two channels can never drift apart on timeout or backoff behavior.
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
// and maps to success, not ErrNotFound. The rule lives here, once, so
// the single-connection retry loop and the routed client's failover
// re-route can never drift apart: ClusterClient.Delete threads ONE
// state through every route attempt.
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

// RetryPolicy governs how the client reacts to transient transport
// failures (connection resets, timeouts, truncated response frames): each
// op is retried on a fresh pair of connections with exponential backoff
// under decorrelated jitter (see jitteredBackoff), so clients that failed
// together do not retry in lock-step against a recovering server.
// Retried ops are at-least-once — a lost response frame does not reveal
// whether the server applied the op, so a retried PUT may write twice and
// a retried DELETE may find the key already gone (the client maps that to
// success, not ErrNotFound, when a prior attempt's outcome was unknown;
// the rule is delRetryState and survives re-routing across a failover).
type RetryPolicy struct {
	Attempts   int           // total tries per op; <= 1 means no retry
	Backoff    time.Duration // delay before the first retry; later delays drawn from [Backoff, 3*prev]
	MaxBackoff time.Duration // backoff cap (0 = uncapped)
	Timeout    time.Duration // per-attempt I/O deadline (0 = none)
}

// DefaultRetryPolicy is a sensible policy for flaky networks.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		Attempts:   4,
		Backoff:    2 * time.Millisecond,
		MaxBackoff: 50 * time.Millisecond,
		Timeout:    2 * time.Second,
	}
}

// attemptDeadline is the per-attempt deadline discipline both channels
// share: arm the connection's deadline before the guarded I/O and clear
// it again on success, so nothing is owed between ops and an idle
// connection never trips over a stale deadline later. set is whichever
// deadline setter bounds exactly the I/O the channel owes (SetDeadline
// for the lock-step one-sided exchange, SetWriteDeadline for the
// pipelined writer, whose read side is bounded per call instead).
type attemptDeadline struct {
	set func(time.Time) error
	d   time.Duration
}

func (a attemptDeadline) guard(op func() error) error {
	if a.d > 0 {
		a.set(time.Now().Add(a.d))
	}
	if err := op(); err != nil {
		return err
	}
	if a.d > 0 {
		return a.set(time.Time{})
	}
	return nil
}

// dialChannel opens one connection to addr within timeout (0 = none) and
// announces its channel kind with the one-byte handshake every tcpkv
// channel starts with.
func dialChannel(addr string, kind byte, timeout time.Duration) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	if _, err := conn.Write([]byte{kind}); err != nil {
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

// retrying runs do under the client's RetryPolicy: on a transient error it
// backs off (exponentially, capped), reconnects, and tries again. Each
// caller replays only its own op — sequences already acknowledged on the
// shared pipelined connection are never resent.
func (c *Client) retrying(do func() error) error {
	c.mu.Lock()
	rp := c.retry
	c.mu.Unlock()
	attempts := rp.Attempts
	if attempts < 1 {
		attempts = 1
	}
	backoff := rp.Backoff
	var (
		gen uint64
		err error
	)
	for i := 0; i < attempts; i++ {
		if i > 0 {
			c.mu.Lock()
			c.Retries++
			c.mu.Unlock()
			if backoff > 0 {
				time.Sleep(backoff)
				backoff = jitteredBackoff(backoff, rp.Backoff, rp.MaxBackoff, c.jitter)
			}
			var rerr error
			if gen, rerr = c.reconnect(gen); rerr != nil {
				err = rerr
				continue
			}
		}
		// The generation this attempt runs against: a failure redials only
		// if nobody else has since this point.
		c.mu.Lock()
		gen = c.gen
		c.mu.Unlock()
		err = do()
		if !transient(err) {
			return err
		}
	}
	return err
}
