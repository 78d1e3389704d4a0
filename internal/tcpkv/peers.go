package tcpkv

import (
	"maps"
	"net"
	"sync"
	"time"
)

// peerRetryPause is how long a quick retry waits before redialing.
const peerRetryPause = 2 * time.Millisecond

// peers is the one table of connections an instance (or the routed
// client) keeps to cluster instances, by instance name, and the one place
// a failed connection is replaced. Every connection is dialed lazily, the
// table's timeout bounding the connect and the handshake as well as each
// call. A call that fails at the transport drops its connection, so the
// next call to that name redials — a peer restarted on the same address
// is reachable again — and close tears every connection down at once.
//
// A quick table (the server's) also retries such a call once, after
// peerRetryPause, on a freshly dialed connection, when the one that failed
// was already in the table: a transport blip on the mirror link must not
// demote a healthy backup, and every peer RPC (map fetch and push, join,
// record append and pull) is idempotent. A failed dial is not retried, so
// a hung peer costs a call at most two timeouts. The routed client's table
// makes one attempt: its route loop is its retry.
type peers struct {
	timeout time.Duration
	quick   bool
	mu      sync.Mutex
	conns   map[string]*Client
	closed  bool
}

func newPeers(timeout time.Duration, quick bool) *peers {
	return &peers{timeout: timeout, quick: quick, conns: make(map[string]*Client)}
}

// conn returns the connection to instance name at addr, dialing one when
// the table has none (or has one to an older address); held reports that
// the table already had it.
func (p *peers) conn(name, addr string) (c *Client, held bool, err error) {
	p.mu.Lock()
	c, closed := p.conns[name], p.closed
	p.mu.Unlock()
	if closed {
		return nil, false, net.ErrClosed
	}
	if c != nil && c.addr == addr {
		return c, true, nil
	}
	// Dial outside the lock: a slow peer must not stall calls to the others.
	nc, err := dial(addr, p.timeout)
	if err != nil {
		return nil, false, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		nc.Close()
		return nil, false, net.ErrClosed
	}
	if cur := p.conns[name]; cur != nil {
		if cur.addr == addr { // a concurrent caller dialed first
			nc.Close()
			return cur, false, nil
		}
		cur.Close() // the instance moved
	}
	p.conns[name] = nc
	return nc, false, nil
}

// drop removes c from the table (if it is still name's connection) and
// closes it: the next call to name redials.
func (p *peers) drop(name string, c *Client) {
	p.mu.Lock()
	if p.conns[name] == c {
		delete(p.conns, name)
	}
	p.mu.Unlock()
	c.Close()
}

// call runs fn on the connection to name, dropping it when fn fails at
// the transport; a quick table then runs fn once more on a fresh
// connection if the failed one was held from before.
func (p *peers) call(name, addr string, fn func(c *Client) error) error {
	for retry := p.quick; ; retry = false {
		c, held, err := p.conn(name, addr)
		if err != nil {
			return err
		}
		if err = fn(c); !transient(err) {
			return err
		}
		p.drop(name, c)
		if !retry || !held {
			return err
		}
		time.Sleep(peerRetryPause)
	}
}

// once runs fn on a connection to addr that the table does not keep: a
// join's seed, a routed client's bootstrap map fetch.
func (p *peers) once(addr string, fn func(c *Client) error) error {
	c, err := dial(addr, p.timeout)
	if err != nil {
		return err
	}
	defer c.Close()
	return fn(c)
}

// clients returns the connections currently in the table, by name.
func (p *peers) clients() map[string]*Client {
	p.mu.Lock()
	defer p.mu.Unlock()
	return maps.Clone(p.conns)
}

// close tears every connection down; later calls fail with net.ErrClosed.
func (p *peers) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	for name, c := range p.conns {
		c.Close()
		delete(p.conns, name)
	}
}
