package tcpkv

import (
	"maps"
	"net"
	"sync"
)

// peers is the one table of connections an instance (or the routed
// client) keeps to cluster instances, by instance name. Every connection
// is dialed lazily under the table's RetryPolicy, whose timeout bounds the
// connect and the handshake as well as each call. A call that fails at
// the transport drops its connection, so the next call to that name
// redials — a peer restarted on the same address is reachable again —
// and close tears every connection down at once.
type peers struct {
	rp     RetryPolicy
	mu     sync.Mutex
	conns  map[string]*Client
	closed bool
}

func newPeers(rp RetryPolicy) *peers {
	return &peers{rp: rp, conns: make(map[string]*Client)}
}

// conn returns the connection to instance name at addr, dialing one when
// the table has none (or has one to an older address).
func (p *peers) conn(name, addr string) (*Client, error) {
	p.mu.Lock()
	c, closed := p.conns[name], p.closed
	p.mu.Unlock()
	if closed {
		return nil, net.ErrClosed
	}
	if c != nil && c.addr == addr {
		return c, nil
	}
	// Dial outside the lock: a slow peer must not stall calls to the others.
	nc, err := dial(addr, p.rp)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		nc.Close()
		return nil, net.ErrClosed
	}
	if cur := p.conns[name]; cur != nil {
		if cur.addr == addr { // a concurrent caller dialed first
			nc.Close()
			return cur, nil
		}
		cur.Close() // the instance moved
	}
	p.conns[name] = nc
	return nc, nil
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
// the transport.
func (p *peers) call(name, addr string, fn func(c *Client) error) error {
	c, err := p.conn(name, addr)
	if err != nil {
		return err
	}
	err = fn(c)
	if transient(err) {
		p.drop(name, c)
	}
	return err
}

// once runs fn on a connection to addr that the table does not keep: a
// join's seed, a routed client's bootstrap map fetch.
func (p *peers) once(addr string, fn func(c *Client) error) error {
	c, err := dial(addr, p.rp)
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
