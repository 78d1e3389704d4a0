package tcpkv

import (
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"efactory/internal/client"
	"efactory/internal/wire"
)

// blackholeServer accepts connections, swallows the channel handshake
// byte, and then reads (and discards) everything without ever answering —
// the worst-case stall for both client channels.
func blackholeServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go io.Copy(io.Discard, conn)
		}
	}()
	return ln.Addr().String()
}

// TestBothChannelsHonourAttemptDeadline pins the satellite's contract: the
// pipelined RPC channel and the one-sided channel apply the SAME
// per-attempt deadline from the shared RetryPolicy. Against a server that
// never answers, a call on either channel must fail with a deadline
// expiry (classified transient, so retries would engage) in bounded time.
func TestBothChannelsHonourAttemptDeadline(t *testing.T) {
	addr := blackholeServer(t)
	const d = 60 * time.Millisecond
	c := &Client{addr: addr}
	c.retry = RetryPolicy{Attempts: 1, Timeout: d}
	c.mu.Lock()
	err := c.dialLocked()
	c.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	check := func(channel string, err error, elapsed time.Duration) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: call against a black-hole server succeeded", channel)
		}
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("%s: err = %v, want deadline expiry", channel, err)
		}
		if !transient(err) {
			t.Fatalf("%s: deadline expiry %v not classified transient", channel, err)
		}
		if elapsed < d/2 || elapsed > 20*d {
			t.Fatalf("%s: deadline fired after %v, policy says %v", channel, elapsed, d)
		}
	}

	start := time.Now()
	_, err = c.rpc(wire.Msg{Type: wire.THello})
	check("pipelined", err, time.Since(start))

	start = time.Now()
	err = c.osBurst([]client.Req{{Buf: make([]byte, 8), RKey: 1}})
	check("one-sided", err, time.Since(start))
}
