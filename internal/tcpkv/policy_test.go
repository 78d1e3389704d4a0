package tcpkv

import (
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"efactory/internal/client"
)

// blackholeServer accepts connections, swallows the channel handshake
// byte, and then reads (and discards) everything without ever answering —
// the worst-case stall for a client.
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

// TestPipeDeadlineBoundsReadBurst pins the per-attempt timeout fixed at
// dial: against a server that never answers, the dial's own handshake
// and a READ burst each fail with a deadline expiry (classified
// transient, so the peer table and the route loop would recover) in
// bounded time.
func TestPipeDeadlineBoundsReadBurst(t *testing.T) {
	addr := blackholeServer(t)
	const d = 60 * time.Millisecond

	check := func(what string, err error, elapsed time.Duration) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: call against a black-hole server succeeded", what)
		}
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("%s: err = %v, want deadline expiry", what, err)
		}
		if !transient(err) {
			t.Fatalf("%s: deadline expiry %v not classified transient", what, err)
		}
		if elapsed < d/2 || elapsed > 20*d {
			t.Fatalf("%s: deadline fired after %v, timeout is %v", what, elapsed, d)
		}
	}

	start := time.Now()
	_, err := dial(addr, d) // the handshake is the first call
	check("handshake", err, time.Since(start))

	c, err := connect(addr, d) // no handshake
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	start = time.Now()
	err = (*verbs)(c).ReadBurst([]client.Req{{Buf: make([]byte, 8), RKey: 1}})
	check("READ burst", err, time.Since(start))
}
