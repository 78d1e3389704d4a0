package tcpkv

import (
	"net"
	"sync/atomic"
	"testing"

	"efactory/internal/nvm"
)

// chanCalls counts the Read and Write calls a server makes on the
// connections of one channel.
type chanCalls struct{ reads, writes atomic.Int64 }

// countingListener hands the server connections that count their calls
// per channel.
type countingListener struct {
	net.Listener
	oneSided, pipelined chanCalls
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: conn, ln: l}, nil
}

// countingConn attributes its calls to a channel once the server has read
// the channel byte, which it reads alone.
type countingConn struct {
	net.Conn
	ln    *countingListener
	calls atomic.Pointer[chanCalls]
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if cc := c.calls.Load(); cc != nil {
		cc.reads.Add(1)
	} else if n > 0 {
		switch p[0] {
		case chanOneSided:
			c.calls.Store(&c.ln.oneSided)
		case chanRPCPipe:
			c.calls.Store(&c.ln.pipelined)
		}
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	if cc := c.calls.Load(); cc != nil {
		cc.writes.Add(1)
	}
	return c.Conn.Write(p)
}

// TestBurstRepliesCoalesce pins the buffered transport in calls, not
// time: the one-sided server answers a burst of 64 WRITEs or 128 READs
// with about one write, and the pipelined server reads a request frame
// with about one read. Both are averages, so a burst split across TCP
// segments does not fail the test.
func TestBurstRepliesCoalesce(t *testing.T) {
	const (
		width  = 64
		rounds = 100
	)
	cfg := smallConfig()
	srv, err := NewServer(nvm.New(cfg.DeviceSize()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &countingListener{Listener: inner}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	cl, err := Dial(inner.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// One client write per burst: the denominator.
	bursts := &writeCounter{Conn: cl.osConn}
	cl.mu.Lock()
	cl.osConn = bursts
	cl.mu.Unlock()

	keys, vals := benchKVs(width, 256)
	errs := make([]error, 0, width)
	osWrites, pipeReads := ln.oneSided.writes.Load(), ln.pipelined.reads.Load()
	for i := 0; i < rounds; i++ {
		for j, err := range cl.PutBatchInto(keys, vals, errs) {
			if err != nil {
				t.Fatalf("put batch %d key %d: %v", i, j, err)
			}
		}
	}
	// Each PutBatch is one TPutBatch request frame and one WRITE burst.
	perFrame := float64(ln.pipelined.reads.Load()-pipeReads) / rounds
	perBurst := float64(ln.oneSided.writes.Load()-osWrites) / float64(bursts.writes)
	t.Logf("PutBatch: %.2f pipelined server reads per request frame, %.2f one-sided server writes per burst (%d bursts)",
		perFrame, perBurst, bursts.writes)
	if perFrame > 1.5 {
		t.Errorf("pipelined server reads %.2f times per request frame, want at most 1.5", perFrame)
	}
	if perBurst > 2 {
		t.Errorf("PutBatch: one-sided server writes %.2f times per burst, want at most 2", perBurst)
	}

	waitDurable(t, srv)
	osWrites, osReads := ln.oneSided.writes.Load(), ln.oneSided.reads.Load()
	bursts.writes = 0
	for i := 0; i < rounds; i++ {
		_, errs := cl.GetBatch(keys)
		for j, err := range errs {
			if err != nil {
				t.Fatalf("get batch %d key %d: %v", i, j, err)
			}
		}
	}
	perBurst = float64(ln.oneSided.writes.Load()-osWrites) / float64(bursts.writes)
	t.Logf("GetBatch: %.2f one-sided server writes and %.2f reads per burst (%d bursts)",
		perBurst, float64(ln.oneSided.reads.Load()-osReads)/float64(bursts.writes), bursts.writes)
	if perBurst > 2 {
		t.Errorf("GetBatch: one-sided server writes %.2f times per burst, want at most 2", perBurst)
	}
}
