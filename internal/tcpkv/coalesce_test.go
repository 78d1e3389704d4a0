package tcpkv

import (
	"net"
	"sync/atomic"
	"testing"

	"efactory/internal/client"
	"efactory/internal/crc"
	"efactory/internal/kv"
	"efactory/internal/nvm"
	"efactory/internal/wire"
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

// startCountedServer starts a server behind a countingListener and dials
// it.
func startCountedServer(t *testing.T) (*Server, *countingListener, *Client) {
	t.Helper()
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
	t.Cleanup(func() { cl.Close() })
	return srv, ln, cl
}

// ratio is num/den, failing the test when den is 0: a ratio over nothing
// is NaN, which passes every upper bound.
func ratio(t *testing.T, what string, num, den int64) float64 {
	t.Helper()
	if den == 0 {
		t.Fatalf("%s: nothing to divide by", what)
	}
	return float64(num) / float64(den)
}

// TestBurstRepliesCoalesce pins the buffered transport in calls, not
// time: the one-sided server answers a burst of 64 WRITEs or 128 READs
// with about one write, and the pipelined server reads a request frame
// with about one read. Both are averages, so a burst split across TCP
// segments does not fail the test. An inline PutBatch sends no one-sided
// frame at all, so the WRITE burst is posted directly.
func TestBurstRepliesCoalesce(t *testing.T) {
	const (
		width  = 64
		rounds = 100
	)
	srv, ln, cl := startCountedServer(t)
	// One client write per burst: the denominator.
	bursts := &writeCounter{Conn: cl.osConn}
	cl.mu.Lock()
	cl.osConn = bursts
	cl.mu.Unlock()

	keys, vals := benchKVs(width, 256)
	errs := make([]error, 0, width)
	osReads, pipeReads := ln.oneSided.reads.Load(), ln.pipelined.reads.Load()
	for i := 0; i < rounds; i++ {
		for j, err := range cl.PutBatchInto(keys, vals, errs) {
			if err != nil {
				t.Fatalf("put batch %d key %d: %v", i, j, err)
			}
		}
	}
	// Each PutBatch is one TPutBatch request frame carrying its values.
	perFrame := ratio(t, "PutBatch request frames", ln.pipelined.reads.Load()-pipeReads, rounds)
	t.Logf("PutBatch: %.2f pipelined server reads per request frame, %d one-sided bursts",
		perFrame, bursts.writes)
	if perFrame > 1.5 {
		t.Errorf("pipelined server reads %.2f times per request frame, want at most 1.5", perFrame)
	}
	if n := ln.oneSided.reads.Load() - osReads; bursts.writes != 0 || n != 0 {
		t.Errorf("inline PutBatch: %d one-sided bursts, %d one-sided server reads, want 0", bursts.writes, n)
	}

	// The allocation-only path's WRITE burst: 64 value writes to granted
	// objects, posted as the client does for a batch over the budget.
	resp, err := cl.rpc(wire.Msg{Type: wire.TPutBatch, Value: wire.AppendPutOps(nil, putOps(keys, vals), false)})
	if err != nil || resp.Status != wire.StOK {
		t.Fatalf("allocation-only put batch: status %d, %v", resp.Status, err)
	}
	grants, err := wire.DecodePutGrantsInto(resp.Value, nil)
	if err != nil || len(grants) != width {
		t.Fatalf("%d grants for %d ops: %v", len(grants), width, err)
	}
	reqs := make([]client.Req, width)
	osWrites := ln.oneSided.writes.Load()
	for i := 0; i < rounds; i++ {
		for j, g := range grants {
			reqs[j] = client.Req{Buf: vals[j], RKey: g.RKey, Off: g.Off + uint64(kv.ValueOffset(len(keys[j])))}
		}
		if err := cl.osBurst(opWrite, reqs); err != nil {
			t.Fatalf("write burst %d: %v", i, err)
		}
	}
	perBurst := ratio(t, "WRITE bursts", ln.oneSided.writes.Load()-osWrites, int64(bursts.writes))
	t.Logf("WRITE burst: %.2f one-sided server writes per burst (%d bursts)", perBurst, bursts.writes)
	if perBurst > 2 {
		t.Errorf("WRITE burst: one-sided server writes %.2f times per burst, want at most 2", perBurst)
	}

	waitDurable(t, srv)
	osWrites, osReads = ln.oneSided.writes.Load(), ln.oneSided.reads.Load()
	bursts.writes = 0
	for i := 0; i < rounds; i++ {
		_, errs := cl.GetBatch(keys)
		for j, err := range errs {
			if err != nil {
				t.Fatalf("get batch %d key %d: %v", i, j, err)
			}
		}
	}
	perBurst = ratio(t, "GetBatch bursts", ln.oneSided.writes.Load()-osWrites, int64(bursts.writes))
	t.Logf("GetBatch: %.2f one-sided server writes and %.2f reads per burst (%d bursts)",
		perBurst, ratio(t, "GetBatch bursts", ln.oneSided.reads.Load()-osReads, int64(bursts.writes)), bursts.writes)
	if perBurst > 2 {
		t.Errorf("GetBatch: one-sided server writes %.2f times per burst, want at most 2", perBurst)
	}
}

// putOps builds the wire ops of a PutBatch of keys/vals.
func putOps(keys, vals [][]byte) []wire.PutOp {
	ops := make([]wire.PutOp, len(keys))
	for i := range keys {
		ops[i] = wire.PutOp{Crc: crc.Checksum(vals[i]), VLen: len(vals[i]), Key: keys[i], Value: vals[i]}
	}
	return ops
}

// TestPutIsOneRoundTrip pins the inline PUT in frames: after warm-up, a
// Put and a 64-key PutBatchInto each cost the pipelined server exactly
// one write (its one response) and the one-sided server no read at all.
// The server's budget holds any storable object, so no single Put falls
// back to a WRITE.
func TestPutIsOneRoundTrip(t *testing.T) {
	const n = 50
	if inlineBudget < kv.MaxObjectSize {
		t.Fatalf("inline budget %d is below the largest object, %d", inlineBudget, kv.MaxObjectSize)
	}
	_, ln, cl := startCountedServer(t)
	keys, vals := benchKVs(64, 256)
	errs := make([]error, 0, len(keys))
	for i := 0; i < 4; i++ {
		if err := cl.Put(keys[i], vals[i]); err != nil {
			t.Fatal(err)
		}
		if err := client.FirstErr(cl.PutBatchInto(keys, vals, errs)); err != nil {
			t.Fatal(err)
		}
	}
	for _, leg := range []struct {
		name string
		op   func(i int) error
	}{
		{"Put", func(i int) error { return cl.Put(keys[i%len(keys)], vals[i%len(keys)]) }},
		{"PutBatchInto", func(int) error { return client.FirstErr(cl.PutBatchInto(keys, vals, errs)) }},
	} {
		pipeWrites, osReads := ln.pipelined.writes.Load(), ln.oneSided.reads.Load()
		for i := 0; i < n; i++ {
			if err := leg.op(i); err != nil {
				t.Fatalf("%s %d: %v", leg.name, i, err)
			}
		}
		if d := ln.pipelined.writes.Load() - pipeWrites; d != n {
			t.Errorf("%d %ss: %d pipelined server writes, want %d", n, leg.name, d, n)
		}
		if d := ln.oneSided.reads.Load() - osReads; d != 0 {
			t.Errorf("%d %ss: %d one-sided server reads, want 0", n, leg.name, d)
		}
	}
}
