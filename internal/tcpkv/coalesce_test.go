package tcpkv

import (
	"bytes"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"efactory/internal/client"
	"efactory/internal/kv"
	"efactory/internal/nvm"
)

// chanCalls counts the Read and Write calls a server makes on the
// connections of one channel, and stamps the latest of each with its
// place in the listener's sequence of calls.
type chanCalls struct{ reads, writes, lastRead, lastWrite atomic.Int64 }

// countingListener hands the server connections that count their calls
// per channel.
type countingListener struct {
	net.Listener
	oneSided, pipelined chanCalls
	calls               atomic.Int64 // every counted call, both channels
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
		cc.lastRead.Store(c.ln.calls.Add(1))
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
		cc.lastWrite.Store(c.ln.calls.Add(1))
	}
	return c.Conn.Write(p)
}

// startCountedServer starts a server on cfg behind a countingListener and
// dials it.
func startCountedServer(t *testing.T, cfg Config) (*Server, *countingListener, *Client) {
	t.Helper()
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
// time: the one-sided server answers a burst of 128 READs with about one
// write, and the pipelined server reads a request frame with about one
// read. Both are averages, so a burst split across TCP segments does not
// fail the test. A PutBatch sends no one-sided frame at all.
func TestBurstRepliesCoalesce(t *testing.T) {
	const (
		width  = 64
		rounds = 100
	)
	srv, ln, cl := startCountedServer(t, smallConfig())
	// One client write per burst: the denominator.
	bursts := &writeCounter{Conn: cl.osConn}
	cl.osConn = bursts

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

	waitDurable(t, srv)
	osWrites, osReads := ln.oneSided.writes.Load(), ln.oneSided.reads.Load()
	for i := 0; i < rounds; i++ {
		_, errs := cl.GetBatch(keys)
		for j, err := range errs {
			if err != nil {
				t.Fatalf("get batch %d key %d: %v", i, j, err)
			}
		}
	}
	perBurst := ratio(t, "GetBatch bursts", ln.oneSided.writes.Load()-osWrites, int64(bursts.writes))
	t.Logf("GetBatch: %.2f one-sided server writes and %.2f reads per burst (%d bursts)",
		perBurst, ratio(t, "GetBatch bursts", ln.oneSided.reads.Load()-osReads, int64(bursts.writes)), bursts.writes)
	if perBurst > 2 {
		t.Errorf("GetBatch: one-sided server writes %.2f times per burst, want at most 2", perBurst)
	}
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
	_, ln, cl := startCountedServer(t, smallConfig())
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

// TestReadIsAtMostTwoRoundTrips pins the read in frames, with the server's
// inline budget. Each of n 64-key GetBatches mixes settled hinted keys,
// keys the client holds no hint for, and the client's own write, which
// is not durable yet because the verifier never runs. Together they may
// move the one-sided server's reads by at most n, one hinted burst
// each, and the pipelined server's writes by at most n, one read RPC
// each: no probe walk, no READ after the RPC. A Get of an undurable own
// write is then exactly one burst and one RPC, in that order.
func TestReadIsAtMostTwoRoundTrips(t *testing.T) {
	const (
		n        = 10
		hinted   = 40
		unhinted = 23
	)
	cfg := smallConfig()
	cfg.BGInterval, cfg.VerifyTimeout = time.Hour, time.Hour
	srv, ln, cl := startCountedServer(t, cfg)
	other, err := Dial(cl.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	settle := func() { srv.Store().Shard(0).BGDrain(nil, 64) }

	keys, vals := benchKVs(hinted+n*unhinted, 256)
	own, ownVal := []byte("own-write"), bytes.Repeat([]byte{'o'}, 256)
	if err := client.FirstErr(cl.PutBatch(keys[:hinted], vals[:hinted])); err != nil {
		t.Fatal(err)
	}
	// The unhinted keys are another client's writes.
	if err := client.FirstErr(other.PutBatch(keys[hinted:], vals[hinted:])); err != nil {
		t.Fatal(err)
	}
	settle()
	if _, errs := cl.GetBatch(keys[:hinted]); client.FirstErr(errs) != nil {
		t.Fatal(client.FirstErr(errs))
	}

	var osReads, pipeWrites int64
	before := cl.Stats
	var batch, want [][]byte
	for i := 0; i < n; i++ {
		if err := cl.Put(own, ownVal); err != nil {
			t.Fatal(err)
		}
		lo, hi := hinted+i*unhinted, hinted+(i+1)*unhinted
		batch = append(append(append(batch[:0], keys[:hinted]...), keys[lo:hi]...), own)
		want = append(append(append(want[:0], vals[:hinted]...), vals[lo:hi]...), ownVal)
		r, w := ln.oneSided.reads.Load(), ln.pipelined.writes.Load()
		got, errs := cl.GetBatch(batch)
		osReads += ln.oneSided.reads.Load() - r
		pipeWrites += ln.pipelined.writes.Load() - w
		for j, k := range batch {
			if errs[j] != nil || !bytes.Equal(got[j], want[j]) {
				t.Fatalf("batch %d key %q: %d bytes, %v", i, k, len(got[j]), errs[j])
			}
		}
	}
	t.Logf("%d GetBatches: %d one-sided server reads, %d pipelined server writes", n, osReads, pipeWrites)
	if osReads > n || pipeWrites > n {
		t.Errorf("%d GetBatches moved the one-sided server's reads by %d and the pipelined server's writes by %d, want at most %d each",
			n, osReads, pipeWrites, n)
	}
	if d := cl.Stats.RPCReads - before.RPCReads; d != n*unhinted {
		t.Errorf("%d unhinted keys went straight to the server, want %d", d, n*unhinted)
	}
	if d := cl.Stats.FallbackReads - before.FallbackReads; d != n {
		t.Errorf("%d own writes fell back to the server, want %d", d, n)
	}
	if d, b := cl.Stats.ReadRPCs-before.ReadRPCs, cl.Stats.ReadBursts-before.ReadBursts; d != n || b != n {
		t.Errorf("counted %d read RPCs and %d READ bursts, want %d each", d, b, n)
	}

	for i := 0; i < n; i++ {
		if err := cl.Put(own, vals[i]); err != nil {
			t.Fatal(err)
		}
		r, w := ln.oneSided.reads.Load(), ln.pipelined.writes.Load()
		got, err := cl.Get(own)
		if err != nil || !bytes.Equal(got, vals[i]) {
			t.Fatalf("Get of own write %d: %d bytes, %v", i, len(got), err)
		}
		if dr, dw := ln.oneSided.reads.Load()-r, ln.pipelined.writes.Load()-w; dr != 1 || dw != 1 {
			t.Fatalf("Get of an undurable own write: %d one-sided server reads and %d pipelined server writes, want 1 and 1", dr, dw)
		}
		if ln.oneSided.lastRead.Load() > ln.pipelined.lastWrite.Load() {
			t.Fatal("Get of an undurable own write posted a one-sided frame after the read RPC")
		}
	}
}
