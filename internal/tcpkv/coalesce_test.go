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
	"efactory/internal/wire"
)

// countingListener hands the server connections that count the
// connections opened on the pipelined channel and the Read and Write
// calls the server makes on them.
type countingListener struct {
	net.Listener
	conns, reads, writes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: conn, ln: l}, nil
}

// countingConn counts its calls once the server has read the channel
// byte, which it reads alone.
type countingConn struct {
	net.Conn
	ln       *countingListener
	counting atomic.Bool
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.counting.Load() {
		c.ln.reads.Add(1)
	} else if n > 0 && p[0] == chanRPCPipe {
		c.counting.Store(true)
		c.ln.conns.Add(1)
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	if c.counting.Load() {
		c.ln.writes.Add(1)
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
// time. The server reads a PutBatch's request frame with about one read
// (an average, so a frame split across TCP segments does not fail the
// test), and the client sends it as one write with no READ burst. A
// 64-key hinted GetBatch is one READ burst: one client write and one
// server write.
func TestBurstRepliesCoalesce(t *testing.T) {
	const (
		width  = 64
		rounds = 100
	)
	srv, ln, cl := startCountedServer(t, smallConfig())
	frames := countWrites(cl)

	keys, vals := benchKVs(width, 256)
	errs := make([]error, 0, width)
	reads, bursts := ln.reads.Load(), cl.ReadBursts
	for i := 0; i < rounds; i++ {
		for j, err := range cl.PutBatchInto(keys, vals, errs) {
			if err != nil {
				t.Fatalf("put batch %d key %d: %v", i, j, err)
			}
		}
	}
	// Each PutBatch is one TPutBatch request frame carrying its values.
	perFrame := ratio(t, "PutBatch request frames", ln.reads.Load()-reads, rounds)
	t.Logf("PutBatch: %.2f server reads per request frame, %d client writes", perFrame, frames.writes)
	if perFrame > 1.5 {
		t.Errorf("server reads %.2f times per request frame, want at most 1.5", perFrame)
	}
	if frames.writes != rounds || cl.ReadBursts != bursts {
		t.Errorf("%d PutBatches: %d client writes and %d READ bursts, want %d and 0",
			rounds, frames.writes, cl.ReadBursts-bursts, rounds)
	}

	waitDurable(t, srv)
	if _, errs := cl.GetBatch(keys); client.FirstErr(errs) != nil {
		t.Fatal(client.FirstErr(errs))
	}
	frames.writes, bursts = 0, cl.ReadBursts
	writes, rpcs := ln.writes.Load(), cl.ReadRPCs
	for i := 0; i < rounds; i++ {
		_, errs := cl.GetBatch(keys)
		for j, err := range errs {
			if err != nil {
				t.Fatalf("get batch %d key %d: %v", i, j, err)
			}
		}
	}
	sw := ln.writes.Load() - writes
	t.Logf("GetBatch: %d READ bursts, %d client writes, %d server writes", cl.ReadBursts-bursts, frames.writes, sw)
	if cl.ReadBursts-bursts != rounds || cl.ReadRPCs != rpcs || frames.writes != rounds || sw != rounds {
		t.Errorf("%d hinted GetBatches: %d READ bursts, %d read RPCs, %d client writes, %d server writes; want %d, 0, %d, %d",
			rounds, cl.ReadBursts-bursts, cl.ReadRPCs-rpcs, frames.writes, sw, rounds, rounds, rounds)
	}
}

// TestPutIsOneRoundTrip pins the inline PUT in frames: after warm-up, a
// Put and a 64-key PutBatchInto each cost the server exactly one write
// (its one response), so no READ or WRITE burst rides along. The server's
// budget holds any storable object, so no single Put falls back to a
// WRITE.
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
		writes := ln.writes.Load()
		for i := 0; i < n; i++ {
			if err := leg.op(i); err != nil {
				t.Fatalf("%s %d: %v", leg.name, i, err)
			}
		}
		if d := ln.writes.Load() - writes; d != n {
			t.Errorf("%d %ss: %d server writes, want %d", n, leg.name, d, n)
		}
	}
}

// TestReadIsAtMostTwoRoundTrips pins the read in frames, with the server's
// inline budget. Each of n 64-key GetBatches mixes settled hinted keys,
// keys the client holds no hint for, and the client's own write, which
// is not durable yet because the verifier never runs. Together they may
// move the server's writes by at most 2n, one hinted READ burst and one
// read RPC each: no probe walk, no READ after the RPC. A Get of an
// undurable own write is then exactly one burst and one RPC, in that
// order.
func TestReadIsAtMostTwoRoundTrips(t *testing.T) {
	const (
		n        = 10
		hinted   = 40
		unhinted = 23
	)
	cfg := smallConfig()
	cfg.disableBackground, cfg.VerifyTimeout = true, time.Hour
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

	var writes int64
	before := cl.Stats
	var batch, want [][]byte
	for i := 0; i < n; i++ {
		if err := cl.Put(own, ownVal); err != nil {
			t.Fatal(err)
		}
		lo, hi := hinted+i*unhinted, hinted+(i+1)*unhinted
		batch = append(append(append(batch[:0], keys[:hinted]...), keys[lo:hi]...), own)
		want = append(append(append(want[:0], vals[:hinted]...), vals[lo:hi]...), ownVal)
		w := ln.writes.Load()
		got, errs := cl.GetBatch(batch)
		writes += ln.writes.Load() - w
		for j, k := range batch {
			if errs[j] != nil || !bytes.Equal(got[j], want[j]) {
				t.Fatalf("batch %d key %q: %d bytes, %v", i, k, len(got[j]), errs[j])
			}
		}
	}
	t.Logf("%d GetBatches: %d server writes", n, writes)
	if writes > 2*n {
		t.Errorf("%d GetBatches moved the server's writes by %d, want at most %d", n, writes, 2*n)
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

	frames := countWrites(cl)
	for i := 0; i < n; i++ {
		if err := cl.Put(own, vals[i]); err != nil {
			t.Fatal(err)
		}
		w := ln.writes.Load()
		frames.types = frames.types[:0]
		got, err := cl.Get(own)
		if err != nil || !bytes.Equal(got, vals[i]) {
			t.Fatalf("Get of own write %d: %d bytes, %v", i, len(got), err)
		}
		if d := ln.writes.Load() - w; d != 2 {
			t.Fatalf("Get of an undurable own write: %d server writes, want 2", d)
		}
		if len(frames.types) != 2 || frames.types[0] != wire.TRead || frames.types[1] != wire.TGet {
			t.Fatalf("Get of an undurable own write sent frames of types %v, want a TRead (%d), then a TGet (%d)",
				frames.types, wire.TRead, wire.TGet)
		}
	}
}
