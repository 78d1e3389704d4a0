// Client hot-path benchmarks over a real loopback connection (the
// pipelined RPC mux, READ bursts included) against an in-process
// server. Go benchmarks count allocations across ALL goroutines, so a
// "0 allocs/op" result here certifies the whole round trip — client
// encode, mux writer, server read/decode/handle (the inline value write
// included)/respond, client demux and decode — allocation-free in steady
// state. CI greps these results as the alloc-budget gate.
package tcpkv

import (
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"efactory/internal/nvm"
)

// startBenchServer is startServer for benchmarks and alloc-regression
// tests: a server on a loopback listener with cleaning enabled so a long
// overwrite workload never exhausts the log.
func startBenchServer(tb testing.TB) (*Server, string) {
	tb.Helper()
	cfg := Config{
		Buckets:        4096,
		PoolSize:       64 << 20,
		VerifyTimeout:  50 * time.Millisecond,
		CleanThreshold: 0.15,
		BGBatch:        16,
	}
	srv, err := NewServer(nvm.New(cfg.DeviceSize()), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go srv.Serve(ln)
	tb.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

func benchDial(tb testing.TB, addr string) *Client {
	tb.Helper()
	cl, err := Dial(addr)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { cl.Close() })
	return cl
}

func benchKVs(n, vlen int) (keys, vals [][]byte) {
	keys = make([][]byte, n)
	vals = make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("bench-key-%04d", i))
		v := make([]byte, vlen)
		for j := range v {
			v[j] = byte('a' + i%26)
		}
		vals[i] = v
	}
	return keys, vals
}

// measureAllocsPerPut runs n PUTs and returns the average heap
// allocations each one cost, counted across all goroutines (client mux
// writer/reader, server handlers, background verifier included).
func measureAllocsPerPut(tb testing.TB, cl *Client, keys, vals [][]byte, n int) float64 {
	tb.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if err := cl.Put(keys[i%len(keys)], vals[i%len(keys)]); err != nil {
			tb.Fatalf("put %d: %v", i, err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// TestPutAllocFreeAcrossReconnect pins the two pooled-scratch claims the
// benchmarks cannot express: the steady-state PUT path stays (near)
// allocation-free in absolute terms, and the pools survive a reconnect —
// closing the client tears down its connection, a fresh client
// dials a new one, and the package-level slot and frame pools must keep
// amortizing rather than being rebuilt per connection.
func TestPutAllocFreeAcrossReconnect(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is load-sensitive under -short")
	}
	if raceEnabled {
		t.Skip("the race runtime's own bookkeeping allocates per op")
	}
	_, addr := startBenchServer(t)
	cl := benchDial(t, addr)
	keys, vals := benchKVs(64, 256)
	// Warm every pool: call slots, frame buffers, burst scratch, server
	// handler scratch.
	for i := 0; i < 256; i++ {
		if err := cl.Put(keys[i%len(keys)], vals[i%len(keys)]); err != nil {
			t.Fatalf("warm put %d: %v", i, err)
		}
	}
	// Background goroutines (GC workers, the server's verifier and
	// cleaner) add a handful of allocations on their own schedule; a 0.5/op
	// budget over 2000 ops rejects any per-op allocation while absorbing
	// that noise.
	const budget = 0.5
	if avg := measureAllocsPerPut(t, cl, keys, vals, 2000); avg > budget {
		t.Fatalf("steady-state PUT allocates %.3f/op, budget %.1f", avg, budget)
	}
	// Reconnect: a fresh client on new connections, same pools.
	cl.Close()
	cl = benchDial(t, addr)
	for i := 0; i < 64; i++ {
		if err := cl.Put(keys[i%len(keys)], vals[i%len(keys)]); err != nil {
			t.Fatalf("post-reconnect warm put %d: %v", i, err)
		}
	}
	if avg := measureAllocsPerPut(t, cl, keys, vals, 2000); avg > budget {
		t.Fatalf("post-reconnect PUT allocates %.3f/op, budget %.1f", avg, budget)
	}
}

// BenchmarkPut measures the single-op client PUT: one pipelined RPC
// whose request carries the value inline, written by the server before
// the entry publishes — no one-sided WRITE.
func BenchmarkPut(b *testing.B) {
	_, addr := startBenchServer(b)
	cl := benchDial(b, addr)
	keys, vals := benchKVs(256, 256)
	// Warm every pooled scratch (call slots, frame buffers, burst
	// buffers, server handler scratch) before counting.
	for i := 0; i < len(keys); i++ {
		if err := cl.Put(keys[i], vals[i]); err != nil {
			b.Fatalf("warm put %d: %v", i, err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.Put(keys[i%len(keys)], vals[i%len(keys)]); err != nil {
			b.Fatalf("put %d: %v", i, err)
		}
	}
}

// settledKeys writes keys/vals, waits until the server has flagged every
// version durable, and reads them once through GetBatch so the client
// holds a hint for each: later reads are pure hinted one-sided bursts.
func settledKeys(tb testing.TB, srv *Server, cl *Client, keys, vals [][]byte) {
	tb.Helper()
	for _, err := range cl.PutBatch(keys, vals) {
		if err != nil {
			tb.Fatal(err)
		}
	}
	waitDurable(tb, srv)
	for i := 0; i < 2; i++ {
		_, errs := cl.GetBatch(keys)
		for j, err := range errs {
			if err != nil {
				tb.Fatalf("warm get batch, key %d: %v", j, err)
			}
		}
	}
}

// BenchmarkGet measures the single-op client GET of a settled, hinted
// key: one one-sided burst of two READs (entry + object), no RPC. The one
// allocation is the returned value's buffer.
func BenchmarkGet(b *testing.B) {
	srv, addr := startBenchServer(b)
	cl := benchDial(b, addr)
	keys, vals := benchKVs(64, 256)
	settledKeys(b, srv, cl, keys, vals)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Get(keys[i%len(keys)]); err != nil {
			b.Fatalf("get %d: %v", i, err)
		}
	}
}

// BenchmarkGetOwnWrite measures a client reading back its own write: one
// op is an inline PUT (one round trip) and then a GET of the same key. The
// PUT's acknowledged grant is the key's hint, so the GET is one one-sided
// burst — followed by the read RPC when the background verifier has not
// flagged the version durable yet, whose reply carries the value, copied
// into the burst's buffer. The one allocation is the GET's object slab,
// which the returned value aliases.
func BenchmarkGetOwnWrite(b *testing.B) {
	_, addr := startBenchServer(b)
	cl := benchDial(b, addr)
	keys, vals := benchKVs(64, 256)
	for i := 0; i < 4*len(keys); i++ {
		if err := cl.Put(keys[i%len(keys)], vals[i%len(keys)]); err != nil {
			b.Fatalf("warm put %d: %v", i, err)
		}
		if _, err := cl.Get(keys[i%len(keys)]); err != nil {
			b.Fatalf("warm get %d: %v", i, err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		if err := cl.Put(k, vals[i%len(keys)]); err != nil {
			b.Fatalf("put %d: %v", i, err)
		}
		if _, err := cl.Get(k); err != nil {
			b.Fatalf("get %d: %v", i, err)
		}
	}
}

// BenchmarkGetBatch measures a 64-key GetBatch of settled, hinted keys:
// one TRead burst of 128 READs, one frame each way. Reported
// per op, where one op is a 64-key batch.
func BenchmarkGetBatch(b *testing.B) {
	srv, addr := startBenchServer(b)
	cl := benchDial(b, addr)
	keys, vals := benchKVs(64, 256)
	settledKeys(b, srv, cl, keys, vals)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, errs := cl.GetBatch(keys)
		for j, err := range errs {
			if err != nil {
				b.Fatalf("batch %d key %d: %v", i, j, err)
			}
		}
	}
}

// BenchmarkPutBatch measures the batched client PUT: one TPutBatch RPC
// carrying every value inline, which the server applies
// run-to-completion per shard — no one-sided WRITE burst. Reported per
// op, where one op is a 64-key batch.
func BenchmarkPutBatch(b *testing.B) {
	const width = 64
	_, addr := startBenchServer(b)
	cl := benchDial(b, addr)
	keys, vals := benchKVs(width, 256)
	errs := make([]error, 0, width)
	// Warm pooled scratch.
	for i := 0; i < 4; i++ {
		for _, err := range cl.PutBatchInto(keys, vals, errs) {
			if err != nil {
				b.Fatalf("warm batch: %v", err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, err := range cl.PutBatchInto(keys, vals, errs) {
			if err != nil {
				b.Fatalf("batch %d op %d: %v", i, j, err)
			}
		}
	}
}
