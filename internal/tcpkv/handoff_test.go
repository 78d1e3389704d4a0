package tcpkv

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"efactory/internal/fault"
	"efactory/internal/nvm"
	"efactory/internal/wire"
)

// dispatches reads the server's efactory_rpc_dispatch_total counters.
func dispatches(srv *Server) (inline, worker int) {
	for _, c := range srv.Metrics().Snapshot().Counters {
		if c.Name != "efactory_rpc_dispatch_total" {
			continue
		}
		switch c.Labels["path"] {
		case "inline":
			inline = int(c.Value)
		case "worker":
			worker = int(c.Value)
		}
	}
	return inline, worker
}

// clientGoroutines counts the live goroutines that tcpkv code other than
// the server started: the ones a Client owns.
func clientGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	n := 0
	for _, line := range strings.Split(string(buf), "\n") {
		by, ok := strings.CutPrefix(line, "created by efactory/internal/tcpkv.")
		if ok && !strings.HasPrefix(by, "(*Server).") && !strings.HasPrefix(by, "NewServer") {
			n++
		}
	}
	return n
}

// TestPipelinedHandOffs counts the goroutine hand-offs of the pipelined
// channel. A lone caller's data-plane RPCs are served on the server's read
// loop (no worker dispatch), a DELETE — which waits for a mirror quorum
// before it acks — goes to a worker, and a dialed client owns no goroutine:
// each caller reads its own reply.
func TestPipelinedHandOffs(t *testing.T) {
	cfg := smallConfig()
	srv, addr := startServer(t, nvm.New(cfg.DeviceSize()), cfg)
	before := clientGoroutines()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if n := clientGoroutines() - before; n != 0 {
		t.Errorf("a dialed, idle client owns %d goroutines, want 0", n)
	}

	keys, vals := benchKVs(8, 256)
	inline0, worker0 := dispatches(srv)
	const ops = 200
	for i := 0; i < ops; i++ {
		k := i % len(keys)
		var err error
		switch i % 4 {
		case 0:
			err = cl.Put(keys[k], vals[k])
		case 1:
			var got []byte
			if got, err = cl.Get(keys[k-1]); err == nil && !bytes.Equal(got, vals[k-1]) {
				err = fmt.Errorf("got %q", got)
			}
		case 2:
			err = errors.Join(cl.PutBatch(keys, vals)...)
		case 3:
			_, errs := cl.GetBatch(keys)
			err = errors.Join(errs...)
		}
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	inline1, worker1 := dispatches(srv)
	t.Logf("%d sequential Put/Get/PutBatch/GetBatch calls: %d inline RPCs, %d worker dispatches",
		ops, inline1-inline0, worker1-worker0)
	if worker1 != worker0 {
		t.Errorf("%d sequential data-plane calls made %d worker dispatches, want 0", ops, worker1-worker0)
	}
	if inline1-inline0 < ops/2 {
		t.Errorf("%d sequential calls served %d RPCs inline, want at least %d (the Puts and PutBatches)",
			ops, inline1-inline0, ops/2)
	}

	if err := cl.Delete(keys[0]); err != nil {
		t.Fatal(err)
	}
	if _, worker2 := dispatches(srv); worker2-worker1 != 1 {
		t.Errorf("a Delete made %d worker dispatches, want 1", worker2-worker1)
	}
	if n := clientGoroutines() - before; n != 0 {
		t.Errorf("after %d calls the client owns %d goroutines, want 0", ops+1, n)
	}
}

// TestPipeCallersGetOwnReplies runs many callers on one client, mixing
// DELETEs (served by workers) with PUTs and read RPCs (served inline), so
// replies come back out of order and whichever caller holds the read token
// hands the others theirs. Each caller owns a key, and every reply must be
// its own: the value it just wrote, or not-found after its own DELETE.
func TestPipeCallersGetOwnReplies(t *testing.T) {
	cfg := smallConfig()
	srv, addr := startServer(t, nvm.New(cfg.DeviceSize()), cfg)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const callers, rounds = 24, 30
	_, worker0 := dispatches(srv)
	var wg sync.WaitGroup
	errc := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := []byte(fmt.Sprintf("caller-%02d", g))
			// A read RPC asking for the value: the reply carries it.
			read := func() (wire.Msg, error) {
				return cl.rpc(wire.Msg{Type: wire.TGet, Key: key, Len: 4096})
			}
			for r := 0; r < rounds; r++ {
				val := []byte(fmt.Sprintf("caller-%02d-round-%03d", g, r))
				if err := cl.Put(key, val); err != nil {
					errc <- fmt.Errorf("caller %d put %d: %w", g, r, err)
					return
				}
				resp, err := read()
				if err != nil || resp.Status != wire.StOK || !bytes.Equal(resp.Value, val) {
					errc <- fmt.Errorf("caller %d read %d: status %d value %q err %v, want %q",
						g, r, resp.Status, resp.Value, err, val)
					return
				}
				if r%3 != 0 {
					continue
				}
				if err := cl.Delete(key); err != nil {
					errc <- fmt.Errorf("caller %d delete %d: %w", g, r, err)
					return
				}
				if resp, err := read(); err != nil || resp.Status != wire.StNotFound {
					errc <- fmt.Errorf("caller %d read after delete %d: status %d err %v, want not found",
						g, r, resp.Status, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	_, worker1 := dispatches(srv)
	if deletes := callers * ((rounds + 2) / 3); worker1-worker0 < deletes {
		t.Errorf("%d worker dispatches, want at least the %d DELETEs", worker1-worker0, deletes)
	}
}

// settle waits until the live goroutine count is back to n, failing after
// a few seconds.
func settle(t *testing.T, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > n; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left, want %d", runtime.NumGoroutine(), n)
		}
	}
}

// TestPipeCallersFailWithExpiredHolder pins the timeout contract with the
// read token: a caller whose deadline expires while it holds the token and
// reads fails the whole pipe. Every other caller gets the expiry — even
// though its own deadline has not passed — and no goroutine is left behind.
func TestPipeCallersFailWithExpiredHolder(t *testing.T) {
	addr := blackholeServer(t)
	base := runtime.NumGoroutine()
	const d = 300 * time.Millisecond
	c, err := connect(addr, d)
	if err != nil {
		t.Fatal(err)
	}
	p := c.pipe

	call := func() error {
		_, err := c.rpc(wire.Msg{Type: wire.TStats})
		return err
	}
	holder := make(chan error, 1)
	start := time.Now()
	go func() { holder <- call() }()
	for len(p.token) != 0 { // the lone caller takes the token to read
		if time.Since(start) > d/2 {
			t.Fatal("the lone caller never took the read token")
		}
		time.Sleep(time.Millisecond)
	}

	const others = 8
	errs := make(chan error, others)
	for i := 0; i < others; i++ {
		go func() { errs <- call() }()
	}
	if err := <-holder; !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("holder: %v, want deadline expiry", err)
	}
	if elapsed := time.Since(start); elapsed < d/2 || elapsed > 20*d {
		t.Fatalf("holder failed after %v, timeout is %v", elapsed, d)
	}
	for i := 0; i < others; i++ {
		if err := <-errs; !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("other caller: %v, want the holder's deadline expiry", err)
		}
	}
	if err := p.failure(); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("pipe failure %v, want deadline expiry", err)
	}
	if err := call(); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("a call on the failed pipe: %v, want its failure", err)
	}
	c.Close()
	settle(t, base)
}

// TestPipeCallersFailWhenServerCloses: a server that reads a request and
// then closes the connection fails every caller in flight promptly with a
// transport error, not a hang until the deadline.
func TestPipeCallersFailWhenServerCloses(t *testing.T) {
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
			go func() {
				// The channel byte, then a request frame's length prefix.
				var b [5]byte
				io.ReadFull(conn, b[:])
				conn.Close()
			}()
		}
	}()
	base := runtime.NumGoroutine()
	const d = 10 * time.Second
	c, err := connect(ln.Addr().String(), d)
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	start := time.Now()
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			_, err := c.rpc(wire.Msg{Type: wire.TStats})
			errs <- err
		}()
	}
	for i := 0; i < callers; i++ {
		if err := <-errs; err == nil || !transient(err) || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("caller: %v, want a transport error", err)
		}
	}
	if elapsed := time.Since(start); elapsed > d/2 {
		t.Errorf("callers failed after %v: they waited for the deadline", elapsed)
	}
	c.Close()
	settle(t, base)
}

// TestPipeCallersSeeDroppedInlineReply: the fault plan's response drops
// reach replies the read loop serves itself. A dropped inline reply fails
// the call with a transport error, a partial one with a torn frame, and
// the op is applied either way.
func TestPipeCallersSeeDroppedInlineReply(t *testing.T) {
	for _, partial := range []bool{false, true} {
		t.Run(fmt.Sprintf("partial=%v", partial), func(t *testing.T) {
			cfg := smallConfig()
			// Frame 1 is the hello's reply, frame 2 the first Put's; the
			// second Put's is dropped.
			cfg.NetFaults = &fault.NetPlan{DropEvery: 3, PartialFrame: partial}
			srv, addr := startServer(t, nvm.New(cfg.DeviceSize()), cfg)
			cl, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			if err := cl.Put([]byte("kept"), []byte("first")); err != nil {
				t.Fatal(err)
			}
			err = cl.Put([]byte("dropped"), []byte("second"))
			if err == nil || !transient(err) {
				t.Fatalf("put with a dropped reply: %v, want a transport error", err)
			}
			if partial && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("put with a partial reply: %v, want a torn frame", err)
			}
			if inline, worker := dispatches(srv); inline != 2 || worker != 1 {
				t.Fatalf("dispatches: %d inline, %d worker; want the two Puts inline and the hello on a worker",
					inline, worker)
			}
			fresh, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer fresh.Close()
			if got, err := fresh.Get([]byte("dropped")); err != nil || string(got) != "second" {
				t.Fatalf("the dropped reply's Put reads %q, %v; want it applied", got, err)
			}
		})
	}
}
