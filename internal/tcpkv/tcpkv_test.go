package tcpkv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"efactory/internal/client"
	"efactory/internal/kv"
	"efactory/internal/nvm"
	"efactory/internal/wire"
)

// startServer spins a server on a loopback listener.
func startServer(t *testing.T, dev nvm.Device, cfg Config) (*Server, string) {
	t.Helper()
	srv, err := NewServer(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

// waitDurable waits until srv's first shard has flagged every version
// written so far durable.
func waitDurable(tb testing.TB, srv *Server) {
	tb.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if lag, _ := srv.Store().Shard(0).DurabilityLag(); lag == 0 {
			return
		}
		if time.Now().After(deadline) {
			tb.Fatal("the writes never became durable")
		}
	}
}

func smallConfig() Config {
	return Config{
		Buckets:       1024,
		PoolSize:      4 << 20,
		VerifyTimeout: raceScale(20 * time.Millisecond),
	}
}

// raceScale stretches a wall-clock timeout when the race detector is
// compiled in: the instrumented build runs the client-active write path
// an order of magnitude slower, and a VerifyTimeout sized for normal
// builds then invalidates writes that are merely slow, not torn.
func raceScale(d time.Duration) time.Duration {
	if raceEnabled {
		return d * 20
	}
	return d
}

func TestPutGetDeleteRoundTrip(t *testing.T) {
	cfg := smallConfig()
	_, addr := startServer(t, nvm.New(cfg.DeviceSize()), cfg)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for i := 0; i < 40; i++ {
		key := []byte(fmt.Sprintf("key-%d", i))
		val := bytes.Repeat([]byte{byte(i + 1)}, 100+i*25)
		if err := cl.Put(key, val); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
		got, err := cl.Get(key)
		if err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
		if !bytes.Equal(got, val) {
			t.Fatalf("Get %d: wrong value", i)
		}
	}
	if err := cl.Delete([]byte("key-0")); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get([]byte("key-0")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted key err = %v", err)
	}
	if _, err := cl.Get([]byte("never")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key err = %v", err)
	}
}

func TestHybridReadTurnsPure(t *testing.T) {
	cfg := smallConfig()
	_, addr := startServer(t, nvm.New(cfg.DeviceSize()), cfg)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Give the background verifier time to persist.
	time.Sleep(20 * time.Millisecond)
	before := cl.PureReads
	if _, err := cl.Get([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if cl.PureReads != before+1 {
		t.Fatalf("read did not take the pure path: pure=%d fallback=%d",
			cl.PureReads, cl.FallbackReads)
	}
}

func TestConcurrentClients(t *testing.T) {
	cfg := smallConfig()
	_, addr := startServer(t, nvm.New(cfg.DeviceSize()), cfg)
	const clients = 6
	const perClient = 40
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for ci := 0; ci < clients; ci++ {
		ci := ci
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for i := 0; i < perClient; i++ {
				key := []byte(fmt.Sprintf("c%d-k%d", ci, i))
				val := bytes.Repeat([]byte{byte(ci*10 + i%10 + 1)}, 64)
				if err := cl.Put(key, val); err != nil {
					errs <- fmt.Errorf("put: %w", err)
					return
				}
				got, err := cl.Get(key)
				if err != nil {
					errs <- fmt.Errorf("get: %w", err)
					return
				}
				if !bytes.Equal(got, val) {
					errs <- fmt.Errorf("client %d wrong value for %s", ci, key)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestRestartRecoversDurableData(t *testing.T) {
	cfg := smallConfig()
	path := filepath.Join(t.TempDir(), "store.nvm")
	dev, err := nvm.OpenFile(path, cfg.DeviceSize())
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, dev, cfg)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	values := map[string][]byte{}
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("persist-%d", i)
		v := bytes.Repeat([]byte{byte(i + 1)}, 200)
		values[k] = v
		if err := cl.Put([]byte(k), v); err != nil {
			t.Fatal(err)
		}
	}
	// Reads force durability even if the verifier has not caught up.
	for k := range values {
		if _, err := cl.Get([]byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	cl.Close()
	srv.Close()
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart on the same file.
	dev2, err := nvm.OpenFile(path, cfg.DeviceSize())
	if err != nil {
		t.Fatal(err)
	}
	srv2, addr2 := startServer(t, dev2, cfg)
	if st := srv2.Stats(); st.Recovered != 20 {
		t.Fatalf("recovered %d keys, want 20", st.Recovered)
	}
	cl2, err := Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	for k, v := range values {
		got, err := cl2.Get([]byte(k))
		if err != nil {
			t.Fatalf("Get %s after restart: %v", k, err)
		}
		if !bytes.Equal(got, v) {
			t.Fatalf("Get %s after restart: wrong value", k)
		}
	}
	// New writes work after recovery.
	if err := cl2.Put([]byte("persist-0"), []byte("updated")); err != nil {
		t.Fatal(err)
	}
	got, err := cl2.Get([]byte("persist-0"))
	if err != nil || string(got) != "updated" {
		t.Fatalf("updated Get = %q, %v", got, err)
	}
}

func TestTornWriteRollsBackOnRestart(t *testing.T) {
	cfg := smallConfig()
	path := filepath.Join(t.TempDir(), "store.nvm")
	dev, err := nvm.OpenFile(path, cfg.DeviceSize())
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, dev, cfg)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Put([]byte("k"), []byte("stable")); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get([]byte("k")); err != nil { // force durability
		t.Fatal(err)
	}
	// Torn update: allocate but never write the value, then crash (close
	// without flushing anything further).
	if _, err := cl.rpc(wire.Msg{Type: wire.TPut, Crc: 0xbad, Len: 64, Key: []byte("k")}); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	srv.Close()
	dev.Close()

	dev2, err := nvm.OpenFile(path, cfg.DeviceSize())
	if err != nil {
		t.Fatal(err)
	}
	srv2, addr2 := startServer(t, dev2, cfg)
	if st := srv2.Stats(); st.RolledBack != 1 {
		t.Fatalf("RolledBack = %d, want 1 (stats %+v)", st.RolledBack, st)
	}
	cl2, err := Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	got, err := cl2.Get([]byte("k"))
	if err != nil || string(got) != "stable" {
		t.Fatalf("Get after torn-write restart = %q, %v; want stable", got, err)
	}
}

// TestOneSidedBoundsChecked: the READs of one TRead burst are checked one
// by one. Refusals are reported per READ, and the in-bounds READ after
// two refusals is served. A payload that is not whole READs is refused
// with StError, and the connection keeps serving.
func TestOneSidedBoundsChecked(t *testing.T) {
	cfg := smallConfig()
	_, addr := startServer(t, nvm.New(cfg.DeviceSize()), cfg)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	reqs := []client.Req{
		{Buf: make([]byte, 64), RKey: 99},
		{Buf: make([]byte, 64), RKey: rkeyPoolBase, Off: uint64(cfg.PoolSize - 10)},
		{Buf: make([]byte, 64), RKey: rkeyPoolBase},
	}
	if err := cl.readBurst(reqs); err != nil {
		t.Fatal(err)
	}
	if !reqs[0].NAK {
		t.Fatal("read with bogus rkey succeeded")
	}
	if !reqs[1].NAK {
		t.Fatal("out-of-bounds read succeeded")
	}
	if reqs[2].NAK {
		t.Fatal("in-bounds read refused")
	}
	for _, n := range []int{1, readOpSize - 1, readOpSize + 1, 3*readOpSize + 7} {
		resp, err := cl.rpc(wire.Msg{Type: wire.TRead, Value: make([]byte, n)})
		if err != nil || resp.Type != wire.TReadResp || resp.Status != wire.StError {
			t.Fatalf("TRead of %d payload bytes: type %d status %d, %v; want TReadResp, StError", n, resp.Type, resp.Status, err)
		}
	}
	reqs[2].NAK = false
	if err := cl.readBurst(reqs[2:]); err != nil || reqs[2].NAK {
		t.Fatalf("in-bounds read after the malformed bursts: NAK %v, %v", reqs[2].NAK, err)
	}
}

func TestServerRejectsOversizedValueGracefully(t *testing.T) {
	cfg := smallConfig()
	cfg.PoolSize = 1 << 20
	_, addr := startServer(t, nvm.New(cfg.DeviceSize()), cfg)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	big := make([]byte, 400<<10)
	if err := cl.Put([]byte("a"), big); err != nil {
		t.Fatal(err)
	}
	if err := cl.Put([]byte("b"), big); err != nil {
		t.Fatal(err)
	}
	// A third 400 KiB object cannot fit a 1 MiB pool.
	if err := cl.Put([]byte("c"), big); !errors.Is(err, ErrServerFull) {
		t.Fatalf("err = %v, want ErrServerFull", err)
	}
}

// TestObjectSizeLimit: the server admits only objects a version pointer
// can describe. An object over kv.MaxObjectSize is refused with a status
// error — accepted, its second version would panic the server while
// chaining to the first — and so is a value larger than a pipelined frame,
// which the server would drop the connection over. An object under the
// limit can be written again and again while the server keeps serving.
func TestObjectSizeLimit(t *testing.T) {
	cfg := smallConfig()
	cfg.PoolSize = 16 << 20
	_, addr := startServer(t, nvm.New(cfg.DeviceSize()), cfg)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var se *client.StatusError
	if err := cl.Put([]byte("big"), make([]byte, 5<<20)); !errors.As(err, &se) {
		t.Fatalf("5 MiB put: err = %v, want a status error", err)
	}
	if err := cl.Put([]byte("big"), make([]byte, maxPipeFrame+1)); !errors.As(err, &se) {
		t.Fatalf("put over a pipelined frame: err = %v, want a status error", err)
	}
	for i := byte(1); i <= 3; i++ {
		v := bytes.Repeat([]byte{i}, 3<<20)
		if err := cl.Put([]byte("big"), v); err != nil {
			t.Fatalf("3 MiB put %d: %v", i, err)
		}
		if got, err := cl.Get([]byte("big")); err != nil || !bytes.Equal(got, v) {
			t.Fatalf("3 MiB get %d: %d bytes, %v", i, len(got), err)
		}
	}
	if err := cl.Put([]byte("small"), []byte("ok")); err != nil {
		t.Fatalf("server stopped serving: %v", err)
	}
}

func TestLogCleaningOverTCP(t *testing.T) {
	cfg := smallConfig()
	cfg.PoolSize = 256 << 10
	cfg.CleanThreshold = 0.25
	srv, addr := startServer(t, nvm.New(cfg.DeviceSize()), cfg)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Writer: updates to a small key set, enough volume to trigger
	// cleaning several times. Reader: concurrent hybrid reads.
	latest := map[string]string{}
	var mu sync.Mutex
	stopReader := make(chan struct{})
	var readerErr error
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		rcl, err := Dial(addr)
		if err != nil {
			readerErr = err
			return
		}
		defer rcl.Close()
		for {
			select {
			case <-stopReader:
				return
			default:
			}
			for i := 0; i < 8; i++ {
				k := fmt.Sprintf("k%d", i)
				got, err := rcl.Get([]byte(k))
				if errors.Is(err, ErrNotFound) {
					continue
				}
				if err != nil {
					readerErr = err
					return
				}
				if !bytes.HasPrefix(got, []byte("val-")) {
					readerErr = fmt.Errorf("garbage read for %s: %.16q", k, got)
					return
				}
			}
		}
	}()

	val := bytes.Repeat([]byte{'x'}, 2048)
	for i := 0; i < 400; i++ {
		k := fmt.Sprintf("k%d", i%8)
		v := append([]byte(fmt.Sprintf("val-%d-", i)), val...)
		if err := cl.Put([]byte(k), v); err != nil {
			if errors.Is(err, ErrServerFull) {
				time.Sleep(time.Millisecond) // cleaning catches up
				continue
			}
			t.Fatal(err)
		}
		mu.Lock()
		latest[k] = string(v)
		mu.Unlock()
	}
	close(stopReader)
	<-readerDone // readerErr is the reader's until it has exited
	// Wait for any in-flight cleaning to finish.
	for i := 0; i < 1000 && srv.Cleaning(); i++ {
		time.Sleep(time.Millisecond)
	}
	if readerErr != nil {
		t.Fatalf("reader: %v", readerErr)
	}
	st := srv.Stats()
	if st.Cleanings == 0 {
		t.Fatal("threshold never triggered cleaning")
	}
	if st.CleanMoved == 0 || st.CleanDropped == 0 {
		t.Fatalf("cleaning did no work: %+v", st)
	}
	// All keys readable with their latest values after cleaning.
	for k, want := range latest {
		got, err := cl.Get([]byte(k))
		if err != nil {
			t.Fatalf("Get %s after cleaning: %v", k, err)
		}
		if string(got) != want {
			t.Fatalf("Get %s = %.20q..., want %.20q...", k, got, want)
		}
	}
	t.Logf("cleanings: %d, moved: %d, dropped: %d", st.Cleanings, st.CleanMoved, st.CleanDropped)
}

func TestRestartAfterCleaningRecovers(t *testing.T) {
	cfg := smallConfig()
	cfg.PoolSize = 256 << 10
	path := filepath.Join(t.TempDir(), "store.nvm")
	dev, err := nvm.OpenFile(path, cfg.DeviceSize())
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, dev, cfg)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte{'y'}, 1024)
	for round := 0; round < 3; round++ {
		for i := 0; i < 6; i++ {
			k := fmt.Sprintf("p%d", i)
			v := append([]byte(fmt.Sprintf("r%d-", round)), val...)
			if err := cl.Put([]byte(k), v); err != nil {
				t.Fatal(err)
			}
		}
		if !srv.StartCleaning() {
			t.Fatal("StartCleaning refused")
		}
		for srv.Cleaning() {
			time.Sleep(time.Millisecond)
		}
	}
	// Force durability of the final round, then restart.
	for i := 0; i < 6; i++ {
		if _, err := cl.Get([]byte(fmt.Sprintf("p%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	cl.Close()
	srv.Close()
	dev.Close()

	dev2, err := nvm.OpenFile(path, cfg.DeviceSize())
	if err != nil {
		t.Fatal(err)
	}
	srv2, addr2 := startServer(t, dev2, cfg)
	if st := srv2.Stats(); st.Recovered != 6 {
		t.Fatalf("recovered %d keys, want 6", st.Recovered)
	}
	cl2, err := Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	for i := 0; i < 6; i++ {
		got, err := cl2.Get([]byte(fmt.Sprintf("p%d", i)))
		if err != nil {
			t.Fatalf("Get p%d: %v", i, err)
		}
		if !bytes.HasPrefix(got, []byte("r2-")) {
			t.Fatalf("p%d = %.8q, want final round value", i, got)
		}
	}
}

func TestServerStatsRPC(t *testing.T) {
	cfg := smallConfig()
	_, addr := startServer(t, nvm.New(cfg.DeviceSize()), cfg)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Put([]byte("k"), []byte("v"))
	cl.Get([]byte("k"))
	st, err := cl.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Puts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestShardedPutGetRoundTrip(t *testing.T) {
	cfg := smallConfig()
	cfg.Shards = 4
	srv, addr := startServer(t, nvm.New(cfg.DeviceSize()), cfg)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for i := 0; i < 100; i++ {
		key := []byte(fmt.Sprintf("shard-key-%d", i))
		val := bytes.Repeat([]byte{byte(i%250 + 1)}, 80+i*3)
		if err := cl.Put(key, val); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
		got, err := cl.Get(key)
		if err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
		if !bytes.Equal(got, val) {
			t.Fatalf("Get %d: wrong value", i)
		}
	}
	// With 100 keys over 4 shards, every shard should have seen traffic.
	per, err := cl.ShardStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(per) != 4 {
		t.Fatalf("ShardStats returned %d shards, want 4", len(per))
	}
	for i, s := range per {
		if s.Puts == 0 {
			t.Errorf("shard %d saw no puts", i)
		}
	}
	if st := srv.Stats(); st.Puts != 100 {
		t.Fatalf("aggregate Puts = %d, want 100", st.Puts)
	}
	// Hybrid reads go pure once the per-shard verifiers catch up.
	time.Sleep(30 * time.Millisecond)
	before := cl.PureReads
	for i := 0; i < 100; i++ {
		if _, err := cl.Get([]byte(fmt.Sprintf("shard-key-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if cl.PureReads == before {
		t.Error("no sharded read ever took the pure one-sided path")
	}
}

func TestShardedConcurrentClients(t *testing.T) {
	cfg := smallConfig()
	cfg.Shards = 4
	_, addr := startServer(t, nvm.New(cfg.DeviceSize()), cfg)
	const clients = 6
	const perClient = 60
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for ci := 0; ci < clients; ci++ {
		ci := ci
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for i := 0; i < perClient; i++ {
				key := []byte(fmt.Sprintf("sc%d-k%d", ci, i))
				val := bytes.Repeat([]byte{byte(ci*10 + i%10 + 1)}, 96)
				if err := cl.Put(key, val); err != nil {
					errs <- fmt.Errorf("put: %w", err)
					return
				}
				got, err := cl.Get(key)
				if err != nil {
					errs <- fmt.Errorf("get: %w", err)
					return
				}
				if !bytes.Equal(got, val) {
					errs <- fmt.Errorf("client %d wrong value for %s", ci, key)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestOneSidedBoundsOverflow: hostile READs are refused, and the server
// keeps serving. A READ whose offset sits at the top of the offset range
// makes off+length wrap: the bounds check must refuse it — not index the
// device out of range, which panics the whole process from a connection
// goroutine. A READ longer than any object is refused before a reply
// buffer is grown for it, and a burst whose reply would pass the inline
// budget is refused whole, before any READ is served. After each, a valid
// READ on the same connection still succeeds. A peer announcing the
// retired one-sided channel is disconnected, its old WRITE frame
// unapplied.
func TestOneSidedBoundsOverflow(t *testing.T) {
	const retiredOneSided, retiredWrite = 0x02, 0x02
	cfg := smallConfig()
	cfg.PoolSize = 2 * kv.MaxObjectSize // a READ past the object limit is in bounds
	_, addr := startServer(t, nvm.New(cfg.DeviceSize()), cfg)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	type read struct {
		rkey uint32
		off  uint64
		n    uint32
	}
	burst := func(reads ...read) (status uint8, payload []byte) {
		t.Helper()
		var b []byte
		for _, r := range reads {
			b = binary.LittleEndian.AppendUint32(b, r.rkey)
			b = binary.LittleEndian.AppendUint64(b, r.off)
			b = binary.LittleEndian.AppendUint32(b, r.n)
		}
		resp, err := cl.rpc(wire.Msg{Type: wire.TRead, Value: b})
		if err != nil {
			t.Fatalf("TRead: no reply (server died?): %v", err)
		}
		return resp.Status, resp.Value
	}
	validRead := func(after string) {
		t.Helper()
		if st, p := burst(read{rkeyTable, 0, 64}); st != wire.StOK || len(p) != 65 || p[0] != 1 {
			t.Fatalf("valid READ after %s: status %d, %d bytes", after, st, len(p))
		}
	}
	const top = 0x7fff_ffff_ffff_ffff
	for _, off := range []uint64{top, ^uint64(0)} {
		if st, p := burst(read{rkeyTable, off, 16}); st != wire.StOK || !bytes.Equal(p, []byte{0}) {
			t.Fatalf("READ at %#x: status %d, reply %x; want one refusal", off, st, p)
		}
		validRead("the wrapping READ")
	}

	if st, p := burst(read{rkeyPoolBase, 0, kv.MaxObjectSize + 1}); st != wire.StOK || !bytes.Equal(p, []byte{0}) {
		t.Fatalf("READ of %d bytes: status %d, reply of %d bytes; want one refusal", kv.MaxObjectSize+1, st, len(p))
	}
	validRead("the oversized READ")

	over := make([]read, inlineBudget/kv.MaxObjectSize+1)
	for i := range over {
		over[i] = read{rkeyPoolBase, 0, kv.MaxObjectSize}
	}
	if st, p := burst(over...); st != wire.StError || len(p) != 0 {
		t.Fatalf("READs of %d bytes: status %d, %d bytes; want StError", len(over)*kv.MaxObjectSize, st, len(p))
	}
	validRead("the burst past the budget")

	var before [16]byte
	if err := cl.readBurst([]client.Req{{RKey: rkeyTable, Buf: before[:]}}); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	// The retired channel's WRITE frame: [len][op][rkey][off][length][data].
	frame := []byte{retiredOneSided, 0, 0, 0, 33, retiredWrite}
	frame = binary.BigEndian.AppendUint32(frame, rkeyTable)
	frame = binary.BigEndian.AppendUint64(frame, 0)
	frame = binary.BigEndian.AppendUint32(frame, 16)
	frame = append(frame, bytes.Repeat([]byte{0xab}, 16)...)
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	var ne net.Error
	if n, err := conn.Read(make([]byte, 1)); n != 0 || err == nil || errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("retired one-sided channel: read %d bytes, %v; want the server to close", n, err)
	}
	after := make([]byte, 16)
	if err := cl.readBurst([]client.Req{{RKey: rkeyTable, Buf: after}}); err != nil || !bytes.Equal(after, before[:]) {
		t.Fatalf("the retired WRITE changed the device: %x, was %x (%v)", after, before, err)
	}
}

// FuzzReadBurst drives the TRead handler of an unserved server, whose
// pools hold a byte pattern, with arbitrary payloads. It must not panic.
// It refuses a payload that is not whole READs, or whose reply could pass
// the inline budget, with StError; otherwise its reply holds one status
// per READ, and every served READ equals the device's bytes in the same
// range.
func FuzzReadBurst(f *testing.F) {
	cfg := smallConfig()
	cfg.PoolSize, cfg.disableBackground = 1<<20, true
	srv, err := NewServer(nvm.New(cfg.DeviceSize()), cfg)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })
	for pool := range 2 {
		pattern := make([]byte, cfg.PoolSize)
		for i := range pattern {
			pattern[i] = byte(i*7 + pool)
		}
		srv.dev.Write(srv.layout.PoolBase(0, pool), pattern)
	}
	le := binary.LittleEndian
	reads := func(ops ...[3]uint64) []byte {
		var b []byte
		for _, op := range ops {
			b = le.AppendUint32(b, uint32(op[0]))
			b = le.AppendUint64(b, op[1])
			b = le.AppendUint32(b, uint32(op[2]))
		}
		return b
	}
	end := uint64(cfg.PoolSize)
	f.Add(reads([3]uint64{99, 0, 64}, [3]uint64{rkeyPoolBase, end - 10, 64}, [3]uint64{rkeyPoolBase, 0, 64}))
	f.Add(reads([3]uint64{rkeyTable, 0x7fff_ffff_ffff_ffff, 16}, [3]uint64{rkeyTable, ^uint64(0), 16}, [3]uint64{rkeyTable, 0, 64}))
	f.Add(reads([3]uint64{rkeyPoolBase, 0, kv.MaxObjectSize + 1}, [3]uint64{rkeyPoolBase + 1, end - 64, 64}))
	f.Add(reads([3]uint64{rkeyPoolBase, 0, kv.MaxObjectSize}, [3]uint64{rkeyPoolBase, 0, inlineBudget}))
	f.Add([]byte{1, 2, 3})
	f.Add(append(reads([3]uint64{rkeyPoolBase, 8, 8}), 0))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var buf []byte
		resp := srv.serveRead(wire.Msg{Type: wire.TRead, Value: payload}, &buf)
		whole, size := len(payload)%readOpSize == 0, 0
		for op := payload; whole && len(op) > 0; op = op[readOpSize:] {
			size += 1 + int(le.Uint32(op[12:]))
		}
		if refuse := !whole || size > inlineBudget; resp.Type != wire.TReadResp || (resp.Status == wire.StError) != refuse ||
			(resp.Status != wire.StOK && resp.Status != wire.StError) {
			t.Fatalf("%d payload bytes: type %d status %d", len(payload), resp.Type, resp.Status)
		}
		if resp.Status != wire.StOK {
			return
		}
		p := resp.Value
		for op := payload; len(op) > 0; op = op[readOpSize:] {
			if len(p) == 0 {
				t.Fatal("fewer statuses than READs")
			}
			st := p[0]
			p = p[1:]
			if st == 0 {
				continue
			}
			n := int(le.Uint32(op[12:]))
			base, _, ok := srv.region(le.Uint32(op))
			if st != 1 || !ok || len(p) < n {
				t.Fatalf("READ %x: status %d, %d bytes left", op[:readOpSize], st, len(p))
			}
			want := make([]byte, n)
			srv.dev.Read(base+int(le.Uint64(op[4:])), want)
			if !bytes.Equal(p[:n], want) {
				t.Fatalf("READ %x served other bytes than the device holds", op[:readOpSize])
			}
			p = p[n:]
		}
		if len(p) != 0 {
			t.Fatalf("%d bytes after the last READ's reply", len(p))
		}
	})
}

// TestDialDuringCloseRaceFree hammers connection attempts against a
// server that is closing. Under -race this pins the accept loop's
// WaitGroup discipline (Add must not run concurrently with Close's Wait);
// without it, it pins that Close returns: a connection accepted late is
// dropped, not left for a serve goroutine nobody will ever disconnect.
func TestDialDuringCloseRaceFree(t *testing.T) {
	cfg := smallConfig()
	for round := 0; round < 20; round++ {
		srv, err := NewServer(nvm.New(cfg.DeviceSize()), cfg)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		addr := ln.Addr().String()
		var wg sync.WaitGroup
		for d := 0; d < 4; d++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					conn, err := net.Dial("tcp", addr)
					if err != nil {
						return // listener closed
					}
					conn.Close()
				}
			}()
		}
		time.Sleep(time.Duration(round%4) * time.Millisecond)
		closed := make(chan struct{})
		go func() { srv.Close(); close(closed) }()
		select {
		case <-closed:
		case <-time.After(10 * time.Second):
			t.Fatal("Close hung with dials in flight")
		}
		wg.Wait()
	}
}
