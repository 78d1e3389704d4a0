package tcpkv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"efactory/internal/client"
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

func smallConfig() Config {
	return Config{
		Buckets:       1024,
		PoolSize:      4 << 20,
		VerifyTimeout: raceScale(20 * time.Millisecond),
		BGInterval:    100 * time.Microsecond,
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

func TestOneSidedBoundsChecked(t *testing.T) {
	cfg := smallConfig()
	_, addr := startServer(t, nvm.New(cfg.DeviceSize()), cfg)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// One burst: refusals are reported per request, and the stream stays
	// in sync past them (the in-bounds READ after two NAKs is served).
	reqs := []client.Req{
		{Buf: make([]byte, 64), RKey: 99},
		{Buf: make([]byte, 64), RKey: rkeyPoolBase, Off: uint64(cfg.PoolSize - 10)},
		{Buf: make([]byte, 64), RKey: rkeyPoolBase},
	}
	if err := cl.osBurst(opRead, reqs); err != nil {
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
	wr := []client.Req{{Buf: make([]byte, 64), RKey: rkeyPoolBase, Off: uint64(cfg.PoolSize - 10)}}
	if err := cl.osBurst(opWrite, wr); err != nil || !wr[0].NAK {
		t.Fatalf("out-of-bounds write: err=%v NAK=%v, want a NAK", err, wr[0].NAK)
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

// TestOneSidedBoundsOverflow: a one-sided frame whose offset sits at the
// top of the int range makes off+length wrap negative. The bounds check
// must refuse it with a NAK — not index the device out of range, which
// panics the whole process from a connection goroutine — and the same
// connection must keep serving valid frames afterwards.
func TestOneSidedBoundsOverflow(t *testing.T) {
	cfg := smallConfig()
	_, addr := startServer(t, nvm.New(cfg.DeviceSize()), cfg)
	conn, err := dialChannel(addr, chanOneSided)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	exchange := func(op byte, off uint64, length uint32, data []byte) (status byte, payload []byte) {
		t.Helper()
		frame := make([]byte, 21, 21+len(data))
		binary.BigEndian.PutUint32(frame, uint32(17+len(data)))
		frame[4] = op
		binary.BigEndian.PutUint32(frame[5:], rkeyTable)
		binary.BigEndian.PutUint64(frame[9:], off)
		binary.BigEndian.PutUint32(frame[17:], length)
		if _, err := conn.Write(append(frame, data...)); err != nil {
			t.Fatal(err)
		}
		var hdr [5]byte
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			t.Fatalf("op %d off %#x: no reply (server died?): %v", op, off, err)
		}
		payload = make([]byte, binary.BigEndian.Uint32(hdr[:])-1)
		if _, err := io.ReadFull(conn, payload); err != nil {
			t.Fatal(err)
		}
		return hdr[4], payload
	}
	const top = 0x7fff_ffff_ffff_ffff
	if st, p := exchange(opRead, top, 16, nil); st != 0 || len(p) != 0 {
		t.Fatalf("hostile READ: status %d with %d bytes, want a bare NAK", st, len(p))
	}
	if st, _ := exchange(opWrite, top, 16, make([]byte, 16)); st != 0 {
		t.Fatalf("hostile WRITE: status %d, want NAK", st)
	}
	if st, p := exchange(opRead, 0, 64, nil); st != 1 || len(p) != 64 {
		t.Fatalf("valid READ after the hostile frames: status %d, %d bytes", st, len(p))
	}
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
