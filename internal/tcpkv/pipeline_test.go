package tcpkv

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"efactory/internal/fault"
	"efactory/internal/nvm"
)

func TestPutBatchRoundTrip(t *testing.T) {
	cfg := smallConfig()
	cfg.BGBatch = 8
	_, addr := startServer(t, nvm.New(cfg.DeviceSize()), cfg)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const n = 24
	keys := make([][]byte, n)
	vals := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("batch-%02d", i))
		vals[i] = bytes.Repeat([]byte{byte(i + 1)}, 64+i*13)
	}
	for _, err := range cl.PutBatch(keys, vals) {
		if err != nil {
			t.Fatalf("PutBatch: %v", err)
		}
	}
	for i := range keys {
		got, err := cl.Get(keys[i])
		if err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
		if !bytes.Equal(got, vals[i]) {
			t.Fatalf("Get %d: wrong value", i)
		}
	}
}

// TestPutBatchDuplicateKeyLWW: a batch may carry several writes of one
// key; the ops are granted and applied in request order, so the last
// value in the batch must win — same last-writer-wins contract as a
// sequence of single PUTs.
func TestPutBatchDuplicateKeyLWW(t *testing.T) {
	cfg := smallConfig()
	_, addr := startServer(t, nvm.New(cfg.DeviceSize()), cfg)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	keys := [][]byte{[]byte("dup"), []byte("other"), []byte("dup")}
	vals := [][]byte{[]byte("first-version-xxxxxxxx"), []byte("bystander"), []byte("last-version-yyyyyyyy")}
	for _, err := range cl.PutBatch(keys, vals) {
		if err != nil {
			t.Fatalf("PutBatch: %v", err)
		}
	}
	got, err := cl.Get([]byte("dup"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, vals[2]) {
		t.Fatalf("duplicate key resolved to %q, want the batch's last write %q", got, vals[2])
	}
}

func TestPutBatchLengthMismatchPanics(t *testing.T) {
	cfg := smallConfig()
	_, addr := startServer(t, nvm.New(cfg.DeviceSize()), cfg)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("PutBatch with mismatched slice lengths did not panic")
		}
	}()
	cl.PutBatch([][]byte{[]byte("a")}, nil)
}

// TestPipelinedLWWOrdering drives many goroutines through ONE pipelined
// connection: each owns a key and issues strictly ordered writes, with
// interleaved reads. Whatever the interleaving on the wire, each
// goroutine's final write must win on its key — the demultiplexed
// transport may reorder completions of INDEPENDENT ops but must not
// reorder one issuer's acknowledged sequence.
func TestPipelinedLWWOrdering(t *testing.T) {
	cfg := smallConfig()
	_, addr := startServer(t, nvm.New(cfg.DeviceSize()), cfg)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const writers, gens = 8, 40
	var wg sync.WaitGroup
	errc := make(chan error, writers)
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := []byte(fmt.Sprintf("writer-%d", w))
			for g := 0; g < gens; g++ {
				val := []byte(fmt.Sprintf("w%d-gen%03d", w, g))
				if err := cl.Put(key, val); err != nil {
					errc <- fmt.Errorf("writer %d put %d: %w", w, g, err)
					return
				}
				if g%5 == 0 {
					got, err := cl.Get(key)
					if err != nil {
						errc <- fmt.Errorf("writer %d get %d: %w", w, g, err)
						return
					}
					if !bytes.Equal(got, val) {
						errc <- fmt.Errorf("writer %d read back %q after writing %q", w, got, val)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	for w := 0; w < writers; w++ {
		key := []byte(fmt.Sprintf("writer-%d", w))
		want := []byte(fmt.Sprintf("w%d-gen%03d", w, gens-1))
		got, err := cl.Get(key)
		if err != nil {
			t.Fatalf("final get %d: %v", w, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("writer %d: final value %q, want last write %q", w, got, want)
		}
	}
}

// TestIdleConnectionOutlivesCallTimeout pins the deadline-clearing
// contract: the per-call RetryPolicy timeout must apply to in-flight
// calls only. A pipelined connection sitting idle for longer than the
// timeout must NOT be torn down or spuriously expire the next call.
func TestIdleConnectionOutlivesCallTimeout(t *testing.T) {
	cfg := smallConfig()
	_, addr := startServer(t, nvm.New(cfg.DeviceSize()), cfg)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetRetryPolicy(RetryPolicy{Attempts: 1, Timeout: 100 * time.Millisecond})

	if err := cl.Put([]byte("idle-key"), []byte("before-the-nap")); err != nil {
		t.Fatalf("put: %v", err)
	}
	time.Sleep(350 * time.Millisecond) // idle for > 3x the call timeout
	got, err := cl.Get([]byte("idle-key"))
	if err != nil {
		t.Fatalf("get after idling past the call timeout: %v", err)
	}
	if !bytes.Equal(got, []byte("before-the-nap")) {
		t.Fatalf("got %q", got)
	}
	if cl.Reconnects != 0 {
		t.Fatalf("idle period forced %d reconnects, want 0", cl.Reconnects)
	}
}

// TestPipeSlotReuseRaceFree pins the pooled call slot's ownership: the
// caller writes its own request frame, so a response that overtakes the
// return of Write never finds another goroutine still reading the frame
// the next call is about to overwrite. Run under -race (CI does); with a
// separate writer goroutine draining a queue of slot frames — the design
// this replaced — the sequential leg alone reports a DATA RACE.
func TestPipeSlotReuseRaceFree(t *testing.T) {
	_, addr := startBenchServer(t)
	cl := benchDial(t, addr)
	keys, vals := benchKVs(64, 256)
	const puts = 1500
	for i := 0; i < puts; i++ { // sequential: one slot reused back to back
		if err := cl.Put(keys[i%len(keys)], vals[i%len(keys)]); err != nil {
			t.Fatalf("sequential put %d: %v", i, err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ { // concurrent: slots cycle through the pool
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < puts/8; i++ {
				k := (g*31 + i) % len(keys)
				if err := cl.Put(keys[k], vals[k]); err != nil {
					t.Errorf("goroutine %d put %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestTCPTortureSweepBatched reruns the crash-point sweep with the
// group-verified, group-flushed background path enabled: batching must
// not open any crash window the per-object path doesn't have.
func TestTCPTortureSweepBatched(t *testing.T) {
	cfg := tcpTortureConfig()
	cfg.BGBatch = 4
	points := 6
	if testing.Short() {
		points = 3
	}
	sr, err := fault.Sweep(RunTCPTorture, cfg, []uint64{1, 2}, points)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	for _, v := range sr.Violations {
		t.Error(v)
	}
	if len(sr.Violations) == 0 && sr.Runs < 6 {
		t.Fatalf("sweep ran only %d runs", sr.Runs)
	}
}
