// TCP-transport GetBatch + hint cache: batched results must match per-key
// Gets, oversized batches are rejected, and — the core safety property —
// concurrent writers churning keys must never make a hint-cached reader
// observe a torn value, a wrong key's bytes, or a version older than one
// it already saw.
package tcpkv

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"efactory/internal/nvm"
	"efactory/internal/server"
)

func TestGetBatchMatchesGetTCP(t *testing.T) {
	cfg := smallConfig()
	cfg.Shards = 2
	_, addr := startServer(t, nvm.New(cfg.DeviceSize()), cfg)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ref, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	var keys, vals [][]byte
	for i := 0; i < 20; i++ {
		keys = append(keys, []byte(fmt.Sprintf("gbt-key-%03d", i)))
		vals = append(vals, []byte(fmt.Sprintf("gbt-val-%03d-%s", i, strings.Repeat("x", i*7))))
	}
	for i, err := range cl.PutBatch(keys, vals) {
		if err != nil {
			t.Fatalf("put %s: %v", keys[i], err)
		}
	}
	time.Sleep(100 * time.Millisecond) // let background verification settle
	if err := cl.Delete(keys[5]); err != nil {
		t.Fatal(err)
	}
	probe := append(append([][]byte{}, keys...), []byte("gbt-absent"))
	got, errs := cl.GetBatch(probe)
	for i, k := range probe {
		wantVal, wantErr := ref.Get(k)
		if (errs[i] == nil) != (wantErr == nil) {
			t.Errorf("key %s: err %v, want %v", k, errs[i], wantErr)
			continue
		}
		if string(got[i]) != string(wantVal) {
			t.Errorf("key %s: val %q, want %q", k, got[i], wantVal)
		}
	}
	if !errors.Is(errs[5], ErrNotFound) || !errors.Is(errs[len(probe)-1], ErrNotFound) {
		t.Fatalf("deleted/absent errs: %v / %v", errs[5], errs[len(probe)-1])
	}
	if cl.BatchedGets != len(probe) {
		t.Fatalf("BatchedGets = %d, want %d", cl.BatchedGets, len(probe))
	}
}

func TestGetBatchHintCacheTCP(t *testing.T) {
	cfg := smallConfig()
	_, addr := startServer(t, nvm.New(cfg.DeviceSize()), cfg)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var keys, vals [][]byte
	for i := 0; i < 12; i++ {
		keys = append(keys, []byte(fmt.Sprintf("gbh-key-%03d", i)))
		vals = append(vals, []byte(fmt.Sprintf("gbh-val-%03d-xxxxxxxxxxxx", i)))
	}
	for i := range keys {
		if err := cl.Put(keys[i], vals[i]); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(100 * time.Millisecond)
	// A PUT's hint names no table slot, so the first batch guesses the home
	// buckets and learns slot-bearing hints; the second runs entirely on
	// the hinted fast path.
	if _, errs := cl.GetBatch(keys); errs[0] != nil {
		t.Fatal(errs[0])
	}
	before := cl.HintedReads
	got, errs := cl.GetBatch(keys)
	for i := range keys {
		if errs[i] != nil || string(got[i]) != string(vals[i]) {
			t.Fatalf("key %s: %q, %v", keys[i], got[i], errs[i])
		}
	}
	if hinted := cl.HintedReads - before; hinted != len(keys) {
		t.Fatalf("HintedReads advanced by %d, want %d", hinted, len(keys))
	}
	if st := cl.HintCache().Stats(); st.Hits == 0 || st.Inserts == 0 {
		t.Fatalf("hint cache never used: %+v", st)
	}
}

// writeCounter counts the writes made through a connection: on the
// one-sided channel, one per burst.
type writeCounter struct {
	net.Conn
	writes int
}

func (w *writeCounter) Write(b []byte) (int, error) {
	w.writes++
	return w.Conn.Write(b)
}

// TestDialReadsHinted: a client straight from Dial, with no configuration
// call, reads through the hint cache. A settled key's first Get learns the
// hint's table slot; the second is one one-sided burst (entry + object)
// and no RPC.
func TestDialReadsHinted(t *testing.T) {
	cfg := smallConfig()
	srv, addr := startServer(t, nvm.New(cfg.DeviceSize()), cfg)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	key, val := []byte("hinted-key"), []byte("hinted-value")
	if err := cl.Put(key, val); err != nil {
		t.Fatal(err)
	}
	waitDurable(t, srv)
	if _, err := cl.Get(key); err != nil {
		t.Fatal(err)
	}
	wc := &writeCounter{Conn: cl.osConn}
	cl.osConn = wc
	rpcGets, hinted := srv.Stats().Gets, cl.HintedReads
	got, err := cl.Get(key)
	if err != nil || string(got) != string(val) {
		t.Fatalf("second Get = %q, %v", got, err)
	}
	if wc.writes != 1 || cl.HintedReads-hinted != 1 || srv.Stats().Gets != rpcGets {
		t.Fatalf("second Get: %d one-sided bursts, HintedReads +%d, %d RPC GETs; want 1, 1, 0",
			wc.writes, cl.HintedReads-hinted, srv.Stats().Gets-rpcGets)
	}
}

// TestDialReadsOwnWriteHinted: a client's own acknowledged Put teaches its
// hint cache where the new version lives, so the first Get of the settled
// key is already one one-sided burst (entry + object) and no RPC.
func TestDialReadsOwnWriteHinted(t *testing.T) {
	cfg := smallConfig()
	srv, addr := startServer(t, nvm.New(cfg.DeviceSize()), cfg)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	key, val := []byte("own-write-key"), []byte("own-write-value")
	if err := cl.Put(key, val); err != nil {
		t.Fatal(err)
	}
	waitDurable(t, srv)
	wc := &writeCounter{Conn: cl.osConn}
	cl.osConn = wc
	rpcGets := srv.Stats().Gets
	got, err := cl.Get(key)
	if err != nil || string(got) != string(val) {
		t.Fatalf("first Get = %q, %v", got, err)
	}
	if wc.writes != 1 || cl.HintedReads != 1 || srv.Stats().Gets != rpcGets {
		t.Fatalf("first Get: %d one-sided bursts, HintedReads %d, %d RPC GETs; want 1, 1, 0",
			wc.writes, cl.HintedReads, srv.Stats().Gets-rpcGets)
	}
}

// TestOwnWritesNeverReadOlder hammers one key from one client: goroutines
// take turns writing it (each Put acked before the next is issued) while
// every goroutine reads it through Get and GetBatch. Own-write hints race
// with hints learned by reads that started before a Put; whatever the
// cache holds, no read may return a version older than the last Put acked
// before the read began. Run under -race.
func TestOwnWritesNeverReadOlder(t *testing.T) {
	cfg := smallConfig()
	_, addr := startServer(t, nvm.New(cfg.DeviceSize()), cfg)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const key, size, writers, readers, puts = "hammered", 96, 2, 2, 200
	var (
		mu      sync.Mutex // serializes the Puts, so acked versions are ordered
		version int
		acked   atomic.Int64
		done    atomic.Bool
		wg      sync.WaitGroup
	)
	check := func(g, i int) {
		floor := int(acked.Load())
		var raw []byte
		var err error
		if i%2 == 0 {
			raw, err = cl.Get([]byte(key))
		} else {
			vals, errs := cl.GetBatch([][]byte{[]byte(key)})
			raw, err = vals[0], errs[0]
		}
		if err != nil {
			t.Errorf("goroutine %d: read: %v", g, err)
			return
		}
		v, err := parseRaceVal(key, raw, size)
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		} else if v < floor {
			t.Errorf("goroutine %d: read version %d after version %d was acked", g, v, floor)
		}
	}
	mu.Lock()
	version = 1
	if err := cl.Put([]byte(key), raceVal(key, version, size)); err != nil {
		t.Fatal(err)
	}
	acked.Store(1)
	mu.Unlock()
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < puts; i++ {
				mu.Lock()
				version++
				v := version
				if err := cl.Put([]byte(key), raceVal(key, v, size)); err != nil {
					mu.Unlock()
					t.Errorf("writer %d: put %d: %v", g, v, err)
					return
				}
				acked.Store(int64(v))
				mu.Unlock()
				check(g, i)
			}
		}(g)
	}
	for g := writers; g < writers+readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !done.Load(); i++ {
				check(g, i)
			}
		}(g)
	}
	for acked.Load() < 1+writers*puts && !t.Failed() {
		time.Sleep(time.Millisecond)
	}
	done.Store(true)
	wg.Wait()
	if st := cl.HintCache().Stats(); st.Hits == 0 {
		t.Errorf("the reads never hit a hint: %+v", st)
	}
}

// TestGetBatchRejectsOversized: a read RPC over the server's op cap is
// refused for every key. A fresh client holds no hints, so under the
// server's inline budget every key goes straight to that one RPC.
func TestGetBatchRejectsOversized(t *testing.T) {
	cfg := smallConfig()
	_, addr := startServer(t, nvm.New(cfg.DeviceSize()), cfg)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var keys [][]byte
	for i := 0; i < server.DefaultMaxOps+1; i++ {
		keys = append(keys, []byte(fmt.Sprintf("big-%d", i)))
	}
	_, errs := cl.GetBatch(keys)
	for i := range keys {
		if errs[i] == nil || errors.Is(errs[i], ErrNotFound) {
			t.Fatalf("key %d: err %v, want a status error", i, errs[i])
		}
	}
}

// raceVal builds the parseable value written for key at version v:
// "<key>|<8-digit version>|xxx..." padded to a per-key fixed length, so a
// reader can detect torn bytes, wrong-object bytes, and version movement.
func raceVal(key string, v int, size int) []byte {
	s := fmt.Sprintf("%s|%08d|", key, v)
	if len(s) < size {
		s += strings.Repeat("x", size-len(s))
	}
	return []byte(s)
}

// parseRaceVal validates shape and extracts the version.
func parseRaceVal(key string, raw []byte, size int) (int, error) {
	if len(raw) != size {
		return 0, fmt.Errorf("length %d, want %d", len(raw), size)
	}
	s := string(raw)
	if !strings.HasPrefix(s, key+"|") {
		return 0, fmt.Errorf("wrong key prefix: %.40q", s)
	}
	rest := s[len(key)+1:]
	if len(rest) < 9 || rest[8] != '|' {
		return 0, fmt.Errorf("malformed version field: %.40q", s)
	}
	v, err := strconv.Atoi(rest[:8])
	if err != nil {
		return 0, fmt.Errorf("unparseable version: %.40q", s)
	}
	if pad := rest[9:]; strings.Trim(pad, "x") != "" {
		return 0, fmt.Errorf("corrupt padding: %.40q", s)
	}
	return v, nil
}

// TestGetBatchHintRace hammers GetBatch through the hint cache while
// writers overwrite (and occasionally delete/recreate) the same keys.
// Stale hints are expected and harmless; what must NEVER happen is a
// reader observing torn bytes, another key's object, or — since a version
// is only served once durable and durable versions are never rolled back
// past — a version older than one that reader already saw for the key.
func TestGetBatchHintRace(t *testing.T) {
	cfg := smallConfig()
	cfg.Shards = 2
	_, addr := startServer(t, nvm.New(cfg.DeviceSize()), cfg)
	writer, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()

	const nKeys = 8
	const rounds = 120
	keys := make([][]byte, nKeys)
	sizes := make([]int, nKeys)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("race-key-%02d", i))
		sizes[i] = 48 + i*16
	}
	for i, k := range keys {
		if err := writer.Put(k, raceVal(string(k), 0, sizes[i])); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	var failures []string
	report := func(f string, args ...any) {
		mu.Lock()
		failures = append(failures, fmt.Sprintf(f, args...))
		mu.Unlock()
	}

	// One writer goroutine per key: strictly increasing versions, with an
	// occasional delete-then-recreate to exercise tombstoned hints.
	for i := range keys {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := string(keys[i])
			for v := 1; v <= rounds; v++ {
				if v%40 == 0 {
					if err := writer.Delete(keys[i]); err != nil && !errors.Is(err, ErrNotFound) {
						report("delete %s: %v", k, err)
						return
					}
				}
				if err := writer.Put(keys[i], raceVal(k, v, sizes[i])); err != nil {
					report("put %s v%d: %v", k, v, err)
					return
				}
			}
		}(i)
	}

	// Reader goroutines, each with its own (hint-cached) client, each
	// checking well-formedness and per-reader version monotonicity.
	for r := 0; r < 3; r++ {
		cl, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		wg.Add(1)
		go func(cl *Client, r int) {
			defer wg.Done()
			last := make([]int, nKeys)
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, errs := cl.GetBatch(keys)
				for i := range keys {
					if errs[i] != nil {
						if errors.Is(errs[i], ErrNotFound) {
							continue // mid delete/recreate
						}
						report("reader %d key %s: %v", r, keys[i], errs[i])
						return
					}
					v, perr := parseRaceVal(string(keys[i]), got[i], sizes[i])
					if perr != nil {
						report("reader %d key %s: %v", r, keys[i], perr)
						return
					}
					if v < last[i] {
						report("reader %d key %s: version went backwards %d -> %d", r, keys[i], last[i], v)
						return
					}
					last[i] = v
				}
			}
		}(cl, r)
	}

	// Let writers finish, give readers a moment against the final state,
	// then stop.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	writersDone := make(chan struct{})
	go func() {
		// Writers are the first nKeys waitgroup members; approximate their
		// completion by polling the final version of the last key.
		for {
			v, err := writer.Get(keys[nKeys-1])
			if err == nil {
				if got, perr := parseRaceVal(string(keys[nKeys-1]), v, sizes[nKeys-1]); perr == nil && got == rounds {
					close(writersDone)
					return
				}
			}
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
			}
		}
	}()
	select {
	case <-writersDone:
	case <-time.After(30 * time.Second):
		t.Log("writers did not reach final version in time; stopping anyway")
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	<-done

	mu.Lock()
	defer mu.Unlock()
	for _, f := range failures {
		t.Error(f)
	}
}
