package modelcheck

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"efactory/internal/efactory"
	"efactory/internal/model"
	"efactory/internal/nvm"
	"efactory/internal/sim"
	"efactory/internal/tcpkv"
)

// TestSimTxnDifferential replays seeded transactional workloads against
// the simulated transport. Sequential replay makes the map oracle a
// serializable-history check: commits apply whole, in commit order, and
// snapshot reads must match the model at every index.
func TestSimTxnDifferential(t *testing.T) {
	const opsPerConfig = 2000
	for _, shards := range []int{1, 4} {
		name := fmt.Sprintf("shards=%d", shards)
		t.Run(name, func(t *testing.T) {
			seed := uint64(31 + 7*shards)
			ops := GenTxn(seed, opsPerConfig)
			env := sim.NewEnv(seed)
			par := model.Default()
			cfg := efactory.DefaultConfig()
			cfg.Shards = shards
			cfg.CleanThreshold = 0.15 // cleaning moves committed versions under live reads
			srv := efactory.NewServer(env, &par, cfg)
			cl := srv.AttachClient("mc-txn")
			cl.EnableHintCache()
			var derr error
			env.Go("driver", func(p *sim.Proc) {
				derr = DiffTxn(simKV{cl, p}, ops)
				srv.Stop()
			})
			env.Run()
			if derr != nil {
				t.Fatalf("seed %d: %v", seed, derr)
			}
		})
	}
}

// tcpTxnServer builds a multi-shard TCP server for the transactional
// suites; shards > 1 so commits routinely span shards.
func tcpTxnServer(t *testing.T, shards int) string {
	t.Helper()
	cfg := tcpkv.Config{
		Buckets:        1024,
		PoolSize:       8 << 20,
		Shards:         shards,
		VerifyTimeout:  2 * time.Second,
		CleanThreshold: 0.15,
	}
	srv, err := tcpkv.NewServer(nvm.New(cfg.DeviceSize()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// TestTCPTxnDifferential is the same serializable-history replay over
// real sockets, goroutines, and wall-clock background verification.
func TestTCPTxnDifferential(t *testing.T) {
	const opsPerConfig = 2000
	for _, shards := range []int{1, 4} {
		name := fmt.Sprintf("shards=%d", shards)
		t.Run(name, func(t *testing.T) {
			seed := uint64(131 + 7*shards)
			ops := GenTxn(seed, opsPerConfig)
			addr := tcpTxnServer(t, shards)
			cl, err := tcpkv.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			if err := DiffTxn(cl, ops); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		})
	}
}

// atomicityKeys is the fixed write set of the concurrent atomicity tests:
// every transaction overwrites all of them with one marker value, so any
// snapshot mixing two markers (or a marker with absence) caught a
// half-visible commit.
func atomicityKeys() [][]byte {
	keys := make([][]byte, 6)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("atom-key-%d", i))
	}
	return keys
}

// checkSnapshot enforces the two snapshot invariants and returns the
// marker seen (nil for the all-absent snapshot before the first commit).
// lastIter tracks, per writer, the newest commit iteration this reader
// has observed: commits of one writer are ordered, and snapshot cuts only
// advance, so observing an older iteration again is a regression.
func checkSnapshot(vals [][]byte, errs []error, lastIter map[int]int) (string, error) {
	found := 0
	for i := range vals {
		if errs[i] == nil {
			found++
		}
	}
	if found == 0 {
		return "", nil
	}
	if found != len(vals) {
		return "", fmt.Errorf("half-visible commit: %d of %d keys present", found, len(vals))
	}
	for i := 1; i < len(vals); i++ {
		if !bytes.Equal(vals[i], vals[0]) {
			return "", fmt.Errorf("snapshot mixes transactions: key 0 has %q, key %d has %q", vals[0], i, vals[i])
		}
	}
	marker := string(vals[0])
	var writer, iter int
	if _, err := fmt.Sscanf(marker, "m:%d:%d", &writer, &iter); err != nil {
		return "", fmt.Errorf("snapshot holds a non-marker value %q: %v", marker, err)
	}
	if last, ok := lastIter[writer]; ok && iter < last {
		return "", fmt.Errorf("snapshot regressed: writer %d iteration %d after observing %d", writer, iter, last)
	}
	lastIter[writer] = iter
	return marker, nil
}

// TestTCPTxnAtomicity hammers one server with concurrent transactional
// writers (all committing the full fixed key set with a unique marker),
// concurrent snapshot readers, and concurrent single-key PUT/DELETE
// traffic on disjoint keys. Every snapshot must observe exactly one
// transaction's complete write set, with per-writer commit order never
// regressing across a reader's successive cuts. Run under -race in CI.
func TestTCPTxnAtomicity(t *testing.T) {
	const (
		writers       = 2
		commitsPer    = 150
		readers       = 2
		soloKeys      = 4
		soloOpsPerKey = 200
	)
	addr := tcpTxnServer(t, 4)
	keys := atomicityKeys()
	var done atomic.Bool
	var wgWriters, wgReaders sync.WaitGroup
	errCh := make(chan error, writers+readers+1)

	for w := 0; w < writers; w++ {
		wgWriters.Add(1)
		go func(w int) {
			defer wgWriters.Done()
			cl, err := tcpkv.Dial(addr)
			if err != nil {
				errCh <- err
				return
			}
			defer cl.Close()
			for i := 0; i < commitsPer; i++ {
				marker := []byte(fmt.Sprintf("m:%d:%d", w, i))
				vals := make([][]byte, len(keys))
				for j := range vals {
					vals[j] = marker
				}
				if _, err := cl.TxnCommit(keys, vals); err != nil {
					errCh <- fmt.Errorf("writer %d commit %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wgWriters.Add(1)
	go func() {
		defer wgWriters.Done()
		cl, err := tcpkv.Dial(addr)
		if err != nil {
			errCh <- err
			return
		}
		defer cl.Close()
		// Disjoint single-key churn: must never appear in snapshots of the
		// transactional key set, and transactions must not disturb it.
		for i := 0; i < soloOpsPerKey; i++ {
			for k := 0; k < soloKeys; k++ {
				key := []byte(fmt.Sprintf("solo-key-%d", k))
				if i%3 == 2 {
					cl.Delete(key)
					continue
				}
				if err := cl.Put(key, []byte(fmt.Sprintf("solo:%d:%d", k, i))); err != nil {
					errCh <- fmt.Errorf("solo put: %w", err)
					return
				}
			}
		}
	}()
	for r := 0; r < readers; r++ {
		wgReaders.Add(1)
		go func(r int) {
			defer wgReaders.Done()
			cl, err := tcpkv.Dial(addr)
			if err != nil {
				errCh <- err
				return
			}
			defer cl.Close()
			lastIter := make(map[int]int)
			snaps := 0
			for !done.Load() {
				vals, errs := cl.TxnRead(keys)
				if _, err := checkSnapshot(vals, errs, lastIter); err != nil {
					errCh <- fmt.Errorf("reader %d snapshot %d: %w", r, snaps, err)
					return
				}
				snaps++
			}
			if snaps == 0 {
				errCh <- fmt.Errorf("reader %d took no snapshots", r)
			}
		}(r)
	}

	// Writers and the solo mutator finish first; readers keep snapshotting
	// throughout and stop once the write load is over.
	waitOn := func(wg *sync.WaitGroup, who string) {
		ch := make(chan struct{})
		go func() { wg.Wait(); close(ch) }()
		select {
		case <-ch:
		case err := <-errCh:
			done.Store(true)
			t.Fatal(err)
		case <-time.After(2 * time.Minute):
			done.Store(true)
			t.Fatalf("atomicity test timed out waiting for %s", who)
		}
	}
	waitOn(&wgWriters, "writers")
	done.Store(true)
	waitOn(&wgReaders, "readers")
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}
