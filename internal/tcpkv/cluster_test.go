package tcpkv

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"efactory/internal/cluster"
	"efactory/internal/kv"
	"efactory/internal/nvm"
	"efactory/internal/store"
)

// debugKeyState dumps everything the given servers know about key k —
// version chain, tombstone state, and every trace-ring event touching
// its hash — so a lost-write failure pinpoints which side dropped it.
func debugKeyState(srvs map[string]*Server, k []byte) string {
	h := kv.HashKey(k)
	var b strings.Builder
	fmt.Fprintf(&b, "key %q hash %x", k, h)
	for name, srv := range srvs {
		eng := srv.st.Shard(cluster.ShardFor(k, srv.st.NumShards()))
		m := srv.ClusterMap()
		fmt.Fprintf(&b, "\n  [%s] epoch=%d pg=%d", name, m.Epoch, cluster.PGOf(h, m.PGs))
		if ek, ok := eng.ExportOne(k); ok {
			fmt.Fprintf(&b, " tomb=%v cut=%d", ek.Tombstone, ek.CutSeq)
			for _, v := range ek.Versions {
				fmt.Fprintf(&b, " {seq=%d flags=%02x vlen=%d}", v.Seq, v.Flags, len(v.Value))
			}
		} else {
			fmt.Fprintf(&b, " absent")
		}
		for _, ev := range srv.st.Metrics().Ring().Dump() {
			if ev.KeyHash == h {
				fmt.Fprintf(&b, "\n    [%s] t=%d s%d %s/%s seq=%d", name, ev.TimeNS, ev.Shard, ev.Op, ev.Outcome, ev.Seq)
			}
		}
	}
	return b.String()
}

// startClusterServer listens first (the instance must advertise its
// address in the map), then serves. pgs > 0 makes it a standalone seed
// owning everything; pgs == 0 names it without a map (a joiner).
func startClusterServer(t *testing.T, name string, pgs int, cfg Config) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(nvm.New(cfg.DeviceSize()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	if pgs > 0 {
		srv.EnableCluster(name, addr, pgs)
	} else {
		srv.SetInstanceName(name, addr)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return srv, addr
}

func clusterTestConfig() Config {
	cfg := smallConfig()
	cfg.Shards = 2
	return cfg
}

// joinInstance admits joiner into seed's cluster via the wire and
// installs the returned map on the joiner, as cmd/efactory-server -join
// does. At Replicas ≥ 2 the seed's replica attach runs concurrently and
// may already have pushed the joiner a newer map, which it keeps.
func joinInstance(t *testing.T, seedAddr string, joiner *Server) *cluster.Map {
	t.Helper()
	m, err := joiner.Join(joiner.InstanceName(), joiner.clSelf, seedAddr)
	if err != nil {
		t.Fatal(err)
	}
	if ep := joiner.ClusterMap().Epoch; ep < m.Epoch {
		t.Fatalf("joiner at epoch %d after installing %d", ep, m.Epoch)
	}
	return m
}

func TestClusterMapJoinAndPropagation(t *testing.T) {
	cfg := clusterTestConfig()
	srvA, addrA := startClusterServer(t, "a", 8, cfg)
	srvB, _ := startClusterServer(t, "b", 0, cfg)

	ca, err := Dial(addrA)
	if err != nil {
		t.Fatal(err)
	}
	defer ca.Close()
	m, err := ca.ClusterMapRPC()
	if err != nil {
		t.Fatal(err)
	}
	if m.Epoch != 1 || len(m.OwnedPGs("a")) != 8 {
		t.Fatalf("seed map: epoch %d, a owns %d PGs", m.Epoch, len(m.OwnedPGs("a")))
	}

	jm := joinInstance(t, addrA, srvB)
	if jm.Epoch != 2 {
		t.Fatalf("post-join epoch = %d, want 2", jm.Epoch)
	}
	if len(jm.OwnedPGs("b")) != 0 {
		t.Fatalf("joiner owns %d PGs before any migration", len(jm.OwnedPGs("b")))
	}
	if got := srvA.ClusterMap().Epoch; got != 2 {
		t.Fatalf("seed stayed at epoch %d", got)
	}
	if got := srvB.ClusterMap().Epoch; got != 2 {
		t.Fatalf("joiner at epoch %d", got)
	}

	// Stale maps are refused, typed: offering epoch 1 back leaves both at
	// 2, and the pusher learns it was not adopted.
	var we *cluster.WrongEpochError
	if _, err := ca.SetClusterMapRPC(m); !errors.As(err, &we) || we.Epoch != 2 {
		t.Fatalf("stale map push: err %v, want a WrongEpochError at epoch 2", err)
	}
	if got := srvA.ClusterMap().Epoch; got != 2 {
		t.Fatalf("stale push moved the seed to epoch %d", got)
	}
}

func TestWrongEpochRejectAndRoutedRetry(t *testing.T) {
	cfg := clusterTestConfig()
	srvA, addrA := startClusterServer(t, "a", 8, cfg)
	srvB, _ := startClusterServer(t, "b", 0, cfg)
	joinInstance(t, addrA, srvB)

	// A raw client frozen at the pre-migration epoch: the stale-cache
	// scenario a routed client's retry loop exists for.
	stale, err := Dial(addrA)
	if err != nil {
		t.Fatal(err)
	}
	defer stale.Close()
	stale.SetClusterEpoch(srvA.ClusterMap().Epoch)
	key := []byte("routed-key")
	if err := stale.Put(key, []byte("v1")); err != nil {
		t.Fatal(err)
	}

	pg := cluster.PGForKey(key, 8)
	if _, err := srvA.MigratePG(pg, "b"); err != nil {
		t.Fatalf("migrate: %v", err)
	}

	// The stale client's RPC ops on the moved key must now be rejected
	// with the server's current epoch — never silently misapplied, never
	// NotFound.
	_, err = stale.Get(key)
	var we *cluster.WrongEpochError
	if !errors.As(err, &we) {
		t.Fatalf("stale get after migration: %v, want WrongEpochError", err)
	}
	if we.Epoch != srvA.ClusterMap().Epoch {
		t.Fatalf("reject carries epoch %d, server at %d", we.Epoch, srvA.ClusterMap().Epoch)
	}
	if err := stale.Put(key, []byte("v2")); !errors.As(err, &we) {
		t.Fatalf("stale put after migration: %v, want WrongEpochError", err)
	}
	if err := stale.Delete(key); !errors.As(err, &we) {
		t.Fatalf("stale delete after migration: %v, want WrongEpochError", err)
	}

	// A routed client rides the redirect: fetch map, observe the reject,
	// refetch, land on "b".
	cc, err := DialCluster(addrA, DefaultClusterClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	got, err := cc.Get(key)
	if err != nil || string(got) != "v1" {
		t.Fatalf("routed get after migration: %q, %v", got, err)
	}
	if err := cc.Put(key, []byte("v2")); err != nil {
		t.Fatalf("routed put after migration: %v", err)
	}
	if got, _ := cc.Get(key); string(got) != "v2" {
		t.Fatalf("routed reread: %q", got)
	}
	// The new value lives on b, not a.
	if srvB.Stats().KeysImported == 0 {
		t.Fatal("target imported nothing")
	}
}

func TestMigrationMovesStateBitIntact(t *testing.T) {
	cfg := clusterTestConfig()
	srvA, addrA := startClusterServer(t, "a", 4, cfg)
	srvB, _ := startClusterServer(t, "b", 0, cfg)
	joinInstance(t, addrA, srvB)

	cc, err := DialCluster(addrA, DefaultClusterClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	// Live values, overwrites (version chains), deletes (tombstones),
	// and delete+re-put (cut sequences).
	want := make(map[string][]byte)
	for i := 0; i < 120; i++ {
		k := fmt.Sprintf("mig-%03d", i)
		v1 := bytes.Repeat([]byte{byte(i + 1)}, 40+i)
		if err := cc.Put([]byte(k), v1); err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
		want[k] = v1
		switch i % 4 {
		case 1: // overwrite
			v2 := bytes.Repeat([]byte{byte(i + 2)}, 30+i)
			if err := cc.Put([]byte(k), v2); err != nil {
				t.Fatal(err)
			}
			want[k] = v2
		case 2: // delete
			if err := cc.Delete([]byte(k)); err != nil {
				t.Fatal(err)
			}
			delete(want, k)
		case 3: // delete then re-put (cut sequence)
			if err := cc.Delete([]byte(k)); err != nil {
				t.Fatal(err)
			}
			v3 := bytes.Repeat([]byte{byte(i + 3)}, 20+i)
			if err := cc.Put([]byte(k), v3); err != nil {
				t.Fatal(err)
			}
			want[k] = v3
		}
	}

	var moved, purged int
	for pg := 0; pg < 4; pg++ {
		sum, err := srvA.MigratePG(pg, "b")
		if err != nil {
			t.Fatalf("migrate pg %d: %v", pg, err)
		}
		moved += sum.SnapshotKeys + sum.DrainKeys + sum.BlockedKeys
		purged += sum.Purged
	}
	if moved == 0 || purged == 0 {
		t.Fatalf("migration moved %d purged %d", moved, purged)
	}
	if got := srvA.ClusterMap().Epoch; got != 2+4 {
		t.Fatalf("epoch after 4 cutovers = %d, want 6", got)
	}
	if pgs := srvA.ClusterMap().OwnedPGs("b"); len(pgs) != 4 {
		t.Fatalf("b owns %v after full handoff", pgs)
	}

	// Every surviving key reads back through the routed client; deleted
	// keys stay deleted. The source is empty.
	for i := 0; i < 120; i++ {
		k := fmt.Sprintf("mig-%03d", i)
		got, err := cc.Get([]byte(k))
		if v, ok := want[k]; ok {
			if err != nil || !bytes.Equal(got, v) {
				t.Fatalf("get %s after migration: %v (len %d, want %d)", k, err, len(got), len(v))
			}
		} else if !errors.Is(err, ErrNotFound) {
			t.Fatalf("deleted %s after migration: %v, want ErrNotFound", k, err)
		}
	}
	srcLeft := 0
	for i := 0; i < srvA.Store().NumShards(); i++ {
		srvA.Store().Shard(i).ExportMatching(nil, func(store.ExportKey) bool {
			srcLeft++
			return true
		})
	}
	if srcLeft != 0 {
		t.Fatalf("source still holds %d entries after full handoff", srcLeft)
	}
	if st := srvA.Stats(); st.KeysPurged == 0 {
		t.Fatal("source purged nothing")
	}
}

// TestClusterTxnRoutingAndCrossInstanceReject pins the routed
// transactional surface end to end: a commit whose keys all live on one
// instance routes there (riding the wrong-epoch refresh if the cached
// map is stale), and a key set straddling two instances is rejected
// whole with ErrTxnCrossInstance — no op of it is ever applied.
func TestClusterTxnRoutingAndCrossInstanceReject(t *testing.T) {
	cfg := clusterTestConfig()
	const pgs = 4
	const movedPG = 2
	srvA, addrA := startClusterServer(t, "a", pgs, cfg)
	srvB, _ := startClusterServer(t, "b", 0, cfg)
	joinInstance(t, addrA, srvB)

	// Partition a key universe by placement group: stayKeys remain on a,
	// movedKeys follow pg 2 to b after the migration.
	var stayKeys, movedKeys [][]byte
	for i := 0; len(stayKeys) < 2 || len(movedKeys) < 2; i++ {
		k := []byte(fmt.Sprintf("ctxn-%03d", i))
		switch cluster.PGForKey(k, pgs) {
		case movedPG:
			if len(movedKeys) < 2 {
				movedKeys = append(movedKeys, k)
			}
		default:
			if len(stayKeys) < 2 {
				stayKeys = append(stayKeys, k)
			}
		}
	}

	cc, err := DialCluster(addrA, DefaultClusterClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	stayVals := [][]byte{[]byte("stay-0"), []byte("stay-1")}
	id, err := cc.TxnCommit(stayKeys, stayVals)
	if err != nil {
		t.Fatalf("pre-migration commit: %v", err)
	}
	if id == 0 {
		t.Fatal("pre-migration commit returned id 0")
	}
	// Seed the migrating pg so the cutover actually carries state; the
	// post-migration commit must then supersede this on b.
	if _, err := cc.TxnCommit(movedKeys, [][]byte{[]byte("pre-0"), []byte("pre-1")}); err != nil {
		t.Fatalf("seed commit: %v", err)
	}

	if _, err := srvA.MigratePG(movedPG, "b"); err != nil {
		t.Fatalf("migrate: %v", err)
	}

	// The client's cached map predates the cutover: this commit must ride
	// the wrong-epoch reject, refetch, and land on b.
	movedVals := [][]byte{[]byte("moved-0"), []byte("moved-1")}
	id2, err := cc.TxnCommit(movedKeys, movedVals)
	if err != nil {
		t.Fatalf("post-migration commit: %v", err)
	}
	if id2 == 0 {
		t.Fatal("post-migration commit returned id 0")
	}
	if srvB.Stats().KeysImported == 0 {
		t.Fatal("migration moved nothing to b")
	}

	// Snapshot reads route per-instance and see each commit whole.
	for _, tc := range []struct {
		keys [][]byte
		vals [][]byte
	}{{stayKeys, stayVals}, {movedKeys, movedVals}} {
		got, rerrs := cc.TxnRead(tc.keys)
		for i := range tc.keys {
			if rerrs[i] != nil || !bytes.Equal(got[i], tc.vals[i]) {
				t.Fatalf("txn read %q: %q, %v (want %q)", tc.keys[i], got[i], rerrs[i], tc.vals[i])
			}
		}
	}

	// A set straddling both instances fails whole, typed, on commit and
	// on read — and applies nothing.
	mixed := [][]byte{stayKeys[0], movedKeys[0]}
	if _, err := cc.TxnCommit(mixed, [][]byte{[]byte("poison-a"), []byte("poison-b")}); !errors.Is(err, ErrTxnCrossInstance) {
		t.Fatalf("cross-instance commit: %v, want ErrTxnCrossInstance", err)
	}
	if _, rerrs := cc.TxnRead(mixed); !errors.Is(rerrs[0], ErrTxnCrossInstance) || !errors.Is(rerrs[1], ErrTxnCrossInstance) {
		t.Fatalf("cross-instance read: %v / %v, want ErrTxnCrossInstance", rerrs[0], rerrs[1])
	}
	if got, err := cc.Get(stayKeys[0]); err != nil || !bytes.Equal(got, stayVals[0]) {
		t.Fatalf("key %q after rejected txn: %q, %v", stayKeys[0], got, err)
	}
	if got, err := cc.Get(movedKeys[0]); err != nil || !bytes.Equal(got, movedVals[0]) {
		t.Fatalf("key %q after rejected txn: %q, %v", movedKeys[0], got, err)
	}
}

// TestMigrationUnderLiveTraffic is the acceptance test: a two-instance
// cluster serving concurrent mixed traffic (Get/Put/Del/GetBatch/
// PutBatch through routed clients) while every placement group migrates
// a→b, with zero acknowledged-write loss and a client cache that
// converges to zero steady-state wrong-epoch rejects after cutover.
func TestMigrationUnderLiveTraffic(t *testing.T) {
	cfg := clusterTestConfig()
	// Every PUT carries its value, written before the entry publishes, so
	// no value is still in flight once its op has applied, and the blocked
	// cutover window has nothing to wait out. A long verify window pins
	// that: each migration must return within half of it.
	cfg.VerifyTimeout = 2 * time.Second
	const pgs = 4
	srvA, addrA := startClusterServer(t, "a", pgs, cfg)
	srvB, _ := startClusterServer(t, "b", 0, cfg)
	joinInstance(t, addrA, srvB)

	const workers = 3
	const keysPerWorker = 24
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, workers)

	// Each worker owns a disjoint key range, so it always knows the
	// exact expected value of every key it touches: any mismatch is a
	// lost or reordered acknowledged write.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cc, err := DialCluster(addrA, DefaultClusterClientConfig())
			if err != nil {
				errCh <- err
				return
			}
			defer cc.Close()
			state := make(map[string][]byte)
			round := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				round++
				for i := 0; i < keysPerWorker; i++ {
					k := fmt.Sprintf("w%d-key-%02d", w, i)
					switch (round + i) % 5 {
					case 0, 1: // put
						v := []byte(fmt.Sprintf("w%d-r%d-i%d", w, round, i))
						if err := cc.Put([]byte(k), v); err != nil {
							errCh <- fmt.Errorf("put %s: %w", k, err)
							return
						}
						state[k] = v
					case 2: // single get
						got, err := cc.Get([]byte(k))
						if v, ok := state[k]; ok {
							if err != nil || !bytes.Equal(got, v) {
								errCh <- fmt.Errorf("get %s: %q, %v (want %q)", k, got, err, v)
								return
							}
						} else if !errors.Is(err, ErrNotFound) {
							errCh <- fmt.Errorf("get absent %s: %v", k, err)
							return
						}
					case 3: // delete
						err := cc.Delete([]byte(k))
						_, present := state[k]
						if present && err != nil {
							errCh <- fmt.Errorf("del %s: %w", k, err)
							return
						}
						if !present && err != nil && !errors.Is(err, ErrNotFound) {
							errCh <- fmt.Errorf("del absent %s: %w", k, err)
							return
						}
						delete(state, k)
					case 4: // batch put then batch get of the whole range
						var bk, bv [][]byte
						for j := 0; j < 4; j++ {
							kk := fmt.Sprintf("w%d-key-%02d", w, (i+j)%keysPerWorker)
							vv := []byte(fmt.Sprintf("w%d-r%d-b%d", w, round, j))
							bk = append(bk, []byte(kk))
							bv = append(bv, vv)
						}
						for j, err := range cc.PutBatch(bk, bv) {
							if err != nil {
								errCh <- fmt.Errorf("putbatch %s: %w", bk[j], err)
								return
							}
							state[string(bk[j])] = bv[j]
						}
						vals, errs := cc.GetBatch(bk)
						for j := range bk {
							if errs[j] != nil || !bytes.Equal(vals[j], state[string(bk[j])]) {
								errCh <- fmt.Errorf("getbatch %s: %q, %v\n%s", bk[j], vals[j], errs[j],
									debugKeyState(map[string]*Server{"a": srvA, "b": srvB}, bk[j]))
								return
							}
						}
					}
				}
			}
		}(w)
	}

	// Let traffic warm up, then migrate every PG while it runs.
	time.Sleep(50 * time.Millisecond)
	for pg := 0; pg < pgs; pg++ {
		t0 := time.Now()
		if _, err := srvA.MigratePG(pg, "b"); err != nil {
			close(stop)
			wg.Wait()
			t.Fatalf("migrate pg %d: %v", pg, err)
		}
		if d := time.Since(t0); d > cfg.VerifyTimeout/2 {
			t.Errorf("migrate pg %d took %v, want at most %v: the cutover waited on the verify window", pg, d, cfg.VerifyTimeout/2)
		}
		select {
		case err := <-errCh:
			close(stop)
			wg.Wait()
			t.Fatalf("worker failed during migration: %v", err)
		default:
		}
	}

	// Let traffic run past the last cutover, then stop and check.
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatalf("worker failed: %v", err)
	default:
	}

	// Convergence: a fresh routed client learns the final map once and
	// then never hits a wrong-epoch reject in steady state.
	cc, err := DialCluster(addrA, DefaultClusterClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	if err := cc.Put([]byte("settle"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	before := srvA.wrongEpoch.Load() + srvB.wrongEpoch.Load()
	for i := 0; i < 50; i++ {
		k := []byte(fmt.Sprintf("steady-%d", i))
		if err := cc.Put(k, k); err != nil {
			t.Fatalf("steady put: %v", err)
		}
		if _, err := cc.Get(k); err != nil {
			t.Fatalf("steady get: %v", err)
		}
	}
	if after := srvA.wrongEpoch.Load() + srvB.wrongEpoch.Load(); after != before {
		t.Fatalf("steady-state wrong-epoch rejects: %d", after-before)
	}
	if srvB.Stats().KeysImported == 0 {
		t.Fatal("target imported nothing under live traffic")
	}
}

// TestMigrationCutoverNeedsTargetAdoption: the cutover counts only a map
// the target actually adopted. Here the target already holds a different
// map at the epoch the cutover mints (installed from the crash hook just
// before the cutover), so it refuses the offer, and the migration aborts
// before its commit point: nothing purged, the PG unblocked, ownership
// unchanged, the source serving the PG as before.
func TestMigrationCutoverNeedsTargetAdoption(t *testing.T) {
	cfg := clusterTestConfig()
	srvA, addrA := startClusterServer(t, "a", 4, cfg)
	srvB, _ := startClusterServer(t, "b", 0, cfg)
	joinInstance(t, addrA, srvB)
	cc, err := DialCluster(addrA, DefaultClusterClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	const pg = 0
	var keys [][]byte
	for i := 0; len(keys) < 5; i++ {
		if k := []byte(fmt.Sprintf("div-%03d", i)); cluster.PGForKey(k, 4) == pg {
			keys = append(keys, k)
			if err := cc.Put(k, k); err != nil {
				t.Fatal(err)
			}
		}
	}
	m := srvA.ClusterMap()
	srvA.migCrash = func(point string) bool {
		if point == "pre-cutover" {
			srvB.SetClusterMap(m.WithAssign(pg, "a")) // same epoch as the cutover's map
		}
		return false
	}
	var we *cluster.WrongEpochError
	if _, err := srvA.MigratePG(pg, "b"); !errors.As(err, &we) {
		t.Fatalf("migration against a divergent target: err = %v, want a WrongEpochError", err)
	}
	if got := srvA.ClusterMap(); got.Epoch != m.Epoch || got.Assign[pg] != "a" {
		t.Fatalf("source map moved: epoch %d, pg %d owned by %q", got.Epoch, pg, got.Assign[pg])
	}
	if n := srvA.Stats().KeysPurged; n != 0 {
		t.Fatalf("aborted cutover purged %d keys", n)
	}
	for _, k := range keys {
		if got, err := cc.Get(k); err != nil || !bytes.Equal(got, k) {
			t.Fatalf("get %s after the aborted cutover: %q, %v", k, got, err)
		}
		if err := cc.Put(k, []byte("again")); err != nil {
			t.Fatalf("put %s after the aborted cutover: %v", k, err)
		}
	}
}

// TestReplicaAttachAbortSweep pins the attach's four crash points — the
// "repl-"-prefixed checkpoints of the copy loop migrations share. An abort
// before the primary installs the map listing the joiner leaves no map
// anywhere naming it a backup, so no failover could promote a half-copied
// replica, and the primary keeps serving alone. An abort after the
// install leaves the primary mirroring to the backup already; the attach
// carries on under the moved map until every PG lists the backup.
func TestReplicaAttachAbortSweep(t *testing.T) {
	for _, point := range []string{"repl-pre-snapshot", "repl-drain", "repl-pre-install", "repl-installed"} {
		t.Run(point, func(t *testing.T) {
			cfg := clusterTestConfig()
			cfg.Replicas = 2
			srvA, addrA := startClusterServer(t, "a", 4, cfg)
			srvB, _ := startClusterServer(t, "b", 0, cfg)
			cl, err := Dial(addrA)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			for i := 0; i < 16; i++ {
				if err := cl.Put([]byte(fmt.Sprintf("pre-%02d", i)), []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			var fired sync.Once
			aborted := make(chan struct{})
			srvA.migCrash = func(p string) bool {
				hit := false
				if p == point {
					fired.Do(func() { hit = true; close(aborted) })
				}
				return hit
			}
			joinInstance(t, addrA, srvB)
			select {
			case <-aborted:
			case <-time.After(10 * time.Second):
				t.Fatalf("the attach never reached %s", point)
			}
			if point != "repl-installed" {
				for _, srv := range []*Server{srvA, srvB} {
					for pg := 0; pg < 4; pg++ {
						if b := srv.ClusterMap().BackupsFor(pg); len(b) != 0 {
							t.Fatalf("after an abort at %s, %s's map lists backups %v for pg %d", point, srv.InstanceName(), b, pg)
						}
					}
				}
				if err := cl.Put([]byte("after"), []byte("v")); err != nil {
					t.Fatal(err)
				}
				return
			}
			if err := srvA.WaitBackup("b", 10*time.Second); err != nil {
				t.Fatal(err)
			}
			cc, err := DialCluster(addrA, DefaultClusterClientConfig())
			if err != nil {
				t.Fatal(err)
			}
			defer cc.Close()
			_, _, _, _, before := srvB.ReplCounters()
			for i := 0; i < 16; i++ {
				k := []byte(fmt.Sprintf("post-%02d", i))
				if err := cc.Put(k, k); err != nil {
					t.Fatal(err)
				}
				if _, err := cc.Get(k); err != nil { // forces the flag, hence the mirror
					t.Fatal(err)
				}
			}
			if _, _, _, _, after := srvB.ReplCounters(); after-before < 16 {
				t.Fatalf("backup ingested %d of 16 mirrored writes", after-before)
			}
		})
	}
}
