package modelcheck

import (
	"net"
	"testing"
	"time"

	"efactory/internal/nvm"
	"efactory/internal/tcpkv"
)

// startInstance brings up one TCP server for the cluster differential:
// listener first (the instance advertises its address in the map), then
// the accept loop.
func startInstance(t *testing.T, cfg tcpkv.Config) (*tcpkv.Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := tcpkv.NewServer(nvm.New(cfg.DeviceSize()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

// TestTCPClusterDifferential is the oracle replay against a two-instance
// cluster with migrations fired at deterministic op indices mid-replay:
// the same 64-key workload runs before, during (ownership split), and
// after handoff, through a routed client whose map cache goes stale at
// every cutover. Any acked write the handoff drops, any stale read a
// redirect fails to catch, or any batch that crosses instances with
// misaligned results diverges from the oracle with the op index and
// seed. After the replay, a converged client must draw zero further
// wrong-epoch rejects — the routing layer's steady state costs nothing.
func TestTCPClusterDifferential(t *testing.T) {
	const (
		ops  = 2500
		seed = 1337
		pgs  = 4
	)
	cfg := tcpkv.Config{
		Buckets:  1024,
		PoolSize: 8 << 20,
		Shards:   2,
		// Generous for the same reason as TestTCPDifferential: under
		// -race a client's one-sided value write can trail its alloc by
		// tens of milliseconds, and a short verify window would (per the
		// crash contract) invalidate the acked write. Kept smaller than
		// the 2s there because each migration's blocked cutover waits
		// out one full verify window.
		VerifyTimeout:  250 * time.Millisecond,
		BGInterval:     100 * time.Microsecond,
		CleanThreshold: 0.15,
	}
	srvA, addrA := startInstance(t, cfg)
	srvB, addrB := startInstance(t, cfg)
	srvA.EnableCluster("a", addrA, pgs)
	if _, err := srvB.Join("b", addrB, addrA); err != nil {
		t.Fatal(err)
	}

	cc, err := tcpkv.DialCluster(addrA, tcpkv.DefaultClusterClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	// Migration plan: pg 0 and 1 move a->b early, pg 2 moves at two
	// thirds, pg 3 stays on a — so most of the replay runs with
	// ownership split across both instances and every batch op can
	// straddle them.
	migrateAt := map[int][]int{
		ops / 3:     {0, 1},
		2 * ops / 3: {2},
	}
	step := func(i int) {
		for _, pg := range migrateAt[i] {
			sum, err := srvA.MigratePG(pg, "b")
			if err != nil {
				t.Fatalf("op %d: migrate pg %d: %v", i, pg, err)
			}
			if sum.Epoch != srvB.ClusterMap().Epoch {
				t.Fatalf("op %d: cutover epoch %d but target at %d", i, sum.Epoch, srvB.ClusterMap().Epoch)
			}
		}
	}
	if err := DiffSteps(cc, Gen(seed, ops), step); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}

	// Steady state: the replay client has long since converged on the
	// final map; fresh traffic over keys in every placement group must
	// not draw a single further wrong-epoch reject from either instance.
	weA, movedA, migsA := srvA.ClusterCounters()
	weB, _, _ := srvB.ClusterCounters()
	if migsA != 3 {
		t.Fatalf("source reports %d migrations, want 3", migsA)
	}
	if movedA == 0 {
		t.Fatal("migrations shipped zero keys")
	}
	for i := 0; i < 100; i++ {
		k := []byte{'s', 't', 'e', 'a', 'd', 'y', '-', byte('0' + i/10), byte('0' + i%10)}
		if err := cc.Put(k, k); err != nil {
			t.Fatalf("steady put: %v", err)
		}
		if got, err := cc.Get(k); err != nil || string(got) != string(k) {
			t.Fatalf("steady get: %q, %v", got, err)
		}
	}
	weA2, _, _ := srvA.ClusterCounters()
	weB2, _, _ := srvB.ClusterCounters()
	if weA2 != weA || weB2 != weB {
		t.Fatalf("steady-state wrong-epoch rejects: a +%d, b +%d", weA2-weA, weB2-weB)
	}
}
