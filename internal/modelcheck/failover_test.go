package modelcheck

import (
	"testing"
	"time"

	"efactory/internal/tcpkv"
)

// TestTCPFailoverDifferential is the oracle replay across a primary crash:
// a two-instance cluster at replication factor 2 (instance a owns every
// placement group, instance b mirrors all of them), replayed in lockstep
// through a routed client. Halfway through the replay the primary drains
// its durability backlog — so every acknowledged write is quorum-durable,
// exactly the state the quiesce-free torture harness relaxes — then dies,
// and b is promoted under a bumped epoch. The replay continues through the
// SAME routed client: convergence must come entirely from dead-pipe
// severing, the last-map fallback redial, and wrong-epoch refetch. Any
// acked write the failover drops, any deleted key it resurrects, and any
// batch that straddles the promotion diverges from the map oracle with
// the op index and seed.
func TestTCPFailoverDifferential(t *testing.T) {
	const (
		ops  = 2000
		seed = 4242
		pgs  = 4
	)
	cfg := tcpkv.Config{
		Buckets:  1024,
		PoolSize: 8 << 20,
		Shards:   2,
		// Generous for the same reason as TestTCPClusterDifferential:
		// under -race an acked write's value bytes can trail by tens of
		// milliseconds, and a short verify window would invalidate it.
		VerifyTimeout:  250 * time.Millisecond,
		CleanThreshold: 0.15,
		Replicas:       2,
	}
	srvA, addrA := startInstance(t, cfg)
	srvB, addrB := startInstance(t, cfg)
	srvA.EnableCluster("a", addrA, pgs)
	m, err := srvB.Join("b", addrB, addrA)
	if err != nil {
		t.Fatal(err)
	}
	joinEpoch := m.Epoch

	// The join spawns the backup attach (snapshot + map install)
	// asynchronously; the replay must not start until every placement
	// group lists b, or early writes would miss their mirror.
	if err := srvA.WaitBackup("b", 10*time.Second); err != nil {
		t.Fatal(err)
	}

	cc, err := tcpkv.DialCluster(addrA, tcpkv.DefaultClusterClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	failAt := ops / 2
	step := func(i int) {
		if i != failAt {
			return
		}
		// Quiesce: every acknowledged write must reach quorum before the
		// primary dies — the differential oracle (unlike the crash-point
		// torture) tolerates no ambiguity about in-flight ops.
		drainTo := time.Now().Add(10 * time.Second)
		st := srvA.Store()
		for {
			backlog := 0
			for s := 0; s < st.NumShards(); s++ {
				b, _ := st.Shard(s).DurabilityLag()
				backlog += b
			}
			if backlog == 0 {
				break
			}
			if time.Now().After(drainTo) {
				t.Fatalf("durability backlog never drained: %d bytes", backlog)
			}
			time.Sleep(time.Millisecond)
		}
		if err := srvA.Close(); err != nil {
			t.Fatalf("kill primary: %v", err)
		}
		epoch, err := srvB.PromoteFrom("a")
		if err != nil {
			t.Fatalf("promote: %v", err)
		}
		if epoch <= joinEpoch {
			t.Fatalf("promotion epoch %d did not advance past join epoch %d", epoch, joinEpoch)
		}
	}
	if err := DiffSteps(cc, Gen(seed, ops), step); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}

	_, _, _, promotions, ingested := srvB.ReplCounters()
	if promotions == 0 {
		t.Fatal("promoted instance reports zero promotions")
	}
	if ingested == 0 {
		t.Fatal("backup ingested zero mirrored records before the failover")
	}
}
