package tcpkv

import (
	"net"
	"testing"
	"time"

	"efactory/internal/nvm"
)

// TestPeerCallsBounded: a peer that accepts connections but never
// answers is listed in the map. A map push to it returns within twice
// the peer policy's timeout — the policy bounds the dial handshake too —
// and Server.Close still returns. The test guards itself with a timer, so
// a hang fails it instead of stalling the suite.
func TestPeerCallsBounded(t *testing.T) {
	cfg := clusterTestConfig()
	srvA, _ := startClusterServer(t, "a", 4, cfg)
	hung, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hung.Close()
	go func() {
		var held []net.Conn // accepted, never read, never answered
		defer func() {
			for _, c := range held {
				c.Close()
			}
		}()
		for {
			c, err := hung.Accept()
			if err != nil {
				return
			}
			held = append(held, c)
		}
	}()
	nm := srvA.ClusterMap().WithInstance("h", hung.Addr().String())
	srvA.SetClusterMap(nm)

	bound := 2 * peerRetryPolicy().Timeout
	done := make(chan time.Duration, 1)
	go func() {
		t0 := time.Now()
		srvA.pushMapToPeers(nm, "")
		done <- time.Since(t0)
	}()
	select {
	case d := <-done:
		if d > bound {
			t.Fatalf("push to a hung peer took %v, want at most %v", d, bound)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("push to a hung peer never returned")
	}
	closed := make(chan struct{})
	go func() { srvA.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Server.Close never returned")
	}
}

// TestPeerRedialsAfterRestart: backup b dies and a new server takes its
// address. The primary's connection to b is dead, and the peer table
// must drop and redial it: a's next map push and next mirror append both
// reach the new b, and b is not demoted.
func TestPeerRedialsAfterRestart(t *testing.T) {
	cfg := clusterTestConfig()
	cfg.Replicas = 2
	srvA, addrA := startClusterServer(t, "a", 4, cfg)
	srvB, addrB := startClusterServer(t, "b", 0, cfg)
	joinInstance(t, addrA, srvB)
	if err := srvA.WaitBackup("b", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	cc, err := DialCluster(addrA, DefaultClusterClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	// Settle one write: its flag waits on a mirror append, so a now holds
	// a connection to b.
	if err := cc.Put([]byte("before"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if _, err := cc.Get([]byte("before")); err != nil {
		t.Fatal(err)
	}

	srvB.Close()
	ln, err := net.Listen("tcp", addrB)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := NewServer(nvm.New(cfg.DeviceSize()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b2.SetInstanceName("b", addrB)
	go b2.Serve(ln)
	defer b2.Close()

	nm := srvA.ClusterMap()
	srvA.pushMapToPeers(nm, "")
	if m := b2.ClusterMap(); m == nil || m.Epoch != nm.Epoch {
		t.Fatalf("the map push did not reach the restarted peer: %v", m)
	}
	if err := cc.Put([]byte("after"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	if _, err := cc.Get([]byte("after")); err != nil { // forces the flag, hence the append
		t.Fatal(err)
	}
	if _, _, _, _, ingested := b2.ReplCounters(); ingested == 0 {
		t.Fatal("no mirror append reached the restarted peer")
	}
	if _, _, demotions, _, _ := srvA.ReplCounters(); demotions != 0 {
		t.Fatalf("the restarted backup was demoted %d times", demotions)
	}
}
