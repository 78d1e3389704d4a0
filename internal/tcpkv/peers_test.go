package tcpkv

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"efactory/internal/fault"
	"efactory/internal/nvm"
	"efactory/internal/store"
)

// TestPeerCallsBounded: a peer that accepts connections but never
// answers is listed in the map. A map push to it returns within twice
// the peer timeout — the timeout bounds the dial handshake too —
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

	bound := 2 * peerTimeout
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

// TestPeerQuickRetryKeepsBackup: the backup drops every third response
// frame, so mirror appends lose their acks on connections the primary's
// peer table already holds. The table's quick retry redials — the new
// connection's handshake takes the next frame — and replays the append,
// which is idempotent, on the fresh connection. Routed Puts and the Gets
// that force their flags (each flag waits on a mirror append) all
// succeed, the backup holds every key, and the primary demotes nobody.
// Without the quick retry the first dropped ack demotes the backup.
//
// The period is 3, not 2: each recovery spends two frames (handshake,
// replayed append), so under a period of 2 every replay would meet the
// next drop.
func TestPeerQuickRetryKeepsBackup(t *testing.T) {
	cfgB := clusterTestConfig()
	cfgB.NetFaults = &fault.NetPlan{DropEvery: 3}
	p := startReplPairWith(t, 4, clusterTestConfig(), cfgB)
	srvA, srvB := p.a, p.b
	cc, err := DialCluster(srvA.clSelf, DefaultClusterClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	appends0, _, _, _, _ := srvA.ReplCounters()
	const n = 30
	for i := 0; i < n; i++ {
		k, v := []byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%02d", i))
		if err := cc.Put(k, v); err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
		if got, err := cc.Get(k); err != nil || !bytes.Equal(got, v) {
			t.Fatalf("get %s = %q, %v; want %q", k, got, err, v)
		}
	}
	appends, failures, _, _, _ := srvA.ReplCounters()
	if appends-appends0 < n {
		t.Fatalf("%d mirror appends acked for %d flagged writes", appends-appends0, n)
	}
	if failures != 0 {
		t.Fatalf("%d mirror appends failed", failures)
	}
	if _, _, _, _, ingested := srvB.ReplCounters(); ingested < appends {
		t.Fatalf("the backup ingested %d records of %d acked appends", ingested, appends)
	}
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("k%02d", i))
		if gr := srvB.st.Shard(srvB.st.ShardFor(k)).Get(nil, k); gr.Status != store.StatusOK {
			t.Fatalf("the backup lacks %s: %+v", k, gr)
		}
	}
	snap := srvA.Metrics().Snapshot()
	for _, cause := range []string{"full", "transport", "status"} {
		if got, _ := snap.CounterValue("efactory_repl_demotions_total", map[string]string{"cause": cause}); got != 0 {
			t.Errorf("%v demotions with cause %q, want 0", got, cause)
		}
	}
	if bs := srvA.ClusterMap().BackupsFor(0); len(bs) != 1 || bs[0] != "b" {
		t.Errorf("PG 0's backups = %v, want [b]", bs)
	}
}

// TestPeerRedialsOncePerFailure: K calls are in flight on one held
// connection when one of them fails at the transport and the table drops
// it. The other K-1 then fail with net.ErrClosed, and all K take the
// quick retry. They must share one dial: the server accepts exactly one
// new connection, and every call succeeds on it.
func TestPeerRedialsOncePerFailure(t *testing.T) {
	const k = 8
	_, ln, _ := startCountedServer(t, smallConfig())
	addr := ln.Addr().String()
	p := newPeers(peerTimeout, true)
	defer p.close()
	if err := p.call("s", addr, func(c *Client) error { _, err := c.ServerStats(); return err }); err != nil {
		t.Fatal(err)
	}
	conns0 := ln.conns.Load()

	var (
		inside  sync.WaitGroup // every call holds the first connection
		failed  atomic.Bool
		dropped = make(chan struct{})
		wg      sync.WaitGroup
		errs    = make([]error, k)
	)
	inside.Add(k)
	for i := range k {
		wg.Add(1)
		go func() {
			defer wg.Done()
			first := true
			errs[i] = p.call("s", addr, func(c *Client) error {
				if first {
					first = false
					inside.Done()
					inside.Wait()
					if failed.CompareAndSwap(false, true) {
						c.Close() // the transport fails under every call on c
						close(dropped)
						return net.ErrClosed
					}
					<-dropped
				}
				_, err := c.ServerStats()
				return err
			})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("call %d: %v", i, err)
		}
	}
	if n := ln.conns.Load() - conns0; n != 1 {
		t.Errorf("%d calls that lost one connection dialed %d new ones, want 1", k, n)
	}
}
