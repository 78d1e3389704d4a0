package tcpkv

import (
	"fmt"
	"testing"
	"time"

	"efactory/internal/nvm"
)

// waitNoBacklog waits until every shard of srv has verified all it holds:
// each verifier's cursor stands at the end of both pools.
func waitNoBacklog(t *testing.T, srv *Server, within time.Duration) {
	t.Helper()
	for deadline := time.Now().Add(within); ; time.Sleep(time.Millisecond) {
		backlog := 0
		for sh := 0; sh < srv.Store().NumShards(); sh++ {
			lag, _ := srv.Store().Shard(sh).DurabilityLag()
			backlog += lag
		}
		if backlog == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d B still unverified after %v", backlog, within)
		}
	}
}

// A torn PUT on an otherwise idle server still dies. The allocation is the
// last append, so no later append wakes the verifier: it must keep
// retrying the backlog it is parked on until VerifyTimeout has passed and
// it invalidates the version.
func TestTornPutDiesOnIdleServer(t *testing.T) {
	cfg := smallConfig()
	srv, addr := startServer(t, nvm.New(cfg.DeviceSize()), cfg)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.allocOnly([]byte("torn"), []byte("a value never written")); err != nil {
		t.Fatal(err)
	}
	waitNoBacklog(t, srv, 10*time.Second)
	if n := srv.Stats().BGInvalidated; n != 1 {
		t.Fatalf("BGInvalidated = %d, want 1", n)
	}
}

// A backup's imported versions drain. The mirror appends them durable, and
// the backup's verifier must still pass them, so its durability lag
// returns to 0 once writes stop, as the primary's does.
func TestBackupImportsDrain(t *testing.T) {
	p := startReplPairWith(t, 4, clusterTestConfig(), clusterTestConfig())
	for i := 0; i < 200; i++ {
		p.put([]byte(fmt.Sprintf("k%03d", i%50)), fmt.Sprintf("value-%03d", i))
	}
	waitNoBacklog(t, p.a, 10*time.Second)
	waitNoBacklog(t, p.b, 10*time.Second)
	if n := p.b.Stats().KeysImported; n == 0 {
		t.Fatal("the backup imported nothing")
	}
}
