package tcpkv

import (
	"fmt"
	"runtime"
	"syscall"
	"testing"
	"time"

	"efactory/internal/nvm"
)

// An idle server sleeps. A default-config server with four shards takes
// 100 PUTs, settles, and then sees no client for 2 s: its verifiers block
// until the log grows, so the process makes almost no voluntary context
// switches and spends almost no CPU. A verifier polling every 200 µs
// costs thousands of switches and several percent of a core here.
func TestIdleServerSleeps(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shards, cfg.PoolSize = 4, 4<<20
	srv, addr := startServer(t, nvm.New(cfg.DeviceSize()), cfg)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := cl.Put([]byte(fmt.Sprintf("idle-%03d", i)), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	cl.Close()
	waitNoBacklog(t, srv, 5*time.Second)
	runtime.GC()
	time.Sleep(100 * time.Millisecond)

	const idle = 2 * time.Second
	before := rusage(t)
	time.Sleep(idle)
	after := rusage(t)
	switches := after.Nvcsw - before.Nvcsw
	cpu := time.Duration(syscall.TimevalToNsec(after.Utime) + syscall.TimevalToNsec(after.Stime) -
		syscall.TimevalToNsec(before.Utime) - syscall.TimevalToNsec(before.Stime))
	share := float64(cpu) / float64(idle)
	t.Logf("idle %v: %d voluntary context switches, %v of CPU (%.2f%% of a core)", idle, switches, cpu, 100*share)
	if switches >= 200 {
		t.Errorf("%d voluntary context switches in %v idle, want fewer than 200", switches, idle)
	}
	if share >= 0.01 {
		t.Errorf("%.2f%% of a core in %v idle, want under 1%%", 100*share, idle)
	}
}

func rusage(t *testing.T) syscall.Rusage {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return ru
}
