package tcpkv

import (
	"bytes"
	"fmt"
	"os"
	"testing"
	"time"

	"efactory/internal/fault"
)

// tcpTortureConfig keeps the wall-clock sweep affordable: a TCP run costs
// tens of milliseconds (real sockets, real file I/O, server restart), so
// the workload is short and sweep points are subsampled.
func tcpTortureConfig() fault.Config {
	// VerifyTimeout is wall-clock over TCP: stretch it under the race
	// detector (raceScale) so a merely slow client-active write is never
	// invalidated as torn mid-sweep.
	return fault.Config{Ops: 50, CleanEvery: 25, VerifyTimeout: raceScale(tcpVerifyTimeout)}
}

// TestTCPTortureCountingRun sanity-checks the measuring run: no crash, no
// violations, real workload coverage.
func TestTCPTortureCountingRun(t *testing.T) {
	res, err := RunTCPTorture(tcpTortureConfig())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations in the no-crash run: %v", res.Violations)
	}
	if res.Tripped || res.Boundaries < 100 {
		t.Fatalf("counting run: tripped=%v boundaries=%d", res.Tripped, res.Boundaries)
	}
	if res.Stats.Puts == 0 || res.Stats.Dels == 0 {
		t.Fatalf("workload coverage too thin: %+v", res.Stats)
	}
}

// TestTCPTortureMidCleaningShutdown replays the workload shape that found
// the staged-slot recovery bug: CleanEvery short enough that a cleaning
// run is still mid-flight (merge stage) when the process shuts down, after
// a DELETE plus re-PUT landed on a hot key. With seed 1 the re-PUT
// publishes only through the staged location slot; recovery must restore
// it from there even though the mark bit never flipped. No injection — the
// plain run plus restart is the repro.
func TestTCPTortureMidCleaningShutdown(t *testing.T) {
	res, err := RunTCPTorture(fault.Config{Seed: 1, Ops: 40, CleanEvery: 14, VerifyTimeout: raceScale(tcpVerifyTimeout)})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, v := range res.Violations {
		t.Error(v)
	}
}

// TestTCPTortureSweep is the TCP-transport acceptance sweep: crash points
// spread across the workload, a process restart (file reopen) and oracle
// check after each. Boundary counts drift between runs of one seed (real
// scheduling), so the sweep subsamples rather than visiting every K.
func TestTCPTortureSweep(t *testing.T) {
	points := 10
	if testing.Short() {
		points = 4
	}
	sr, err := fault.Sweep(RunTCPTorture, tcpTortureConfig(), []uint64{1, 2}, points)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	for _, v := range sr.Violations {
		t.Error(v)
	}
	if len(sr.Violations) == 0 && sr.Runs < 8 {
		t.Fatalf("sweep ran only %d runs", sr.Runs)
	}
}

// TestTCPTortureSweepGetBatch reruns the TCP sweep with the batched
// multi-GET + hint-cache workload leg. This leg is what exposed the
// oracle's observation-anchored monotonicity bug (an acked-but-unverified
// newer PUT was treated as a regression when recovery rolled forward to
// it), pinned in fault's oracle tests.
func TestTCPTortureSweepGetBatch(t *testing.T) {
	cfg := tcpTortureConfig()
	cfg.GetBatch = true
	points := 8
	if testing.Short() {
		points = 4
	}
	sr, err := fault.Sweep(RunTCPTorture, cfg, []uint64{1, 2}, points)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	for _, v := range sr.Violations {
		t.Error(v)
	}
	if len(sr.Violations) == 0 && sr.Runs < 8 {
		t.Fatalf("sweep ran only %d runs", sr.Runs)
	}
}

// TestTCPTortureSweepTxn reruns the TCP sweep with the transactional
// workload leg: multi-key commits and snapshot reads over the pipelined
// mux, a process restart after each crash point, and the oracle's
// all-in-or-all-out rule on every recovered image.
func TestTCPTortureSweepTxn(t *testing.T) {
	cfg := tcpTortureConfig()
	cfg.Txn = true
	points := 8
	if testing.Short() {
		points = 4
	}
	sr, err := fault.Sweep(RunTCPTorture, cfg, []uint64{1, 2}, points)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	for _, v := range sr.Violations {
		t.Error(v)
	}
	if len(sr.Violations) == 0 && sr.Runs < 8 {
		t.Fatalf("sweep ran only %d runs", sr.Runs)
	}
}

// TestTCPTortureSlowCleaner pins the slow-cleaner family in its smallest
// form: one unreplicated server, no crash, a cleaning run stalled for
// VerifyTimeout by a torn PUT's value that will never arrive. A key is
// (1) migrated and staged, (2) re-PUT into the old pool in the compress
// stage, then (3) PUT again in the merge stage. Every read and every chain
// starts from the head rule's version — the newer of the two locations by
// sequence number — so a read during (2), or one rolling back from a torn
// (3), serves (2), never the staged copy of (1).
func TestTCPTortureSlowCleaner(t *testing.T) {
	res, err := RunTCPTorture(fault.Config{Seed: 1, Ops: 60, CleanEvery: 25, Buckets: 256, PoolSize: 256 << 10,
		VerifyTimeout: 100 * time.Millisecond, GetBatch: true})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, v := range res.Violations {
		t.Error(v)
	}
}

// TestRestartCrashedInsideRecovery is the file-backed restart leg of a
// crash during recovery: a server takes overwrites (so the restart has
// chains to cut and predecessors to invalidate), every acked key is made
// durable, and the process stops. The restart is then crashed at each of up
// to eight of its recovery's own boundaries — the device under
// fault.WrapDevice, the file holding only flushed lines, as in
// RunTCPTorture — and restarted again, injection-free. Every acked key
// must read back with its last value.
func TestRestartCrashedInsideRecovery(t *testing.T) {
	cfg := smallConfig()
	cfg.PoolSize = 256 << 10
	dev, err := newFileDev(cfg.DeviceSize())
	if err != nil {
		t.Fatal(err)
	}
	defer dev.remove()
	srv, addr := startServer(t, dev, cfg)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string][]byte)
	for round := 0; round < 3; round++ {
		for i := 0; i < 20; i++ {
			k, v := fmt.Sprintf("k%02d", i), []byte(fmt.Sprintf("round-%d-of-k%02d", round, i))
			if err := cl.Put([]byte(k), v); err != nil {
				t.Fatal(err)
			}
			want[k] = v
		}
	}
	for k := range want {
		if _, err := cl.Get([]byte(k)); err != nil { // verifies and persists it
			t.Fatal(err)
		}
	}
	cl.Close()
	srv.Close()
	img, err := os.ReadFile(dev.path)
	if err != nil {
		t.Fatal(err)
	}

	// restart reopens the image, under plan when it is non-nil.
	restart := func(plan *fault.Plan) *Server {
		t.Helper()
		if err := os.WriteFile(dev.path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := dev.reopen(); err != nil {
			t.Fatal(err)
		}
		pcfg := cfg
		pcfg.FaultPlan = plan
		s, err := NewServer(dev, pcfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	probe := fault.NewPlan(0)
	restart(probe).Close()
	if probe.Boundaries() == 0 {
		t.Fatal("the restart's recovery wrote nothing; the leg crashes nothing")
	}
	for _, j := range fault.SweepPoints(probe.Boundaries(), 8) {
		restart(fault.NewPlan(j)).Close()
		if err := dev.reopen(); err != nil {
			t.Fatal(err)
		}
		s, err := NewServer(dev, cfg)
		if err != nil {
			t.Fatalf("J=%d: restart after the crash: %v", j, err)
		}
		for k, v := range want {
			if got, ok := engineGet(s, k); !ok || !bytes.Equal(got, v) {
				t.Errorf("J=%d: %s = %q (found %v), want %q", j, k, got, ok, v)
			}
		}
		s.Close()
	}
}
