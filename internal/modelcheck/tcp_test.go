package modelcheck

import (
	"fmt"
	"net"
	"testing"
	"time"

	"efactory/internal/nvm"
	"efactory/internal/tcpkv"
)

// TestTCPDifferential is the same oracle replay over real sockets,
// goroutines, and wall-clock background verification: 4 configs x 2500
// ops = 10k ops per run, hint cache on, run under -race in CI.
func TestTCPDifferential(t *testing.T) {
	const opsPerConfig = 2500
	for _, shards := range []int{1, 4} {
		for _, bgBatch := range []int{1, 64} {
			name := fmt.Sprintf("shards=%d/bgbatch=%d", shards, bgBatch)
			t.Run(name, func(t *testing.T) {
				seed := uint64(100 + 7*shards + bgBatch)
				ops := Gen(seed, opsPerConfig)
				// VerifyTimeout must exceed the worst-case client write
				// burst: a batched allocation stamps CreatedAt for every
				// object up front, and under -race a 20ms budget is short
				// enough for the verifier to (correctly) invalidate
				// acknowledged puts as presumed-torn before their one-sided
				// writes land, which the oracle then reports as lost keys.
				// Invalidation semantics are pinned deterministically in
				// internal/store (TestLateBatchedWriteDoesNotResurrect).
				cfg := tcpkv.Config{
					Buckets:        1024,
					PoolSize:       8 << 20,
					Shards:         shards,
					BGBatch:        bgBatch,
					VerifyTimeout:  2 * time.Second,
					BGInterval:     100 * time.Microsecond,
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
				cl, err := tcpkv.Dial(ln.Addr().String())
				if err != nil {
					t.Fatal(err)
				}
				defer cl.Close()
				cl.EnableHintCache(0)
				if err := Diff(cl, ops); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			})
		}
	}
}
