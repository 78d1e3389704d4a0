package modelcheck

import (
	"fmt"
	"testing"

	"efactory/internal/efactory"
	"efactory/internal/model"
	"efactory/internal/sim"
)

// simKV binds the simulated-RDMA client to the sim proc the differential
// driver runs on — the one argument by which its op surface differs from
// KV/TxnKV. It is the only adapter: both clients are bindings of the same
// protocol core, and the TCP ones (tcpkv.Client, tcpkv.ClusterClient)
// satisfy the interfaces as they are.
type simKV struct {
	cl *efactory.Client
	p  *sim.Proc
}

func (s simKV) Put(key, value []byte) error             { return s.cl.Put(s.p, key, value) }
func (s simKV) Get(key []byte) ([]byte, error)          { return s.cl.Get(s.p, key) }
func (s simKV) Delete(key []byte) error                 { return s.cl.Delete(s.p, key) }
func (s simKV) PutBatch(k, v [][]byte) []error          { return s.cl.PutBatch(s.p, k, v) }
func (s simKV) GetBatch(k [][]byte) ([][]byte, []error) { return s.cl.GetBatch(s.p, k) }

func (s simKV) TxnCommit(k, v [][]byte) (uint64, []error) { return s.cl.TxnCommit(s.p, k, v) }
func (s simKV) TxnRead(k [][]byte) ([][]byte, []error)    { return s.cl.TxnRead(s.p, k) }

// TestSimDifferential replays seeded mixed workloads against the
// simulated transport across the shard/background-batching matrix, with
// the hint cache on so cached locations are part of what the oracle
// checks. 4 configs x 2500 ops = 10k ops through the full client/server
// stack.
func TestSimDifferential(t *testing.T) {
	const opsPerConfig = 2500
	for _, shards := range []int{1, 4} {
		for _, bgBatch := range []int{1, 64} {
			name := fmt.Sprintf("shards=%d/bgbatch=%d", shards, bgBatch)
			t.Run(name, func(t *testing.T) {
				seed := uint64(7*shards + bgBatch)
				ops := Gen(seed, opsPerConfig)
				env := sim.NewEnv(seed)
				par := model.Default()
				cfg := efactory.DefaultConfig()
				cfg.Shards = shards
				cfg.BGBatch = bgBatch
				cfg.CleanThreshold = 0.15 // let cleaning move objects under live hints
				srv := efactory.NewServer(env, &par, cfg)
				cl := srv.AttachClient("mc")
				cl.EnableHintCache(0)
				var derr error
				env.Go("driver", func(p *sim.Proc) {
					derr = Diff(simKV{cl, p}, ops)
					srv.Stop()
				})
				env.Run()
				if derr != nil {
					t.Fatalf("seed %d: %v", seed, derr)
				}
			})
		}
	}
}
