package efactory

import (
	"fmt"

	"efactory/internal/crc"
	"efactory/internal/fault"
	"efactory/internal/model"
	"efactory/internal/nvm"
	"efactory/internal/sim"
	"efactory/internal/wire"
)

// RunSimTorture executes one seeded crash-point torture run over the full
// simulation transport: a real Server with RNIC, workers, and background
// processes, with fault.Drive replaying the seeded fault.Workload through
// a Client over the wire. The server's device and cost sink are wrapped
// under a fault.Plan; when the plan trips, the server NIC crashes
// (truncating in-flight DMA at a line boundary) and the device freezes,
// so the image is exactly what a power failure at that boundary would
// leave. The image is then put through the NVM eviction lottery,
// recovered injection-free, and checked against the durability Oracle
// through post-crash client Gets.
//
// Compared to fault.RunStore this exercises the transport layers too:
// wire encode/decode, worker dispatch, one-sided value writes and reads,
// and the client's hybrid read scheme — all racing the cleaner and the
// background verifier under the discrete-event scheduler, which keeps
// every run a pure function of the Config.
func RunSimTorture(tc fault.Config) (fault.Result, error) {
	tc = tc.WithDefaults()
	plan := fault.NewPlan(tc.CrashAt)
	env := sim.NewEnv(tc.Seed + 1)
	par := model.Default()
	cfg := Config{
		Buckets:       tc.Buckets,
		PoolSize:      tc.PoolSize,
		Shards:        tc.Shards,
		Workers:       2,
		VerifyTimeout: tc.VerifyTimeout,
		BGBatch:       tc.BGBatch,
		FaultPlan:     plan,
	}
	// The trip callback runs BEFORE the device freezes: the server NIC
	// crash materializes any in-flight one-sided write as a torn,
	// line-aligned prefix — the bytes a dying RNIC would have DMA'd. The
	// client NIC is crashed too (late in-flight responses vanish) and its
	// receive queue closed, so an RPC that lost its response fails with
	// ErrCrashed instead of blocking forever; the driver then records the
	// straddling op as pending and shuts the simulation down.
	var srv *Server
	var cl *Client
	plan.OnTrip(func() {
		if srv != nil {
			srv.NIC().Crash()
		}
		if cl != nil {
			cl.nic.Crash()
			cl.ep.RecvQueue().Close()
		}
	})
	srv = NewServer(env, &par, cfg)
	if plan.Tripped() && !srv.NIC().Crashed() {
		// The plan tripped during server construction, before the
		// callback had a server to crash.
		srv.NIC().Crash()
	}
	cl = srv.AttachClient("torture")
	if tc.GetBatch {
		// The batched leg reads through the hint cache so crash points land
		// inside hinted chained READs and their fallbacks too.
		cl.EnableHintCache()
	}

	oracle := fault.NewOracle()
	var violations []string
	env.Go("torture-driver", func(p *sim.Proc) {
		defer srv.Stop()
		violations = fault.Drive(&simTarget{p: p, tc: tc, plan: plan, srv: srv, cl: cl}, oracle, fault.Workload(tc), false)
	})
	env.Run()

	res := fault.Result{
		Boundaries: plan.Boundaries(),
		Tripped:    plan.Tripped(),
		Stats:      srv.Stats().Stats,
	}

	// Power failure: resolve the volatile overlay (Survival 0 keeps only
	// explicitly flushed lines), then recover injection-free and check the
	// oracle through a post-crash client.
	dev := srv.Device()
	dev.Crash(tc.Seed^0xc4a5_4ed, tc.Survival)
	rcfg := cfg
	rcfg.FaultPlan = nil
	vs, err := fault.CheckRecovered(tc, oracle, dev,
		func(img *nvm.Memory, plan *fault.Plan) error {
			pcfg := rcfg
			pcfg.FaultPlan = plan
			env := sim.NewEnv(tc.Seed + 99)
			rs, _, err := Recover(env, &par, pcfg, img)
			if err != nil {
				return err
			}
			rs.Stop()
			env.Run()
			return nil
		},
		func(img *nvm.Memory, keys []string) (map[string][]byte, error) {
			env := sim.NewEnv(tc.Seed + 99)
			rs, _, err := Recover(env, &par, rcfg, img)
			if err != nil {
				return nil, err
			}
			cl := rs.AttachClient("post-crash")
			got := make(map[string][]byte)
			env.Go("torture-verify", func(p *sim.Proc) {
				defer rs.Stop()
				for _, k := range keys {
					if v, err := cl.Get(p, []byte(k)); err == nil {
						got[k] = v
					}
				}
			})
			env.Run()
			return got, nil
		})
	res.Violations = append(violations, vs...)
	return res, err
}

// simTarget is the simulated client/server pair as the torture driver
// sees it; every op runs on the driver's sim process.
type simTarget struct {
	p    *sim.Proc
	tc   fault.Config
	plan *fault.Plan
	srv  *Server
	cl   *Client
}

func (t *simTarget) Dead() bool { return t.plan.Tripped() }

func (t *simTarget) Tick(i int) {
	if t.tc.CleanDue(i) {
		t.srv.StartCleaning() // races the driver, like production
	}
}

func (t *simTarget) Put(key, value []byte) error { return t.cl.Put(t.p, key, value) }

// TornPut is the allocation RPC of a PUT whose value is never sent.
func (t *simTarget) TornPut(key, value []byte) error {
	resp, err := t.cl.rpc(t.p, wire.Msg{
		Type: wire.TPut, Crc: crc.Checksum(value),
		Len: uint64(len(value)), Key: key,
	})
	if err == nil && resp.Status != wire.StOK {
		err = fmt.Errorf("efactory: alloc status %d", resp.Status)
	}
	return err
}

func (t *simTarget) Get(key []byte) ([]byte, error) { return t.cl.Get(t.p, key) }

func (t *simTarget) GetBatch(keys [][]byte) ([][]byte, []error) { return t.cl.GetBatch(t.p, keys) }

func (t *simTarget) Delete(key []byte) error { return t.cl.Delete(t.p, key) }

func (t *simTarget) TxnCommit(keys, vals [][]byte) (uint64, error) {
	return t.cl.TxnCommit(t.p, keys, vals)
}

func (t *simTarget) TxnRead(keys [][]byte) ([][]byte, []error) { return t.cl.TxnRead(t.p, keys) }
