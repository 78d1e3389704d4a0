// Transport-factory tests: the crash-recovery and log-cleaning suites run
// against the shared storage engine through BOTH transports — the
// discrete-event simulation (internal/efactory) and real TCP
// (internal/tcpkv) — so an engine regression cannot hide behind the
// transport it happens to be exercised through.
package store_test

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"efactory/internal/efactory"
	"efactory/internal/model"
	"efactory/internal/nvm"
	"efactory/internal/sim"
	"efactory/internal/store"
	"efactory/internal/tcpkv"
)

// kvops is the client surface the shared test bodies drive.
type kvops interface {
	Put(key, val []byte) error
	Get(key []byte) ([]byte, error)
	// Settle gives the background verification thread time to persist
	// outstanding writes.
	Settle()
}

// harness runs one transport over the shared storage engine.
type harness interface {
	// Run executes fn with a live client (inside the simulation for the
	// sim transport, on the calling goroutine for TCP).
	Run(fn func(c kvops))
	// Clean triggers one full log-cleaning cycle and waits for it.
	Clean()
	// Restart crashes the node (volatile cache lines lost), restarts on
	// the same device, and returns what recovery found.
	Restart() store.RecoveryStats
	Stats() store.Stats
	Close()
}

type factory struct {
	name string
	make func(t *testing.T, shards, poolSize int) harness
}

var transports = []factory{
	{"sim", newSimHarness},
	{"tcp", newTCPHarness},
}

// --- simulation transport ---

type simHarness struct {
	t       *testing.T
	env     *sim.Env
	par     model.Params
	cfg     efactory.Config
	srv     *efactory.Server
	cl      *efactory.Client
	horizon time.Duration
}

func newSimHarness(t *testing.T, shards, poolSize int) harness {
	cfg := efactory.DefaultConfig()
	cfg.Shards = shards
	cfg.Buckets = 1024
	cfg.PoolSize = poolSize
	h := &simHarness{t: t, par: model.Default(), cfg: cfg, env: sim.NewEnv(7)}
	h.srv = efactory.NewServer(h.env, &h.par, cfg)
	h.cl = h.srv.AttachClient("harness")
	return h
}

// advance runs the simulation in fixed steps until done reports true.
func (h *simHarness) advance(done func() bool) {
	h.t.Helper()
	for i := 0; i < 10000; i++ {
		if done() {
			return
		}
		h.horizon += time.Millisecond
		h.env.RunUntil(h.horizon)
	}
	h.t.Fatal("sim harness: condition never reached")
}

type simOps struct {
	h *simHarness
	p *sim.Proc
}

func (o simOps) Put(k, v []byte) error        { return o.h.cl.Put(o.p, k, v) }
func (o simOps) Get(k []byte) ([]byte, error) { return o.h.cl.Get(o.p, k) }
func (o simOps) Settle()                      { o.p.Sleep(2 * time.Millisecond) }

func (h *simHarness) Run(fn func(c kvops)) {
	done := false
	h.env.Go("harness-phase", func(p *sim.Proc) {
		fn(simOps{h, p})
		done = true
	})
	h.advance(func() bool { return done })
}

func (h *simHarness) Clean() {
	if !h.srv.StartCleaning() {
		h.t.Fatal("StartCleaning refused")
	}
	h.advance(func() bool { return !h.srv.Cleaning() })
}

func (h *simHarness) Restart() store.RecoveryStats {
	h.srv.NIC().Crash()
	h.srv.Stop()
	h.horizon += 10 * time.Millisecond
	h.env.RunUntil(h.horizon)
	dev := h.srv.Device()
	dev.Crash(42, 0)
	h.env = sim.NewEnv(99)
	h.horizon = 0
	srv2, st, err := efactory.Recover(h.env, &h.par, h.cfg, dev)
	if err != nil {
		panic(err)
	}
	h.srv = srv2
	h.cl = srv2.AttachClient("harness-post-crash")
	return st
}

func (h *simHarness) Stats() store.Stats { return h.srv.Store().StatsTotal() }

func (h *simHarness) Close() {
	h.srv.Stop()
	h.horizon += 10 * time.Millisecond
	h.env.RunUntil(h.horizon)
}

// --- TCP transport ---

type tcpHarness struct {
	t   *testing.T
	cfg tcpkv.Config
	dev *nvm.Memory
	srv *tcpkv.Server
	cl  *tcpkv.Client
}

func newTCPHarness(t *testing.T, shards, poolSize int) harness {
	cfg := tcpkv.DefaultConfig()
	cfg.Shards = shards
	cfg.Buckets = 1024
	cfg.PoolSize = poolSize
	cfg.VerifyTimeout = 20 * time.Millisecond
	h := &tcpHarness{t: t, cfg: cfg, dev: nvm.New(cfg.DeviceSize())}
	h.start()
	return h
}

func (h *tcpHarness) start() {
	h.t.Helper()
	srv, err := tcpkv.NewServer(h.dev, h.cfg)
	if err != nil {
		h.t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.t.Fatal(err)
	}
	go srv.Serve(ln)
	cl, err := tcpkv.Dial(ln.Addr().String())
	if err != nil {
		h.t.Fatal(err)
	}
	h.srv, h.cl = srv, cl
}

type tcpOps struct{ h *tcpHarness }

func (o tcpOps) Put(k, v []byte) error        { return o.h.cl.Put(k, v) }
func (o tcpOps) Get(k []byte) ([]byte, error) { return o.h.cl.Get(k) }
func (o tcpOps) Settle()                      { time.Sleep(20 * time.Millisecond) }

func (h *tcpHarness) Run(fn func(c kvops)) { fn(tcpOps{h}) }

func (h *tcpHarness) Clean() {
	if !h.srv.StartCleaning() {
		h.t.Fatal("StartCleaning refused")
	}
	for i := 0; h.srv.Cleaning(); i++ {
		if i > 5000 {
			h.t.Fatal("cleaning never finished")
		}
		time.Sleep(time.Millisecond)
	}
}

func (h *tcpHarness) Restart() store.RecoveryStats {
	h.cl.Close()
	h.srv.Close()
	h.dev.Crash(42, 0)
	h.start()
	st := h.srv.Stats()
	return store.RecoveryStats{KeysRecovered: st.Recovered, RolledBack: st.RolledBack}
}

func (h *tcpHarness) Stats() store.Stats { return h.srv.Stats() }

func (h *tcpHarness) Close() {
	h.cl.Close()
	h.srv.Close()
}

// --- shared suites ---

// TestRecoveryAcrossTransports loads keys, forces their durability through
// reads (the selective durability guarantee), crashes with zero cache
// survival, and checks recovery restores every key — identically through
// both transports and for both the single-engine and sharded layouts.
func TestRecoveryAcrossTransports(t *testing.T) {
	for _, tr := range transports {
		for _, shards := range []int{1, 4} {
			tr, shards := tr, shards
			t.Run(fmt.Sprintf("%s/shards-%d", tr.name, shards), func(t *testing.T) {
				h := tr.make(t, shards, 4<<20)
				defer h.Close()

				const n = 24
				values := map[string][]byte{}
				h.Run(func(c kvops) {
					for i := 0; i < n; i++ {
						k := fmt.Sprintf("persist-%d", i)
						v := bytes.Repeat([]byte{byte(i + 1)}, 100+i*8)
						values[k] = v
						if err := c.Put([]byte(k), v); err != nil {
							t.Errorf("Put %s: %v", k, err)
						}
					}
					// Reads force durability even where the background
					// thread has not caught up.
					for k := range values {
						if _, err := c.Get([]byte(k)); err != nil {
							t.Errorf("Get %s: %v", k, err)
						}
					}
				})
				if t.Failed() {
					t.FailNow()
				}

				st := h.Restart()
				if st.KeysRecovered != n {
					t.Fatalf("recovered %d keys, want %d (stats %+v)", st.KeysRecovered, n, st)
				}
				h.Run(func(c kvops) {
					for k, v := range values {
						got, err := c.Get([]byte(k))
						if err != nil {
							t.Errorf("Get %s after restart: %v", k, err)
							continue
						}
						if !bytes.Equal(got, v) {
							t.Errorf("Get %s after restart: wrong value", k)
						}
					}
					// The recovered store accepts new writes.
					if err := c.Put([]byte("fresh"), []byte("after-crash")); err != nil {
						t.Errorf("Put after restart: %v", err)
					}
					if got, err := c.Get([]byte("fresh")); err != nil || string(got) != "after-crash" {
						t.Errorf("Get fresh = %q, %v", got, err)
					}
				})
			})
		}
	}
}

// TestCleaningAcrossTransports runs repeated update rounds with an explicit
// log cleaning after each, then verifies the latest values survive both the
// cleanings and a subsequent crash — through both transports.
func TestCleaningAcrossTransports(t *testing.T) {
	for _, tr := range transports {
		for _, shards := range []int{1, 2} {
			tr, shards := tr, shards
			t.Run(fmt.Sprintf("%s/shards-%d", tr.name, shards), func(t *testing.T) {
				h := tr.make(t, shards, 512<<10)
				defer h.Close()

				const keys = 8
				const rounds = 3
				filler := bytes.Repeat([]byte{'y'}, 1024)
				for round := 0; round < rounds; round++ {
					round := round
					h.Run(func(c kvops) {
						for i := 0; i < keys; i++ {
							k := fmt.Sprintf("p%d", i)
							v := append([]byte(fmt.Sprintf("r%d-", round)), filler...)
							if err := c.Put([]byte(k), v); err != nil {
								t.Errorf("round %d Put %s: %v", round, k, err)
							}
						}
						c.Settle() // heads durable before the cleaner runs
					})
					if t.Failed() {
						t.FailNow()
					}
					h.Clean()
				}

				st := h.Stats()
				if st.Cleanings < rounds {
					t.Fatalf("Cleanings = %d, want >= %d", st.Cleanings, rounds)
				}
				if st.CleanMoved == 0 || st.CleanDropped == 0 {
					t.Fatalf("cleaning did no work: %+v", st)
				}

				h.Run(func(c kvops) {
					for i := 0; i < keys; i++ {
						k := fmt.Sprintf("p%d", i)
						got, err := c.Get([]byte(k))
						if err != nil {
							t.Errorf("Get %s after cleaning: %v", k, err)
							continue
						}
						if !bytes.HasPrefix(got, []byte(fmt.Sprintf("r%d-", rounds-1))) {
							t.Errorf("Get %s = %.8q, want final round value", k, got)
						}
					}
				})
				if t.Failed() {
					t.FailNow()
				}

				st2 := h.Restart()
				if st2.KeysRecovered != keys {
					t.Fatalf("recovered %d keys after cleaning, want %d", st2.KeysRecovered, keys)
				}
				h.Run(func(c kvops) {
					for i := 0; i < keys; i++ {
						k := fmt.Sprintf("p%d", i)
						got, err := c.Get([]byte(k))
						if err != nil {
							t.Errorf("Get %s after cleaning+crash: %v", k, err)
							continue
						}
						if !bytes.HasPrefix(got, []byte(fmt.Sprintf("r%d-", rounds-1))) {
							t.Errorf("Get %s = %.8q after crash, want final round value", k, got)
						}
					}
				})
			})
		}
	}
}
