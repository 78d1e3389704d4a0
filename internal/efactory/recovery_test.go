package efactory

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"efactory/internal/sim"
)

// crashAt schedules a full node crash (NIC down + server stop) at t, runs
// the simulation, applies the NVM eviction model, and returns a recovered
// server in a fresh environment.
func crashAndRecover(c *simCluster, t time.Duration, survival float64) (*sim.Env, *Server, RecoveryStats) {
	c.env.After(t, func() {
		c.srv.NIC().Crash()
		c.srv.Stop()
	})
	c.env.RunUntil(t + 10*time.Millisecond)
	dev := c.srv.Device()
	dev.Crash(42, survival)
	env2 := sim.NewEnv(99)
	srv2, st, err := Recover(env2, &c.par, c.srv.cfg, dev)
	if err != nil {
		panic(err)
	}
	return env2, srv2, st
}

func TestRecoverDurableData(t *testing.T) {
	c := newCluster(t, DefaultConfig(), 1)
	values := map[string][]byte{}
	c.env.Go("load", func(p *sim.Proc) {
		cl := c.clients[0]
		for i := 0; i < 20; i++ {
			k := fmt.Sprintf("key-%d", i)
			v := bytes.Repeat([]byte{byte(i + 1)}, 64+i*16)
			values[k] = v
			if err := cl.Put(p, []byte(k), v); err != nil {
				t.Errorf("Put: %v", err)
			}
		}
	})
	// Crash long after the background thread persisted everything.
	env2, srv2, st := crashAndRecover(c, 50*time.Millisecond, 0)
	if st.KeysRecovered != 20 {
		t.Fatalf("recovered %d keys, want 20 (stats %+v)", st.KeysRecovered, st)
	}
	cl2 := srv2.AttachClient("post-crash")
	env2.Go("verify", func(p *sim.Proc) {
		for k, v := range values {
			got, err := cl2.Get(p, []byte(k))
			if err != nil {
				t.Errorf("Get %s after recovery: %v", k, err)
				continue
			}
			if !bytes.Equal(got, v) {
				t.Errorf("Get %s after recovery: wrong value", k)
			}
		}
		srv2.Stop()
	})
	env2.Run()
}

func TestRecoverRollsBackTornHead(t *testing.T) {
	cfg := DefaultConfig()
	c := newCluster(t, cfg, 2)
	c.env.Go("load", func(p *sim.Proc) {
		if err := c.clients[0].Put(p, []byte("k"), []byte("stable")); err != nil {
			t.Errorf("Put: %v", err)
		}
		p.Sleep(2 * time.Millisecond) // becomes durable
		// A second client starts an update whose value never arrives.
		if err := tornPut(p, c.clients[1], []byte("k"), 512); err != nil {
			t.Errorf("tornPut: %v", err)
		}
	})
	env2, srv2, st := crashAndRecover(c, 3*time.Millisecond, 0)
	if st.RolledBack != 1 {
		t.Fatalf("RolledBack = %d, want 1 (stats %+v)", st.RolledBack, st)
	}
	cl2 := srv2.AttachClient("post-crash")
	env2.Go("verify", func(p *sim.Proc) {
		got, err := cl2.Get(p, []byte("k"))
		if err != nil || string(got) != "stable" {
			t.Errorf("Get = %q, %v; want rollback to stable version", got, err)
		}
		srv2.Stop()
	})
	env2.Run()
}

func TestUnverifiedWriteLostConsistently(t *testing.T) {
	// A write whose value reached the server but was never verified or
	// read is NOT durable; a crash with zero cache survival loses it, and
	// recovery must treat the key as absent — not expose garbage. The
	// background thread is disabled so the value is guaranteed to still
	// be in the volatile domain at the crash.
	cfg := DefaultConfig()
	cfg.DisableBackground = true
	c := newCluster(t, cfg, 1)
	c.env.Go("load", func(p *sim.Proc) {
		if err := c.clients[0].Put(p, []byte("volatile"), bytes.Repeat([]byte{7}, 256)); err != nil {
			t.Errorf("Put: %v", err)
		}
	})
	env2, srv2, st := crashAndRecover(c, 100*time.Microsecond, 0)
	_ = st
	cl2 := srv2.AttachClient("post-crash")
	env2.Go("verify", func(p *sim.Proc) {
		if _, err := cl2.Get(p, []byte("volatile")); !errors.Is(err, ErrNotFound) {
			t.Errorf("Get err = %v, want ErrNotFound (never-durable write)", err)
		}
		srv2.Stop()
	})
	env2.Run()
}

func TestMonotonicReadsAcrossCrash(t *testing.T) {
	// eFactory's guarantee (§5.3, vs Erda): a value observed by a read is
	// durable, so after a crash the key can never regress to "not found"
	// or to a version older than one already read.
	c := newCluster(t, DefaultConfig(), 1)
	var readBeforeCrash []byte
	c.env.Go("load", func(p *sim.Proc) {
		cl := c.clients[0]
		if err := cl.Put(p, []byte("k"), []byte("v1")); err != nil {
			t.Errorf("Put: %v", err)
		}
		// This read forces durability (selective durability guarantee)
		// even if the background thread has not reached the object.
		got, err := cl.Get(p, []byte("k"))
		if err != nil {
			t.Errorf("Get: %v", err)
		}
		readBeforeCrash = got
		// Overwrite with v2 and crash before v2 is verified.
		if err := cl.Put(p, []byte("k"), []byte("v2")); err != nil {
			t.Errorf("Put v2: %v", err)
		}
	})
	crashTime := 40 * time.Microsecond
	env2, srv2, _ := crashAndRecover(c, crashTime, 0)
	if string(readBeforeCrash) != "v1" {
		t.Fatalf("pre-crash read = %q", readBeforeCrash)
	}
	cl2 := srv2.AttachClient("post-crash")
	env2.Go("verify", func(p *sim.Proc) {
		got, err := cl2.Get(p, []byte("k"))
		if err != nil {
			t.Errorf("post-crash Get: %v (non-monotonic: v1 was read before crash)", err)
		} else if string(got) != "v1" && string(got) != "v2" {
			t.Errorf("post-crash Get = %q, want v1 or v2", got)
		}
		srv2.Stop()
	})
	env2.Run()
}

func TestRecoverAfterMidWriteCrash(t *testing.T) {
	// Crash while a 4 KB value is mid-DMA: the torn prefix must never be
	// exposed; the key rolls back to its previous durable version.
	c := newCluster(t, DefaultConfig(), 1)
	big := bytes.Repeat([]byte{0xCC}, 4096)
	c.env.Go("load", func(p *sim.Proc) {
		cl := c.clients[0]
		if err := cl.Put(p, []byte("k"), []byte("small-v1")); err != nil {
			t.Errorf("Put: %v", err)
		}
		cl.Get(p, []byte("k")) // force durability of v1
		cl.Put(p, []byte("k"), big)
	})
	// The second Put's RDMA write is in flight around 16-18 µs; crash
	// with survival 0.5 so some torn lines persist.
	env2, srv2, _ := crashAndRecover(c, 17*time.Microsecond, 0.5)
	cl2 := srv2.AttachClient("post-crash")
	env2.Go("verify", func(p *sim.Proc) {
		got, err := cl2.Get(p, []byte("k"))
		if err != nil {
			t.Errorf("post-crash Get: %v", err)
			srv2.Stop()
			return
		}
		if !bytes.Equal(got, []byte("small-v1")) && !bytes.Equal(got, big) {
			t.Errorf("post-crash Get returned neither complete version (len %d)", len(got))
		}
		srv2.Stop()
	})
	env2.Run()
}

func TestRecoveredServerAcceptsNewWrites(t *testing.T) {
	c := newCluster(t, DefaultConfig(), 1)
	c.env.Go("load", func(p *sim.Proc) {
		c.clients[0].Put(p, []byte("old"), []byte("before-crash"))
	})
	env2, srv2, _ := crashAndRecover(c, 10*time.Millisecond, 0)
	cl2 := srv2.AttachClient("post-crash")
	env2.Go("verify", func(p *sim.Proc) {
		if err := cl2.Put(p, []byte("new"), []byte("after-crash")); err != nil {
			t.Errorf("Put after recovery: %v", err)
		}
		if err := cl2.Put(p, []byte("old"), []byte("updated")); err != nil {
			t.Errorf("update after recovery: %v", err)
		}
		p.Sleep(2 * time.Millisecond)
		for k, want := range map[string]string{"new": "after-crash", "old": "updated"} {
			got, err := cl2.Get(p, []byte(k))
			if err != nil || string(got) != want {
				t.Errorf("Get %s = %q, %v; want %q", k, got, err, want)
			}
		}
		srv2.Stop()
	})
	env2.Run()
}

// TestCrashPointSweep drives a workload and crashes at a range of instants
// with partial cache survival. Invariant: every recovered value must be
// some complete value previously written for that key — never garbage,
// never a torn mix.
func TestCrashPointSweep(t *testing.T) {
	const keys = 4
	for _, crashUS := range []int{15, 40, 90, 150, 300, 700} {
		crashUS := crashUS
		t.Run(fmt.Sprintf("crash-at-%dus", crashUS), func(t *testing.T) {
			c := newCluster(t, DefaultConfig(), 2)
			// values[k] = set of complete values ever sent for k.
			values := make(map[string]map[string]bool)
			for i := 0; i < keys; i++ {
				values[fmt.Sprintf("k%d", i)] = map[string]bool{}
			}
			for ci, cl := range c.clients {
				ci, cl := ci, cl
				c.env.Go(fmt.Sprintf("load-%d", ci), func(p *sim.Proc) {
					for round := 0; ; round++ {
						k := fmt.Sprintf("k%d", (round+ci)%keys)
						v := fmt.Sprintf("val-%d-%d-%d", ci, round, crashUS)
						values[k][v] = true
						if err := cl.Put(p, []byte(k), []byte(v)); err != nil {
							return // crashed
						}
						if _, err := cl.Get(p, []byte(k)); err != nil && !errors.Is(err, ErrNotFound) {
							return
						}
					}
				})
			}
			env2, srv2, _ := crashAndRecover(c, time.Duration(crashUS)*time.Microsecond, 0.5)
			cl2 := srv2.AttachClient("post-crash")
			env2.Go("verify", func(p *sim.Proc) {
				for k, set := range values {
					got, err := cl2.Get(p, []byte(k))
					if errors.Is(err, ErrNotFound) {
						continue // key never became durable: consistent
					}
					if err != nil {
						t.Errorf("Get %s: %v", k, err)
						continue
					}
					if !set[string(got)] {
						t.Errorf("crash@%dµs: key %s recovered garbage %q", crashUS, k, got)
					}
				}
				srv2.Stop()
			})
			env2.Run()
		})
	}
}
