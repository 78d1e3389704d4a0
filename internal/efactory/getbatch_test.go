// GetBatch + hint-cache behavior on the simulated RDMA transport: batched
// results must match per-key Gets exactly, hints must only ever accelerate
// (never change) what a read returns, and cross-client writes must be
// observed despite cached locations.
package efactory

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"efactory/internal/hint"
	"efactory/internal/sim"
)

func batchKeys(n int) ([][]byte, [][]byte) {
	keys := make([][]byte, n)
	vals := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("gb-key-%03d", i))
		vals[i] = []byte(fmt.Sprintf("gb-val-%03d-xxxxxxxxxxxxxxxx", i))
	}
	return keys, vals
}

func TestGetBatchMatchesGet(t *testing.T) {
	c := newCluster(t, DefaultConfig(), 2)
	c.run(func(p *sim.Proc) {
		cl, ref := c.clients[0], c.clients[1]
		keys, vals := batchKeys(16)
		if errs := cl.PutBatch(p, keys, vals); errs != nil {
			for i, err := range errs {
				if err != nil {
					t.Fatalf("put %s: %v", keys[i], err)
				}
			}
		}
		p.Sleep(5 * time.Millisecond) // let the background thread settle
		if err := cl.Delete(p, keys[3]); err != nil {
			t.Fatal(err)
		}
		probe := append(append([][]byte{}, keys...), []byte("gb-absent"))
		got, errs := cl.GetBatch(p, probe)
		if len(got) != len(probe) || len(errs) != len(probe) {
			t.Fatalf("GetBatch returned %d/%d results for %d keys", len(got), len(errs), len(probe))
		}
		for i, k := range probe {
			wantVal, wantErr := ref.Get(p, k)
			if !errors.Is(errs[i], wantErr) && (errs[i] == nil) != (wantErr == nil) {
				t.Errorf("key %s: err %v, want %v", k, errs[i], wantErr)
			}
			if string(got[i]) != string(wantVal) {
				t.Errorf("key %s: val %q, want %q", k, got[i], wantVal)
			}
		}
		if !errors.Is(errs[3], ErrNotFound) || !errors.Is(errs[len(probe)-1], ErrNotFound) {
			t.Fatalf("deleted/absent errs: %v / %v", errs[3], errs[len(probe)-1])
		}
		if cl.Stats.BatchedGets != len(probe) {
			t.Fatalf("BatchedGets = %d, want %d", cl.Stats.BatchedGets, len(probe))
		}
	})
}

func TestGetBatchPureWhenSettled(t *testing.T) {
	c := newCluster(t, DefaultConfig(), 1)
	c.run(func(p *sim.Proc) {
		cl := c.clients[0]
		keys, vals := batchKeys(8)
		for i := range keys {
			if err := cl.Put(p, keys[i], vals[i]); err != nil {
				t.Fatal(err)
			}
		}
		p.Sleep(5 * time.Millisecond)
		before := cl.Stats
		if _, errs := cl.GetBatch(p, keys); errs != nil {
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		if pure := cl.Stats.PureReads - before.PureReads; pure != len(keys) {
			t.Fatalf("PureReads advanced by %d, want %d", pure, len(keys))
		}
		if fb := cl.Stats.FallbackReads - before.FallbackReads; fb != 0 {
			t.Fatalf("FallbackReads advanced by %d, want 0", fb)
		}
	})
}

func TestGetBatchUndurableFallsBack(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableBackground = true
	c := newCluster(t, cfg, 1)
	c.run(func(p *sim.Proc) {
		cl := c.clients[0]
		keys, vals := batchKeys(6)
		for i := range keys {
			if err := cl.Put(p, keys[i], vals[i]); err != nil {
				t.Fatal(err)
			}
		}
		// Nothing is durable yet: every optimistic read must fail its
		// durability check and resolve through the single TGetBatch RPC.
		got, errs := cl.GetBatch(p, keys)
		for i := range keys {
			if errs[i] != nil || string(got[i]) != string(vals[i]) {
				t.Fatalf("key %s: %q, %v", keys[i], got[i], errs[i])
			}
		}
		if cl.Stats.FallbackReads != len(keys) {
			t.Fatalf("FallbackReads = %d, want %d", cl.Stats.FallbackReads, len(keys))
		}
		if st := c.srv.Stats(); st.GetBatches == 0 {
			t.Fatal("server handled no GetBatch")
		}
	})
}

func TestGetBatchRPCOnlyWhenHybridOff(t *testing.T) {
	c := newCluster(t, DefaultConfig(), 1)
	c.run(func(p *sim.Proc) {
		cl := c.clients[0]
		cl.SetHybridRead(false)
		keys, vals := batchKeys(5)
		for i := range keys {
			if err := cl.Put(p, keys[i], vals[i]); err != nil {
				t.Fatal(err)
			}
		}
		p.Sleep(5 * time.Millisecond)
		got, errs := cl.GetBatch(p, keys)
		for i := range keys {
			if errs[i] != nil || string(got[i]) != string(vals[i]) {
				t.Fatalf("key %s: %q, %v", keys[i], got[i], errs[i])
			}
		}
		if cl.Stats.RPCReads != len(keys) || cl.Stats.PureReads != 0 {
			t.Fatalf("RPCReads=%d PureReads=%d, want %d/0", cl.Stats.RPCReads, cl.Stats.PureReads, len(keys))
		}
	})
}

func TestHintCacheAcceleratesRepeatReads(t *testing.T) {
	c := newCluster(t, DefaultConfig(), 1)
	c.run(func(p *sim.Proc) {
		cl := c.clients[0]
		cl.EnableHintCache(0)
		keys, vals := batchKeys(8)
		for i := range keys {
			if err := cl.Put(p, keys[i], vals[i]); err != nil {
				t.Fatal(err)
			}
		}
		p.Sleep(5 * time.Millisecond)
		// First batch: PUT-seeded hints are marked undurable, so these
		// resolve via RPC and come back with durable, slot-bearing hints.
		if _, errs := cl.GetBatch(p, keys); errs[0] != nil {
			t.Fatal(errs[0])
		}
		before := cl.Stats
		got, errs := cl.GetBatch(p, keys)
		for i := range keys {
			if errs[i] != nil || string(got[i]) != string(vals[i]) {
				t.Fatalf("key %s: %q, %v", keys[i], got[i], errs[i])
			}
		}
		if hinted := cl.Stats.HintedReads - before.HintedReads; hinted != len(keys) {
			t.Fatalf("HintedReads advanced by %d, want %d", hinted, len(keys))
		}
		if st := cl.HintCache().Stats(); st.Hits == 0 {
			t.Fatalf("hint cache recorded no hits: %+v", st)
		}
	})
}

func TestHintCoherentAcrossClients(t *testing.T) {
	c := newCluster(t, DefaultConfig(), 2)
	c.run(func(p *sim.Proc) {
		reader, writer := c.clients[0], c.clients[1]
		reader.EnableHintCache(0)
		key, v1, v2 := []byte("shared-key"), []byte("version-one-xxxxxxxx"), []byte("version-two-longer-yyyyyyyyyyyy")
		if err := writer.Put(p, key, v1); err != nil {
			t.Fatal(err)
		}
		p.Sleep(5 * time.Millisecond)
		if got, err := reader.Get(p, key); err != nil || string(got) != string(v1) {
			t.Fatalf("warmup get: %q, %v", got, err)
		}
		// Overwrite behind the reader's back; its hinted location is now a
		// stale version. The entry READ must steer it to the new bytes.
		if err := writer.Put(p, key, v2); err != nil {
			t.Fatal(err)
		}
		p.Sleep(5 * time.Millisecond)
		if got, err := reader.Get(p, key); err != nil || string(got) != string(v2) {
			t.Fatalf("post-overwrite get: %q, %v (want %q)", got, err, v2)
		}
		// Delete behind the reader's back: the hint must not resurrect it.
		if err := writer.Delete(p, key); err != nil {
			t.Fatal(err)
		}
		if _, err := reader.Get(p, key); !errors.Is(err, ErrNotFound) {
			t.Fatalf("post-delete get err = %v, want ErrNotFound", err)
		}
		if st := reader.HintCache().Stats(); st.Stale == 0 {
			t.Fatalf("no stale hints recorded: %+v", st)
		}
	})
}

// TestHintNamingDeadRegionRejoinsProbeWalk: a chain the responder NIC
// refuses to post (here: a hint whose pool rkey no longer resolves) is a
// refusal of its members, not a failure of the op — the hint is dropped
// and the read rejoins the probe walk, single-key and batched alike.
func TestHintNamingDeadRegionRejoinsProbeWalk(t *testing.T) {
	c := newCluster(t, DefaultConfig(), 1)
	c.run(func(p *sim.Proc) {
		cl := c.clients[0]
		cl.EnableHintCache(0)
		key, val := []byte("relaid-key"), []byte("still-here")
		if err := cl.Put(p, key, val); err != nil {
			t.Fatal(err)
		}
		p.Sleep(5 * time.Millisecond)
		reads := []func() ([]byte, error){
			func() ([]byte, error) { return cl.Get(p, key) },
			func() ([]byte, error) {
				vals, errs := cl.GetBatch(p, [][]byte{key})
				return vals[0], errs[0]
			},
		}
		for i, read := range reads {
			cl.HintCache().Insert(0, key, hint.Entry{Slot: -1, Pool: 0xdead, Len: 128, Durable: true})
			before := cl.Stats
			if got, err := read(); err != nil || string(got) != string(val) {
				t.Fatalf("read %d through a dead-region hint: %q, %v", i, got, err)
			}
			if pure, fb := cl.Stats.PureReads-before.PureReads, cl.Stats.FallbackReads-before.FallbackReads; pure != 1 || fb != 0 {
				t.Fatalf("read %d: pure=%d fallback=%d, want the probe walk to serve it (1/0)", i, pure, fb)
			}
		}
	})
}
