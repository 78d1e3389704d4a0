package store_test

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"efactory/internal/crc"
	"efactory/internal/fault"
	"efactory/internal/nvm"
	"efactory/internal/store"
)

// recoveryDeps runs the cleaner inline on one goroutine, as directStore
// does, under plan. A value in flight aborts a cleaning run, so a run that
// meets a torn PUT is left cut short: the mark never flips and survivors
// stay in both pools.
func recoveryDeps(plan *fault.Plan) store.Deps {
	return store.Deps{
		Sink:        fault.WrapSink(plan, &stepSink{}),
		NewLock:     func() sync.Locker { return nopLocker{} },
		Spawn:       func(name string, fn func(h any)) { fn(nil) },
		CleanerWait: func(h any) bool { return false },
	}
}

// recoveryWorkload gives recovery everything to do: overwrites whose
// predecessors it invalidates and whose chains it cuts, torn PUTs it rolls
// back, deletes, two-key commits a crash can interrupt between the record
// and the flips, and a cleaning run cut short when its reverse scan meets
// z's torn PUT, having copied the keys written after it but not a, written
// before.
func recoveryWorkload(st *store.Store) {
	e := st.Shard(0)
	a, z := []byte("a"), []byte("z")
	e.PutInline(nil, a, []byte("a-value"), crc.Checksum([]byte("a-value")))
	e.Get(nil, a)
	e.Put(nil, z, 8, 0)
	for r := 0; r < 4; r++ {
		for i := 0; i < 6; i++ {
			key := []byte(fmt.Sprintf("k%d", i))
			val := []byte(fmt.Sprintf("r%d-k%d-%s", r, i, strings.Repeat(".", 40)))
			if (i+r)%4 == 0 {
				e.Put(nil, key, len(val), crc.Checksum(val)) // torn: the value never follows
				continue
			}
			e.PutInline(nil, key, val, crc.Checksum(val))
			e.Get(nil, key) // verifies and persists it
		}
		st.Commit(nil, [][]byte{[]byte("t0"), []byte("t1")},
			[][]byte{[]byte(fmt.Sprintf("t0-r%d", r)), []byte(fmt.Sprintf("t1-r%d", r))})
		e.Del(nil, []byte(fmt.Sprintf("k%d", r+1)))
		if r == 1 {
			st.StartCleaning()
		}
	}
}

// TestSecondRecoveryWritesNothing crashes recoveryWorkload at evenly
// spaced boundaries and recovers each image twice. The second recovery, of
// an image the first one repaired, must count no flush or drain boundary,
// leave the persisted image byte-identical, restore the same keys, and
// find nothing to roll back, replay or discard.
func TestSecondRecoveryWritesNothing(t *testing.T) {
	cfg := store.Config{Buckets: 64, PoolSize: 16 << 10, VerifyTimeout: time.Hour}
	image := func(dev *nvm.Memory) []byte {
		b := make([]byte, dev.Size())
		dev.ReadPersisted(0, b)
		return b
	}
	run := func(crashAt int64) (*nvm.Memory, int64) {
		dev := nvm.New(cfg.DeviceSize())
		plan := fault.NewPlan(crashAt)
		st, _, err := store.New(fault.WrapDevice(dev, plan), cfg, recoveryDeps(plan))
		if err != nil {
			t.Fatal(err)
		}
		recoveryWorkload(st)
		return dev, plan.Boundaries()
	}
	_, total := run(0)
	var rolled, replayed int
	for _, k := range fault.SweepPoints(total, 40) {
		dev, _ := run(k)
		dev.Crash(uint64(k), 0)
		_, first, err := store.New(dev, cfg, recoveryDeps(nil))
		if err != nil {
			t.Fatalf("K=%d: first recovery: %v", k, err)
		}
		rolled += first.RolledBack
		replayed += first.TxnsReplayed
		before := image(dev)
		probe := fault.NewPlan(0)
		_, second, err := store.New(fault.WrapDevice(dev, probe), cfg, recoveryDeps(probe))
		if err != nil {
			t.Fatalf("K=%d: second recovery: %v", k, err)
		}
		if n := probe.Boundaries(); n != 0 {
			t.Errorf("K=%d: second recovery counted %d flush/drain boundaries, want 0", k, n)
		}
		if !bytes.Equal(image(dev), before) {
			t.Errorf("K=%d: second recovery changed the persisted image", k)
		}
		if second.KeysRecovered != first.KeysRecovered || second.KeysLost != 0 || second.RolledBack != 0 ||
			second.TxnsReplayed != 0 || second.TxnsDiscarded != 0 {
			t.Errorf("K=%d: second recovery %+v after first %+v", k, second, first)
		}
	}
	if rolled == 0 || replayed == 0 {
		t.Fatalf("the sweep rolled back %d keys and replayed %d transactions; it must do both", rolled, replayed)
	}
}
