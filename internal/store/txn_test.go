package store

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"
	"time"

	"efactory/internal/nvm"
)

// newTxnStore builds a direct store (no transport) for transaction tests
// and returns it with its device, so tests can crash and recover it.
func newTxnStore(t *testing.T, shards int) (*Store, *nvm.Memory, Config) {
	t.Helper()
	cfg := Config{Shards: shards, Buckets: 256, PoolSize: 64 << 10, VerifyTimeout: time.Second}
	dev := nvm.New(cfg.DeviceSize())
	st, _, err := New(dev, cfg, Deps{})
	if err != nil {
		t.Fatal(err)
	}
	return st, dev, cfg
}

// getNow reads key's current head (no snapshot bound).
func getNow(t *testing.T, st *Store, key []byte) ([]byte, bool) {
	t.Helper()
	e := st.Shard(st.ShardFor(key))
	val, _, s := e.getAt(nil, key, noSeqLimit)
	if s == StatusNotFound {
		return nil, false
	}
	if s != StatusOK {
		t.Fatalf("get %q: status %v", key, s)
	}
	return val, true
}

func TestCommitAtomicVisibility(t *testing.T) {
	st, _, _ := newTxnStore(t, 4)
	defer st.Stop()
	keys := [][]byte{[]byte("alpha"), []byte("bravo"), []byte("charlie")}
	vals := [][]byte{[]byte("v-alpha"), []byte("v-bravo"), []byte("v-charlie")}
	id, s := st.Commit(nil, keys, vals)
	if s != StatusOK || id == 0 {
		t.Fatalf("commit: id=%d status %v", id, s)
	}
	for i := range keys {
		got, ok := getNow(t, st, keys[i])
		if !ok || !bytes.Equal(got, vals[i]) {
			t.Fatalf("key %q after commit: got %q ok=%v", keys[i], got, ok)
		}
	}
	id2, s := st.Commit(nil, keys[:1], [][]byte{[]byte("v2")})
	if s != StatusOK || id2 <= id {
		t.Fatalf("second commit: id %d after %d, status %v", id2, id, s)
	}
}

// TestEmptyCommitIsNoop pins Commit's edges to the client APIs': an
// empty commit changes nothing and succeeds without a transaction id,
// and a key list whose length differs from the values is a caller bug.
func TestEmptyCommitIsNoop(t *testing.T) {
	st, _, _ := newTxnStore(t, 2)
	defer st.Stop()
	before := st.StatsTotal()
	if id, s := st.Commit(nil, nil, nil); id != 0 || s != StatusOK {
		t.Fatalf("empty commit: id=%d status %v, want 0 OK", id, s)
	}
	if after := st.StatsTotal(); after != before {
		t.Fatalf("empty commit touched the engines: %+v -> %+v", before, after)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched commit did not panic")
		}
	}()
	st.Commit(nil, [][]byte{[]byte("k")}, nil)
}

func TestCommitAbortLeavesOldStateIntact(t *testing.T) {
	// A pool too small for the transaction: the commit must fail whole and
	// every key must keep serving its pre-transaction value.
	cfg := Config{Shards: 1, Buckets: 64, PoolSize: 2 << 10, VerifyTimeout: time.Second}
	dev := nvm.New(cfg.DeviceSize())
	st, _, err := New(dev, cfg, Deps{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	keys := [][]byte{[]byte("a"), []byte("b")}
	old := [][]byte{[]byte("old-a"), []byte("old-b")}
	if _, s := st.Commit(nil, keys, old); s != StatusOK {
		t.Fatalf("seed commit: %v", s)
	}
	big := bytes.Repeat([]byte{0xee}, 1500)
	id, s := st.Commit(nil, keys, [][]byte{big, big})
	if s == StatusOK {
		t.Skip("pool unexpectedly fit the oversized transaction")
	}
	if id != 0 {
		t.Fatalf("aborted commit returned id %d", id)
	}
	for i := range keys {
		got, ok := getNow(t, st, keys[i])
		if !ok || !bytes.Equal(got, old[i]) {
			t.Fatalf("key %q after aborted commit: got %q ok=%v, want %q", keys[i], got, ok, old[i])
		}
	}
}

func TestSnapshotCutExcludesLaterCommits(t *testing.T) {
	st, _, _ := newTxnStore(t, 2)
	defer st.Stop()
	keys := [][]byte{[]byte("k0"), []byte("k1"), []byte("k2")}
	a := [][]byte{[]byte("a0"), []byte("a1"), []byte("a2")}
	b := [][]byte{[]byte("b0"), []byte("b1"), []byte("b2")}
	if _, s := st.Commit(nil, keys, a); s != StatusOK {
		t.Fatalf("commit a: %v", s)
	}
	vec := st.seqVector() // the cut: everything of a, nothing of b
	if _, s := st.Commit(nil, keys, b); s != StatusOK {
		t.Fatalf("commit b: %v", s)
	}
	for i, key := range keys {
		sh := st.ShardFor(key)
		val, seq, s := st.Shard(sh).getAt(nil, key, vec[sh])
		if s != StatusOK || !bytes.Equal(val, a[i]) {
			t.Fatalf("snapshot read %q: %q status %v, want %q", key, val, s, a[i])
		}
		if seq > vec[sh] {
			t.Fatalf("snapshot read %q served seq %d at cut %d", key, seq, vec[sh])
		}
		now, _ := getNow(t, st, key)
		if !bytes.Equal(now, b[i]) {
			t.Fatalf("unbounded read %q: %q, want %q", key, now, b[i])
		}
	}
	// SnapshotGet pins its own (current) cut: it must see b entirely.
	for i, r := range st.SnapshotGet(nil, keys) {
		if r.Status != StatusOK || !bytes.Equal(r.Value, b[i]) {
			t.Fatalf("SnapshotGet %q: %q status %v", keys[i], r.Value, r.Status)
		}
	}
}

func TestRecoveryCommittedTxnSurvivesWhole(t *testing.T) {
	st, dev, cfg := newTxnStore(t, 2)
	keys := [][]byte{[]byte("left"), []byte("right")}
	vals := [][]byte{[]byte("surviving-left"), []byte("surviving-right")}
	if _, s := st.Commit(nil, keys, vals); s != StatusOK {
		t.Fatalf("commit: %v", s)
	}
	st.Stop()
	dev.Crash(42, 0) // strict power failure: only flushed lines persist
	st2, rs, err := New(dev, cfg, Deps{})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer st2.Stop()
	for i := range keys {
		got, ok := getNow(t, st2, keys[i])
		if !ok || !bytes.Equal(got, vals[i]) {
			t.Fatalf("key %q after crash: got %q ok=%v (recovery %+v)", keys[i], got, ok, rs)
		}
	}
}

func TestRecoveryStagedWithoutRecordDiscarded(t *testing.T) {
	st, dev, cfg := newTxnStore(t, 1)
	// Stage two writes and never commit: the crash must discard them whole
	// — staged objects carry no FlagValid, so recovery skips them.
	if _, s := st.txnStage(nil, 99, []byte("ghost-a"), []byte("gv-a")); s != StatusOK {
		t.Fatalf("stage: %v", s)
	}
	if _, s := st.txnStage(nil, 99, []byte("ghost-b"), []byte("gv-b")); s != StatusOK {
		t.Fatalf("stage: %v", s)
	}
	st.Stop()
	dev.Crash(43, 0)
	st2, rs, err := New(dev, cfg, Deps{})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer st2.Stop()
	if rs.TxnsReplayed != 0 {
		t.Fatalf("recordless stages replayed: %+v", rs)
	}
	for _, key := range [][]byte{[]byte("ghost-a"), []byte("ghost-b")} {
		if got, ok := getNow(t, st2, key); ok {
			t.Fatalf("staged-only key %q recovered as %q", key, got)
		}
	}
}

// TestQuickSnapshotNeverObservesDeadVersion is the satellite property
// test: under random interleavings of single-key puts and multi-key
// commits, a read bounded by a pinned cut must return exactly the value
// the model held at pin time — never a version newer than the cut
// (cut-sequence-dead) and never one that was already superseded at the
// cut.
func TestQuickSnapshotNeverObservesDeadVersion(t *testing.T) {
	property := func(seed uint64, opByte uint8) bool {
		nOps := 4 + int(opByte%28)
		st, _, _ := newTxnStore(t, 2)
		defer st.Stop()
		rng := rand.New(rand.NewPCG(seed, 0x5eed))
		keys := make([][]byte, 6)
		for i := range keys {
			keys[i] = []byte(fmt.Sprintf("qk-%d", i))
		}
		model := make(map[string][]byte)
		type cut struct {
			vec   []uint64
			state map[string][]byte
		}
		var cuts []cut
		for op := 0; op < nOps; op++ {
			switch rng.IntN(3) {
			case 0: // single-key put through the transactional path's substrate
				k := keys[rng.IntN(len(keys))]
				v := []byte(fmt.Sprintf("solo-%d-%d", seed, op))
				if _, s := st.Commit(nil, [][]byte{k}, [][]byte{v}); s != StatusOK {
					return false
				}
				model[string(k)] = v
			case 1: // multi-key commit
				n := 2 + rng.IntN(3)
				base := rng.IntN(len(keys))
				ck := make([][]byte, n)
				cv := make([][]byte, n)
				for j := 0; j < n; j++ {
					ck[j] = keys[(base+j)%len(keys)]
					cv[j] = []byte(fmt.Sprintf("txn-%d-%d-%d", seed, op, j))
				}
				if _, s := st.Commit(nil, ck, cv); s != StatusOK {
					return false
				}
				for j := range ck {
					model[string(ck[j])] = cv[j]
				}
			default: // pin a cut with the model's state frozen alongside
				state := make(map[string][]byte, len(model))
				for k, v := range model {
					state[k] = v
				}
				cuts = append(cuts, cut{vec: st.seqVector(), state: state})
			}
		}
		// Every pinned cut, read after all the later writes: the snapshot
		// must still serve exactly the state frozen at pin time.
		for _, c := range cuts {
			for _, key := range keys {
				sh := st.ShardFor(key)
				val, seq, s := st.Shard(sh).getAt(nil, key, c.vec[sh])
				want, ok := c.state[string(key)]
				if !ok {
					if s != StatusNotFound {
						return false // observed a version born after the cut
					}
					continue
				}
				if s != StatusOK || !bytes.Equal(val, want) || seq > c.vec[sh] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
