package server

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"efactory/internal/crc"
	"efactory/internal/kv"
	"efactory/internal/nvm"
	"efactory/internal/store"
	"efactory/internal/txn"
	"efactory/internal/wire"
)

const (
	testPool   = 64 << 10
	testMaxOps = 4
)

// replica is one store with its device and transaction manager.
type replica struct {
	dev *nvm.Memory
	st  *store.Store
	tm  *txn.Manager
}

func newReplica(t testing.TB, shards int, deps store.Deps) replica {
	t.Helper()
	cfg := store.Config{Shards: shards, Buckets: 64, PoolSize: testPool, VerifyTimeout: time.Hour}
	dev := nvm.New(cfg.DeviceSize())
	st, _, err := store.New(dev, cfg, deps)
	if err != nil {
		t.Fatal(err)
	}
	return replica{dev, st, txn.NewManager(st, nil)}
}

func (r replica) eng(key []byte) (int, *store.Engine) {
	sh := r.st.ShardFor(key)
	return sh, r.st.Shard(sh)
}

// seed makes key=val durable by direct engine calls: allocate, land the
// value where a one-sided WRITE would, run the verifier.
func (r replica) seed(t testing.TB, key, val []byte) {
	t.Helper()
	sh, eng := r.eng(key)
	res := eng.Put(nil, key, len(val), crc.Checksum(val))
	if res.Status != store.StatusOK {
		t.Fatalf("seed %q: status %d", key, res.Status)
	}
	r.dev.Write(r.st.Layout().PoolBase(sh, res.Pool)+int(res.Off)+kv.ValueOffset(len(key)), val)
	eng.BGDrain(nil, 8)
}

// fixture is a Core over one replica and a twin replica that the
// conformance rows drive by direct engine calls, in lock-step: the two
// stores see the same operations, so the Core's reply must carry exactly
// what the direct call returned.
type fixture struct {
	replica
	ref   replica
	pools [][2]uint32
	core  *Core
	sc    Scratch
}

func newFixture(t testing.TB, shards int, g Guard) *fixture {
	f := &fixture{replica: newReplica(t, shards, store.Deps{}), ref: newReplica(t, shards, store.Deps{})}
	// Deliberately not 2+3*s arithmetic: the rkeys are the table's data.
	for sh := 0; sh < shards; sh++ {
		f.pools = append(f.pools, [2]uint32{uint32(100 + 7*sh), uint32(900 - 5*sh)})
	}
	f.core = New(f.tm, f.pools, testMaxOps, g)
	return f
}

func (f *fixture) seedBoth(t testing.TB, key, val []byte) {
	f.seed(t, key, val)
	f.ref.seed(t, key, val)
}

// handle runs one request through the Core, detaching the payload from
// the scratch as a transport's encode would.
func (f *fixture) handle(t testing.TB, req wire.Msg) wire.Msg {
	t.Helper()
	resp, ok := f.core.Handle(nil, req, &f.sc)
	if !ok {
		t.Fatalf("type %d not handled", req.Type)
	}
	resp.Value = bytes.Clone(resp.Value)
	return resp
}

func key(i int) []byte { return []byte(fmt.Sprintf("key-%02d", i)) }

func keys(lo, hi int) (ks [][]byte) {
	for i := lo; i < hi; i++ {
		ks = append(ks, key(i))
	}
	return ks
}

func getOps(ks [][]byte, slot func(i int) uint32) []byte {
	ops := make([]wire.GetOp, len(ks))
	for i, k := range ks {
		ops[i] = wire.GetOp{Slot: slot(i), Key: k}
	}
	return wire.EncodeGetOps(ops)
}

func noSlot(int) uint32 { return wire.NoSlot }

func txnOps(ks [][]byte, vlen int) []byte {
	ops := make([]wire.TxnOp, len(ks))
	for i, k := range ks {
		v := bytes.Repeat([]byte{byte(i + 1)}, vlen)
		ops[i] = wire.TxnOp{Crc: crc.Checksum(v), Key: k, Value: v}
	}
	return wire.EncodeTxnOps(ops)
}

// putGrant is the grant a direct Engine.Put on the twin store implies.
func (f *fixture) putGrant(k []byte, vlen int, c uint32) wire.PutGrant {
	sh, eng := f.ref.eng(k)
	r := eng.Put(nil, k, vlen, c)
	if r.Status != store.StatusOK {
		return wire.PutGrant{Status: Status(r.Status)}
	}
	return wire.PutGrant{Status: wire.StOK, RKey: f.pools[sh][r.Pool], Off: r.Off, Len: uint32(r.Len)}
}

// getWant is the reply a direct Engine.Get on the twin store implies.
func (f *fixture) getWant(k []byte) wire.Msg {
	sh, eng := f.ref.eng(k)
	r := eng.Get(nil, k)
	if r.Status != store.StatusOK {
		return wire.Msg{Status: Status(r.Status)}
	}
	return wire.Msg{RKey: f.pools[sh][r.Pool], Off: r.Off, Len: uint64(r.Len), KLen: uint32(r.KLen)}
}

// slotOf reads k's bucket index off the table, as a client's one-sided
// probe would learn it.
func (f *fixture) slotOf(t testing.TB, k []byte) int {
	_, eng := f.eng(k)
	idx, _, found := eng.Table().Lookup(kv.HashKey(k))
	if !found {
		t.Fatalf("%q not in the table", k)
	}
	return idx
}

func (f *fixture) getGrant(k []byte, slot int) wire.GetGrant {
	sh, eng := f.ref.eng(k)
	r := eng.GetBatch(nil, [][]byte{k}, []int{slot})[0]
	if r.Status != store.StatusOK {
		return wire.GetGrant{Status: Status(r.Status)}
	}
	g := wire.GetGrant{
		Status: wire.StOK, RKey: f.pools[sh][r.Pool], Slot: uint32(r.Slot),
		Len: uint32(r.Len), KLen: uint32(r.KLen), Off: r.Off, Seq: r.Seq,
	}
	if r.Durable {
		g.Flags = wire.GrantDurable
	}
	return g
}

// TestConformance checks, on a 1-shard and a 3-shard store, that each of
// the seven request types answers with exactly what the direct engine
// call on an identically driven twin store returns, and that requests to
// refuse are refused with the one status both transports now share.
func TestConformance(t *testing.T) {
	huge := testPool * 2 // storable, but larger than a whole pool
	rows := []struct {
		name string
		req  func(f *fixture) wire.Msg
		want func(f *fixture) wire.Msg // Type is filled in by the runner
	}{
		{"put", func(f *fixture) wire.Msg {
			return wire.Msg{Type: wire.TPut, Key: key(0), Len: 100, Crc: 42}
		}, func(f *fixture) wire.Msg {
			g := f.putGrant(key(0), 100, 42)
			return wire.Msg{Status: g.Status, RKey: g.RKey, Off: g.Off, Len: uint64(g.Len)}
		}},
		{"put full pool", func(f *fixture) wire.Msg {
			return wire.Msg{Type: wire.TPut, Key: key(1), Len: uint64(huge)}
		}, func(f *fixture) wire.Msg {
			if g := f.putGrant(key(1), huge, 0); g.Status != wire.StFull {
				t.Fatalf("direct put of %d B: status %d, want StFull", huge, g.Status)
			}
			return wire.Msg{Status: wire.StFull}
		}},
		{"put empty key", func(f *fixture) wire.Msg {
			return wire.Msg{Type: wire.TPut, Len: 8}
		}, func(f *fixture) wire.Msg { return wire.Msg{Status: wire.StError} }},
		{"put unrepresentable length", func(f *fixture) wire.Msg {
			return wire.Msg{Type: wire.TPut, Key: key(1), Len: 1 << 63}
		}, func(f *fixture) wire.Msg { return wire.Msg{Status: wire.StError} }},
		{"put batch, one op too big for the pool", func(f *fixture) wire.Msg {
			ops := []wire.PutOp{{Crc: 1, VLen: 10, Key: key(2)}, {Crc: 2, VLen: huge, Key: key(3)}}
			for i := 4; i < 12; i++ {
				ops = append(ops, wire.PutOp{Crc: uint32(i), VLen: 10 * i, Key: key(i)})
			}
			return wire.Msg{Type: wire.TPutBatch, Value: wire.EncodePutOps(ops)}
		}, func(f *fixture) wire.Msg {
			gs := []wire.PutGrant{f.putGrant(key(2), 10, 1), f.putGrant(key(3), huge, 2)}
			for i := 4; i < 12; i++ {
				gs = append(gs, f.putGrant(key(i), 10*i, uint32(i)))
			}
			return wire.Msg{Value: wire.EncodePutGrants(gs)}
		}},
		{"put batch malformed", func(f *fixture) wire.Msg {
			return wire.Msg{Type: wire.TPutBatch, Value: []byte{1}}
		}, func(f *fixture) wire.Msg { return wire.Msg{Status: wire.StError} }},
		{"put batch truncated op list", func(f *fixture) wire.Msg {
			b := wire.EncodePutOps([]wire.PutOp{{VLen: 8, Key: key(20)}, {VLen: 8, Key: key(21)}})
			return wire.Msg{Type: wire.TPutBatch, Value: b[:len(b)-3]}
		}, func(f *fixture) wire.Msg { return wire.Msg{Status: wire.StError} }},
		{"get durable", func(f *fixture) wire.Msg {
			return wire.Msg{Type: wire.TGet, Key: []byte("seeded-a")}
		}, func(f *fixture) wire.Msg {
			m := f.getWant([]byte("seeded-a"))
			if m.Status != wire.StOK || m.KLen != 8 {
				t.Fatalf("direct get: %+v", m)
			}
			return m
		}},
		{"get absent", func(f *fixture) wire.Msg {
			return wire.Msg{Type: wire.TGet, Key: []byte("nobody")}
		}, func(f *fixture) wire.Msg {
			m := f.getWant([]byte("nobody"))
			if m.Status != wire.StNotFound {
				t.Fatalf("direct get of an absent key: %+v", m)
			}
			return m
		}},
		{"get batch: durable, absent, good hint, out-of-range hint", func(f *fixture) wire.Msg {
			ks := [][]byte{[]byte("seeded-a"), []byte("nobody"), []byte("seeded-b"), []byte("seeded-c")}
			slots := []uint32{wire.NoSlot, wire.NoSlot, uint32(f.slotOf(t, ks[2])), 1 << 30}
			return wire.Msg{Type: wire.TGetBatch, Value: getOps(ks, func(i int) uint32 { return slots[i] })}
		}, func(f *fixture) wire.Msg {
			gs := []wire.GetGrant{
				f.getGrant([]byte("seeded-a"), -1), f.getGrant([]byte("nobody"), -1),
				f.getGrant([]byte("seeded-b"), f.slotOf(t, []byte("seeded-b"))), f.getGrant([]byte("seeded-c"), 1<<30),
			}
			if gs[0].Status != wire.StOK || !gs[0].Durable() || gs[1].Status != wire.StNotFound || gs[3].Status != wire.StOK {
				t.Fatalf("direct get batch: %+v", gs)
			}
			return wire.Msg{Value: wire.EncodeGetGrants(gs)}
		}},
		{"get batch over the op cap", func(f *fixture) wire.Msg {
			return wire.Msg{Type: wire.TGetBatch, Value: getOps(keys(0, testMaxOps+1), noSlot)}
		}, func(f *fixture) wire.Msg { return wire.Msg{Status: wire.StError} }},
		{"get batch malformed", func(f *fixture) wire.Msg {
			return wire.Msg{Type: wire.TGetBatch, Value: []byte{9, 0, 0, 0, 1}}
		}, func(f *fixture) wire.Msg { return wire.Msg{Status: wire.StError} }},
		{"del", func(f *fixture) wire.Msg {
			return wire.Msg{Type: wire.TDel, Key: []byte("seeded-c")}
		}, func(f *fixture) wire.Msg {
			_, eng := f.ref.eng([]byte("seeded-c"))
			return wire.Msg{Status: Status(eng.Del(nil, []byte("seeded-c")))}
		}},
		{"del absent", func(f *fixture) wire.Msg {
			return wire.Msg{Type: wire.TDel, Key: []byte("seeded-c")}
		}, func(f *fixture) wire.Msg {
			_, eng := f.ref.eng([]byte("seeded-c"))
			if st := eng.Del(nil, []byte("seeded-c")); st != store.StatusNotFound {
				t.Fatalf("direct second delete: status %d", st)
			}
			return wire.Msg{Status: wire.StNotFound}
		}},
		{"txn commit", func(f *fixture) wire.Msg {
			return wire.Msg{Type: wire.TTxnCommit, Value: txnOps(keys(30, 36), 64)}
		}, func(f *fixture) wire.Msg {
			ops, _ := wire.DecodeTxnOps(txnOps(keys(30, 36), 64))
			vals := make([][]byte, len(ops))
			for i := range ops {
				vals[i] = ops[i].Value
			}
			id, per, st := f.ref.tm.Commit(nil, keys(30, 36), vals)
			if st != store.StatusOK || id == 0 {
				t.Fatalf("direct commit: id %d status %d", id, st)
			}
			sts := make([]uint8, len(per))
			for i := range per {
				sts[i] = Status(per[i])
			}
			return wire.Msg{Off: id, Value: wire.EncodeTxnStatuses(sts)}
		}},
		{"txn commit too big for the pool", func(f *fixture) wire.Msg {
			return wire.Msg{Type: wire.TTxnCommit, Value: txnOps(keys(40, 42), huge)}
		}, func(f *fixture) wire.Msg {
			v := bytes.Repeat([]byte{1}, huge)
			_, per, st := f.ref.tm.Commit(nil, keys(40, 42), [][]byte{v, v})
			if st != store.StatusFull {
				t.Fatalf("direct commit: status %d, want full", st)
			}
			return wire.Msg{Status: wire.StFull, Value: wire.EncodeTxnStatuses([]uint8{Status(per[0]), Status(per[1])})}
		}},
		{"txn commit empty", func(f *fixture) wire.Msg {
			return wire.Msg{Type: wire.TTxnCommit, Value: wire.EncodeTxnOps(nil)}
		}, func(f *fixture) wire.Msg { return wire.Msg{Status: wire.StError} }},
		{"txn commit malformed", func(f *fixture) wire.Msg {
			b := txnOps(keys(50, 52), 8)
			return wire.Msg{Type: wire.TTxnCommit, Value: b[:len(b)-1]}
		}, func(f *fixture) wire.Msg { return wire.Msg{Status: wire.StError} }},
		{"txn read: committed, seeded, absent", func(f *fixture) wire.Msg {
			return wire.Msg{Type: wire.TTxnRead, Value: getOps([][]byte{key(31), []byte("seeded-a"), []byte("nobody")}, noSlot)}
		}, func(f *fixture) wire.Msg {
			res := f.ref.tm.SnapshotGet(nil, [][]byte{key(31), []byte("seeded-a"), []byte("nobody")})
			if res[0].Status != store.StatusOK || len(res[0].Value) != 64 || res[2].Status != store.StatusNotFound {
				t.Fatalf("direct snapshot read: %+v", res)
			}
			rs := make([]wire.TxnResult, len(res))
			for i, r := range res {
				rs[i] = wire.TxnResult{Status: Status(r.Status), Seq: r.Seq, Value: r.Value}
			}
			return wire.Msg{Value: wire.EncodeTxnResults(rs)}
		}},
		{"txn read over the op cap", func(f *fixture) wire.Msg {
			return wire.Msg{Type: wire.TTxnRead, Value: getOps(keys(0, testMaxOps+1), noSlot)}
		}, func(f *fixture) wire.Msg { return wire.Msg{Status: wire.StError} }},
		{"txn read malformed", func(f *fixture) wire.Msg {
			return wire.Msg{Type: wire.TTxnRead}
		}, func(f *fixture) wire.Msg { return wire.Msg{Status: wire.StError} }},
	}
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			f := newFixture(t, shards, nil)
			for _, k := range []string{"seeded-a", "seeded-b", "seeded-c"} {
				f.seedBoth(t, []byte(k), bytes.Repeat([]byte(k[7:]), 200))
			}
			for _, row := range rows {
				req := row.req(f)
				got := f.handle(t, req)
				want := row.want(f)
				want.Type = req.Type + 1
				if len(want.Value) == 0 {
					want.Value = nil
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s:\n got %+v\nwant %+v", row.name, got, want)
				}
				// A refusal must not have reached the engine: the twin saw no
				// call for it, so the counters still agree.
				if g, w := f.st.StatsTotal(), f.ref.st.StatsTotal(); g.Puts != w.Puts || g.Gets != w.Gets || g.Dels != w.Dels || g.TxnStages != w.TxnStages {
					t.Errorf("%s: engine counters diverged from the direct calls:\n got %+v\nwant %+v", row.name, g, w)
				}
			}
			if _, ok := f.core.Handle(nil, wire.Msg{Type: wire.THello}, &f.sc); ok {
				t.Error("THello claimed by the data-plane core")
			}
		})
	}
}

// TestCleaningNote pins the one rule for wire.NoteCleaning: a single-key
// reply reports its key's shard, a multi-op reply any shard.
func TestCleaningNote(t *testing.T) {
	// A cleaner that never runs leaves the shard in the cleaning state.
	r := newReplica(t, 3, store.Deps{Spawn: func(string, func(any)) {}})
	core := New(r.tm, make([][2]uint32, 3), 0, nil)
	var in, out []byte // a key on the cleaning shard, a key on another
	for i := 0; in == nil || out == nil; i++ {
		if k := key(i); r.st.ShardFor(k) == 1 {
			in = k
		} else {
			out = k
		}
	}
	r.st.Shard(1).StartCleaning()
	for _, c := range []struct {
		name string
		req  wire.Msg
		note bool
	}{
		{"get on the cleaning shard", wire.Msg{Type: wire.TGet, Key: in}, true},
		{"get elsewhere", wire.Msg{Type: wire.TGet, Key: out}, false},
		{"put elsewhere", wire.Msg{Type: wire.TPut, Key: out, Len: 8}, false},
		{"del on the cleaning shard", wire.Msg{Type: wire.TDel, Key: in}, true},
		{"get batch elsewhere", wire.Msg{Type: wire.TGetBatch, Value: getOps([][]byte{out}, noSlot)}, true},
		{"malformed put batch", wire.Msg{Type: wire.TPutBatch}, true},
		{"txn read elsewhere", wire.Msg{Type: wire.TTxnRead, Value: getOps([][]byte{out}, noSlot)}, true},
	} {
		resp, _ := core.Handle(nil, c.req, nil)
		if got := resp.Note&wire.NoteCleaning != 0; got != c.note {
			t.Errorf("%s: NoteCleaning = %v, want %v", c.name, got, c.note)
		}
	}
}

// recGuard records the order in which the Core consults it, and what the
// engines had applied at each point.
type recGuard struct {
	st     *store.Store
	events []string
	epoch  uint64 // nonzero: refuse every request at this epoch
	veto   bool
}

// mutations counts the engine mutations applied so far.
func (g *recGuard) mutations() int {
	s := g.st.StatsTotal()
	return s.Puts + s.Dels + s.TxnStages
}

func (g *recGuard) Lock()             { g.events = append(g.events, "enter") }
func (g *recGuard) Unlock()           { g.events = append(g.events, "leave") }
func (g *recGuard) Gate() sync.Locker { return g }

func (g *recGuard) Unowned(keys [][]byte) (uint64, bool) {
	g.events = append(g.events, fmt.Sprintf("unowned n=%d applied=%d", len(keys), g.mutations()))
	return g.epoch, g.epoch != 0
}

func (g *recGuard) Applied(h any, eng *store.Engine, key []byte, del bool) bool {
	if eng != g.st.Shard(g.st.ShardFor(key)) {
		g.events = append(g.events, "WRONG ENGINE")
	}
	g.events = append(g.events, fmt.Sprintf("applied %s del=%v applied=%d", key, del, g.mutations()))
	return !g.veto
}

// TestGuard proves the placement seam's contract on every request type:
// a mutating request holds the gate across ownership check, engine apply
// and Applied hooks; a read checks ownership only; a refusal carries the
// epoch and reaches no engine; a vetoed DELETE is not acknowledged.
func TestGuard(t *testing.T) {
	g := new(recGuard)
	f := newFixture(t, 3, g)
	g.st = f.st
	f.seed(t, key(9), []byte("nine"))
	reqs := []struct {
		req   wire.Msg
		n     int      // keys the ownership check must see
		hooks []string // Applied calls, in order; none for a read
		muts  int      // engine mutations the request applies
	}{
		{wire.Msg{Type: wire.TPut, Key: key(1), Len: 8}, 1, []string{"key-01 del=false"}, 1},
		{wire.Msg{Type: wire.TPutBatch, Value: wire.EncodePutOps([]wire.PutOp{{VLen: 8, Key: key(2)}})}, 1, []string{"key-02 del=false"}, 1},
		{wire.Msg{Type: wire.TDel, Key: key(9)}, 1, []string{"key-09 del=true"}, 1},
		{wire.Msg{Type: wire.TTxnCommit, Value: txnOps(keys(3, 5), 8)}, 2, []string{"key-03 del=false", "key-04 del=false"}, 2},
		{wire.Msg{Type: wire.TGet, Key: key(1)}, 1, nil, 0},
		{wire.Msg{Type: wire.TGetBatch, Value: getOps(keys(1, 4), noSlot)}, 3, nil, 0},
		{wire.Msg{Type: wire.TTxnRead, Value: getOps(keys(3, 5), noSlot)}, 2, nil, 0},
	}
	// events is what the guard must see: the ownership check before any
	// mutation is applied, every hook after all of them, the gate around
	// both for a mutating request and not at all for a read.
	events := func(n, done, muts int, hooks []string, refused bool) []string {
		ev := []string{fmt.Sprintf("unowned n=%d applied=%d", n, done)}
		if hooks == nil {
			return ev
		}
		if !refused {
			for _, h := range hooks {
				ev = append(ev, fmt.Sprintf("applied %s applied=%d", h, done+muts))
			}
		}
		return append(append([]string{"enter"}, ev...), "leave")
	}
	done := g.mutations()
	for _, c := range reqs {
		g.events = nil
		// (The GET finds nothing durable: no value was ever written.)
		if resp := f.handle(t, c.req); resp.Status != wire.StOK && resp.Status != wire.StNotFound {
			t.Errorf("%s: status %d", OpName(c.req.Type), resp.Status)
		}
		if want := events(c.n, done, c.muts, c.hooks, false); !reflect.DeepEqual(g.events, want) {
			t.Errorf("%s: guard saw\n %q\nwant\n %q", OpName(c.req.Type), g.events, want)
		}
		done += c.muts
	}

	// Refused: the same requests, and nothing may reach an engine.
	g.epoch = 7
	before := f.st.StatsTotal()
	for _, c := range reqs {
		g.events = nil
		resp := f.handle(t, c.req)
		if resp.Type != c.req.Type+1 || resp.Status != wire.StWrongEpoch || resp.Token != 7 || resp.Value != nil {
			t.Errorf("%s refused: got %+v, want StWrongEpoch with Token 7", OpName(c.req.Type), resp)
		}
		if want := events(c.n, done, 0, c.hooks, true); !reflect.DeepEqual(g.events, want) {
			t.Errorf("%s refused: guard saw %q, want %q", OpName(c.req.Type), g.events, want)
		}
	}
	if after := f.st.StatsTotal(); after != before {
		t.Errorf("refused requests reached the engine:\n before %+v\n after  %+v", before, after)
	}

	// Vetoed: the DELETE applies but must not be acknowledged.
	g.epoch, g.veto = 0, true
	if resp := f.handle(t, wire.Msg{Type: wire.TDel, Key: key(1)}); resp.Status != wire.StError {
		t.Errorf("vetoed DELETE: status %d, want StError", resp.Status)
	}
	if resp := f.handle(t, wire.Msg{Type: wire.TPut, Key: key(1), Len: 8}); resp.Status != wire.StOK {
		t.Errorf("PUT under a vetoing guard: status %d, want StOK (writes are never vetoed)", resp.Status)
	}
}
