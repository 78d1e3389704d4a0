package client

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"efactory/internal/cluster"
	"efactory/internal/crc"
	"efactory/internal/hint"
	"efactory/internal/kv"
	"efactory/internal/nvm"
	"efactory/internal/server"
	"efactory/internal/store"
	"efactory/internal/txn"
	"efactory/internal/wire"
)

// fakeVerbs is an in-memory transport: RPCs are answered by the server
// protocol core over a real single-shard store on an nvm.Memory, one-sided
// requests touch that device directly (rkey 1 = table, 2 and 3 = the
// pools), and a hook lets a test refuse or mangle individual READs — the
// paths a full transport reaches only by accident of timing.
type fakeVerbs struct {
	dev  *nvm.Memory
	st   *store.Store
	core *server.Core
	sc   server.Scratch

	rpcs   []uint8 // request types, in order
	bursts int     // READ bursts posted
	// onRead, when set, sees every READ after its bytes were fetched: burst
	// counts READ bursts from 1, idx is the request's position in it.
	onRead func(burst, idx int, r *Req)
	// nakWrites refuses every one-sided WRITE.
	nakWrites bool

	// A cleaning run parks on parked whenever a value it needs is still in
	// flight and continues on resume; cleaned closes when it ends.
	parked, resume, cleaned chan struct{}
	inFlight                []func() // lands each tornPut value
}

func newFake(t *testing.T, buckets int) (*fakeVerbs, *Core, *Stats) {
	t.Helper()
	cfg := store.Config{Buckets: buckets, PoolSize: 1 << 20, VerifyTimeout: time.Second}
	dev := nvm.New(cfg.DeviceSize())
	f := &fakeVerbs{dev: dev, parked: make(chan struct{}), resume: make(chan struct{}), cleaned: make(chan struct{})}
	st, _, err := store.New(dev, cfg, store.Deps{
		Spawn: func(name string, fn func(h any)) {
			go func() { fn(nil); close(f.cleaned) }()
		},
		CleanerWait: func(any) bool { f.parked <- struct{}{}; <-f.resume; return true },
	})
	if err != nil {
		t.Fatal(err)
	}
	f.st = st
	f.core = server.New(txn.NewManager(st, nil), [][2]uint32{{2, 3}}, 0, nil)
	stats := new(Stats)
	return f, New(f, []Shard{{Table: 1, Pool: [2]uint32{2, 3}}}, buckets, stats), stats
}

func (f *fakeVerbs) eng() *store.Engine { return f.st.Shard(0) }

// settle runs the background verifier to quiescence: every complete write
// becomes durable.
func (f *fakeVerbs) settle() {
	for pi := 0; pi < 2; pi++ {
		for f.eng().BGBatch(nil, pi, 64) > 0 {
		}
	}
}

// serverPut writes key=val behind the client's back (another client's
// PUT): the location changes, no hint of this client learns of it.
func (f *fakeVerbs) serverPut(t *testing.T, key, val []byte) {
	t.Helper()
	f.tornPut(t, key, val)()
	f.settle()
}

// tornPut allocates key=val on the server but leaves the value in flight;
// the returned func lands it.
func (f *fakeVerbs) tornPut(t *testing.T, key, val []byte) (land func()) {
	t.Helper()
	r := f.eng().Put(nil, key, len(val), crc.Checksum(val))
	if r.Status != store.StatusOK {
		t.Fatalf("server put: status %d", r.Status)
	}
	land = func() { f.dev.Write(f.st.Layout().PoolBase(0, r.Pool)+int(r.Off)+kv.ValueOffset(len(key)), val) }
	f.inFlight = append(f.inFlight, land)
	return land
}

// finishCleaning lands every value still in flight and lets a parked
// cleaning run go to its end.
func (f *fakeVerbs) finishCleaning() {
	for _, land := range f.inFlight {
		land()
	}
	for {
		f.resume <- struct{}{}
		select {
		case <-f.parked:
		case <-f.cleaned:
			return
		}
	}
}

func (f *fakeVerbs) Now() uint64     { return 0 }
func (f *fakeVerbs) ChargeCRC(int)   {}
func (f *fakeVerbs) Release(*[]byte) {}

// Call hands the request to the shared server protocol core — the same
// handlers both real transports serve — and copies the payload out of the
// core's scratch, as crossing a wire would.
func (f *fakeVerbs) Call(req wire.Msg) (wire.Msg, *[]byte, error) {
	f.rpcs = append(f.rpcs, req.Type)
	resp, ok := f.core.Handle(nil, req, &f.sc)
	if !ok {
		resp.Status = wire.StError
	}
	resp.Value = bytes.Clone(resp.Value)
	return resp, nil, nil
}

// region resolves an rkey to a device window.
func (f *fakeVerbs) region(r Req) (base int, ok bool) {
	l := f.st.Layout()
	size := l.PoolSize
	switch r.RKey {
	case 1:
		base, size = l.TableBase(0), l.TableBytesAligned()
	case 2, 3:
		base = l.PoolBase(0, int(r.RKey)-2)
	default:
		return 0, false
	}
	return base + int(r.Off), int(r.Off)+len(r.Buf) <= size
}

func (f *fakeVerbs) ReadBurst(reqs []Req) error {
	f.bursts++
	for i := range reqs {
		if base, ok := f.region(reqs[i]); ok {
			f.dev.Read(base, reqs[i].Buf)
		} else {
			reqs[i].NAK = true
		}
		if f.onRead != nil {
			f.onRead(f.bursts, i, &reqs[i])
		}
	}
	return nil
}

func (f *fakeVerbs) WriteBurst(reqs []Req) error {
	for i := range reqs {
		base, ok := f.region(reqs[i])
		if !ok || f.nakWrites {
			reqs[i].NAK = true
			continue
		}
		f.dev.Write(base, reqs[i].Buf)
	}
	return nil
}

// reader runs one read of key through a core entry point.
type reader struct {
	name string
	read func(c *Core, key []byte) ([]byte, error)
}

// readers are the two entry points every optimistic-read scenario must
// hold for: the single-key Get and the GetBatch phase machine (the key
// rides with a second, absent one so the batch really is a batch).
var readers = []reader{
	{"Get", func(c *Core, key []byte) ([]byte, error) { return c.Get(nil, key) }},
	{"GetBatch", func(c *Core, key []byte) ([]byte, error) {
		keys := [][]byte{key, []byte("absent-rider")}
		vals, errs := make([][]byte, 2), make([]error, 2)
		if err := c.GetBatch(nil, keys, vals, errs); err != nil {
			return nil, err
		}
		if !errors.Is(errs[1], ErrNotFound) {
			return nil, fmt.Errorf("rider key: err = %v, want ErrNotFound", errs[1])
		}
		return vals[0], errs[0]
	}},
}

// rpcReads counts the read RPCs (TGet, TGetBatch) the fake has served.
func (f *fakeVerbs) rpcReads() int {
	n := 0
	for _, t := range f.rpcs {
		if t == wire.TGet || t == wire.TGetBatch {
			n++
		}
	}
	return n
}

// noObjectReadBeforeRPC is an onRead hook failing the test on any
// one-sided object READ posted before the first read RPC.
func noObjectReadBeforeRPC(t *testing.T, f *fakeVerbs) func(burst, idx int, r *Req) {
	return func(burst, idx int, r *Req) {
		if r.RKey != 1 && f.rpcReads() == 0 {
			t.Error("one-sided object READ posted before asking the server")
		}
	}
}

// TestOptimisticReadPaths drives every branch of the hybrid read —
// hints that went stale, refusals, torn bytes, probe exhaustion, the
// clustered empty-bucket rule — through both Get and GetBatch, checking
// the value served, the path counted, and whether the server was asked.
func TestOptimisticReadPaths(t *testing.T) {
	key, v1, v2 := []byte("the-key"), bytes.Repeat([]byte{1}, 100), bytes.Repeat([]byte{2}, 300)
	// warm leaves key=v1 durable on the server with a durable, slotted
	// hint in the client's cache.
	warm := func(t *testing.T, f *fakeVerbs, c *Core) {
		c.EnableHintCache(0)
		if err := c.Put(nil, key, v1); err != nil {
			t.Fatal(err)
		}
		f.settle()
		for i := 0; i < 2; i++ { // RPC read warms the location; pure read learns the slot
			c.hints.Invalidate(0, key)
			if _, err := c.Get(nil, key); err != nil {
				t.Fatal(err)
			}
		}
		if h, ok := c.hints.Peek(0, key); !ok || !h.Durable || h.Slot < 0 {
			t.Fatalf("warm-up left hint %+v (present %v), want durable and slotted", h, ok)
		}
	}
	type readCase struct {
		name  string
		setup func(t *testing.T, f *fakeVerbs, c *Core)
		want  []byte
		err   error
		rpcs  int   // read RPCs the scenario must cost
		delta Stats // counters the read itself must move
		// after checks what the read left behind.
		after func(t *testing.T, f *fakeVerbs, c *Core)
	}
	cases := []readCase{
		{
			name: "hinted hit",
			setup: func(t *testing.T, f *fakeVerbs, c *Core) {
				warm(t, f, c)
			},
			want: v1, delta: Stats{PureReads: 1, HintedReads: 1},
			after: func(t *testing.T, f *fakeVerbs, c *Core) {
				if f.bursts != 1 {
					t.Errorf("hinted hit cost %d READ bursts, want 1", f.bursts)
				}
			},
		},
		{
			name: "stale-slot hint",
			setup: func(t *testing.T, f *fakeVerbs, c *Core) {
				warm(t, f, c)
				h, _ := c.hints.Peek(0, key)
				h.Slot = (h.Slot + 3) % c.buckets // an empty bucket: the entry is not there
				c.hints.Insert(0, key, h)
			},
			want: v1, delta: Stats{PureReads: 1},
			after: func(t *testing.T, f *fakeVerbs, c *Core) {
				want := int(kv.HashKey(key) % uint64(c.buckets))
				if h, ok := c.hints.Peek(0, key); !ok || h.Slot != want {
					t.Errorf("probe walk re-learned hint %+v (present %v), want slot %d", h, ok, want)
				}
			},
		},
		{
			name: "moved-key hint",
			setup: func(t *testing.T, f *fakeVerbs, c *Core) {
				warm(t, f, c)
				f.serverPut(t, key, v2) // the speculative READ now fetches v1's stale bytes
			},
			// The slot hint held, so the probe walk was still skipped.
			want: v2, delta: Stats{PureReads: 1, HintedReads: 1},
			after: func(t *testing.T, f *fakeVerbs, c *Core) {
				if h, ok := c.hints.Peek(0, key); !ok || h.Len != kv.ObjectSize(len(key), len(v2)) {
					t.Errorf("hint after re-fetch = %+v (present %v), want v2's location", h, ok)
				}
			},
		},
		{
			name: "NAKed hinted pair walks the probe chain",
			setup: func(t *testing.T, f *fakeVerbs, c *Core) {
				warm(t, f, c)
				f.onRead = func(burst, idx int, r *Req) {
					if burst == 1 && idx == 1 {
						r.NAK = true
					}
				}
			},
			want: v1, delta: Stats{PureReads: 1},
		},
		{
			name: "NAK on a probe falls back",
			setup: func(t *testing.T, f *fakeVerbs, c *Core) {
				if err := c.Put(nil, key, v1); err != nil {
					t.Fatal(err)
				}
				f.settle()
				f.onRead = func(burst, idx int, r *Req) {
					if burst == 1 && idx == 0 {
						r.NAK = true
					}
				}
			},
			want: v1, rpcs: 1, delta: Stats{FallbackReads: 1},
		},
		{
			name: "undurable hint goes straight to RPC",
			setup: func(t *testing.T, f *fakeVerbs, c *Core) {
				c.EnableHintCache(0)
				if err := c.Put(nil, key, v1); err != nil { // grant noted, not yet durable
					t.Fatal(err)
				}
				home := uint64(kv.HashKey(key)%64) * kv.EntrySize
				f.onRead = func(burst, idx int, r *Req) {
					if f.rpcReads() == 0 && (r.RKey != 1 || r.Off == home) {
						t.Error("optimistic READ posted for a key last seen undurable")
					}
				}
			},
			want: v1, rpcs: 1, delta: Stats{FallbackReads: 1},
		},
		{
			name: "undurable object falls back",
			setup: func(t *testing.T, f *fakeVerbs, c *Core) {
				if err := c.Put(nil, key, v1); err != nil { // never settled: flag unset
					t.Fatal(err)
				}
			},
			want: v1, rpcs: 1, delta: Stats{FallbackReads: 1},
		},
		{
			name: "entry naming two locations goes to the server",
			setup: func(t *testing.T, f *fakeVerbs, c *Core) {
				// The key is migrated and staged, then the cleaner parks in
				// the compress stage on another key's value still in flight.
				f.tornPut(t, []byte("blocker"), v2)
				if err := c.Put(nil, key, v1); err != nil {
					t.Fatal(err)
				}
				f.st.StartCleaning()
				<-f.parked
				f.onRead = noObjectReadBeforeRPC(t, f)
			},
			want: v1, rpcs: 1, delta: Stats{FallbackReads: 1},
			after: func(t *testing.T, f *fakeVerbs, c *Core) { f.finishCleaning() },
		},
		{
			name: "pre-delete version named after a merge-stage re-PUT is never served",
			setup: func(t *testing.T, f *fakeVerbs, c *Core) {
				landFirst := f.tornPut(t, []byte("blocker"), v2)
				if err := c.Put(nil, key, v1); err != nil {
					t.Fatal(err)
				}
				f.st.StartCleaning()
				<-f.parked // compress stage: key migrated, blocker in flight
				if err := c.Delete(nil, key); err != nil {
					t.Fatal(err)
				}
				f.tornPut(t, []byte("blocker-2"), v2)
				landFirst()
				f.resume <- struct{}{}
				<-f.parked // merge stage: blocker-2 in flight
				if err := c.Put(nil, key, v2); err != nil {
					t.Fatal(err)
				}
				_, en, _ := f.eng().Table().Lookup(kv.HashKey(key))
				if off, _, _ := kv.UnpackLoc(en.Current()); en.Other() == 0 || f.eng().Pool(en.Mark()).Header(off).Seq >= en.CutSeq() {
					t.Fatalf("entry %+v: want its current location to name the pre-delete version", en)
				}
				f.onRead = noObjectReadBeforeRPC(t, f)
			},
			want: v2, rpcs: 1, delta: Stats{FallbackReads: 1},
			after: func(t *testing.T, f *fakeVerbs, c *Core) { f.finishCleaning() },
		},
		{
			name: "empty bucket, unclustered: absent without asking",
			want: nil, err: ErrNotFound,
		},
		{
			name: "empty bucket, clustered: only the owner may say absent",
			setup: func(t *testing.T, f *fakeVerbs, c *Core) {
				c.AdvanceEpoch(3)
			},
			want: nil, err: ErrNotFound, rpcs: 1, delta: Stats{FallbackReads: 1},
		},
	}
	// Torn bytes: the first object READ returns a header whose fields lie;
	// the fallback's READ (after the read RPC) sees the intact object.
	for _, torn := range []struct {
		name   string
		mangle func(obj []byte)
	}{
		{"magic zeroed", func(obj []byte) { binary.LittleEndian.PutUint32(obj[48:], 0) }},
		{"VLen overruns the object", func(obj []byte) { binary.LittleEndian.PutUint32(obj[40:], 1<<20) }},
		{"KLen overruns the object", func(obj []byte) { binary.LittleEndian.PutUint32(obj[36:], 1<<30) }},
		{"another key's bytes", func(obj []byte) { obj[kv.KeyOffset()] ^= 0xff }},
	} {
		torn := torn
		cases = append(cases, readCase{
			name: "torn object (" + torn.name + ") falls back",
			setup: func(t *testing.T, f *fakeVerbs, c *Core) {
				if err := c.Put(nil, key, v1); err != nil {
					t.Fatal(err)
				}
				f.settle()
				f.onRead = func(burst, idx int, r *Req) {
					if r.RKey != 1 && f.rpcReads() == 0 {
						torn.mangle(r.Buf)
					}
				}
			},
			want: v1, rpcs: 1, delta: Stats{FallbackReads: 1},
		})
	}
	for _, rd := range readers {
		for _, tc := range cases {
			t.Run(rd.name+"/"+tc.name, func(t *testing.T) {
				f, c, stats := newFake(t, 64)
				if tc.setup != nil {
					tc.setup(t, f, c)
				}
				before, rpcs0 := *stats, f.rpcReads()
				f.bursts = 0
				got, err := rd.read(c, key)
				if !errors.Is(err, tc.err) || (tc.err == nil && err != nil) {
					t.Fatalf("err = %v, want %v", err, tc.err)
				}
				if !bytes.Equal(got, tc.want) {
					t.Fatalf("read %d bytes %.8x, want %d bytes %.8x", len(got), got, len(tc.want), tc.want)
				}
				if n := f.rpcReads() - rpcs0; n != tc.rpcs {
					t.Errorf("read RPCs = %d, want %d", n, tc.rpcs)
				}
				d := Stats{
					PureReads:     stats.PureReads - before.PureReads,
					HintedReads:   stats.HintedReads - before.HintedReads,
					FallbackReads: stats.FallbackReads - before.FallbackReads,
					RPCReads:      stats.RPCReads - before.RPCReads,
				}
				if rd.name == "GetBatch" {
					// The absent rider resolves one-sidedly (unclustered)
					// or through the shared fallback RPC (clustered).
					if c.Epoch() != 0 {
						d.FallbackReads--
					}
				}
				if d != tc.delta {
					t.Errorf("path counters moved by %+v, want %+v", d, tc.delta)
				}
				if tc.after != nil {
					tc.after(t, f, c)
				}
			})
		}
	}
}

// TestProbeExhaustionFallsBack: a key displaced maxEntryProbes or more
// buckets from home is out of the client's reach; the walk gives up after
// exactly maxEntryProbes READs and the server, which probes the whole
// table, serves it.
func TestProbeExhaustionFallsBack(t *testing.T) {
	for _, rd := range readers {
		t.Run(rd.name, func(t *testing.T) {
			const buckets = 8
			f, c, stats := newFake(t, buckets)
			// Crowd one home bucket: the key inserted after maxEntryProbes
			// others sharing its home lands exactly that far from it.
			var far []byte
			for i, crowd := 0, 0; crowd <= maxEntryProbes; i++ {
				k := []byte(fmt.Sprintf("crowd-%d", i))
				if kv.HashKey(k)%buckets != 0 {
					continue
				}
				f.serverPut(t, k, []byte("v"))
				far = k
				crowd++
			}
			if r := f.eng().Get(nil, far); r.Slot != maxEntryProbes {
				t.Fatalf("crowding left the last key in slot %d, want %d", r.Slot, maxEntryProbes)
			}
			f.bursts = 0
			got, err := rd.read(c, far)
			if err != nil || string(got) != "v" {
				t.Fatalf("read = %q, %v; want v", got, err)
			}
			if stats.FallbackReads != 1 || stats.PureReads != 0 || f.rpcReads() != 1 {
				t.Errorf("fallbacks=%d pure=%d read RPCs=%d, want 1/0/1", stats.FallbackReads, stats.PureReads, f.rpcReads())
			}
			// maxEntryProbes entry rounds, then the granted object's fetch.
			if f.bursts != maxEntryProbes+1 {
				t.Errorf("%d READ bursts, want %d probes + 1 object fetch", f.bursts, maxEntryProbes)
			}
		})
	}
}

// TestGrantedLocationRefused: a refusal at a location the server itself
// just granted has no further fallback — it surfaces as ErrNAK, per op.
func TestGrantedLocationRefused(t *testing.T) {
	f, c, _ := newFake(t, 64)
	f.nakWrites = true
	if err := c.Put(nil, []byte("k"), []byte("v")); !errors.Is(err, ErrNAK) {
		t.Fatalf("Put with refused value write: err = %v, want ErrNAK", err)
	}
	keys := [][]byte{[]byte("a"), []byte("b")}
	errs := make([]error, 2)
	if err := c.PutBatch(nil, keys, [][]byte{[]byte("1"), []byte("2")}, errs); err != nil {
		t.Fatalf("PutBatch attempt failed whole: %v", err)
	}
	for i, err := range errs {
		if !errors.Is(err, ErrNAK) {
			t.Errorf("PutBatch op %d: err = %v, want ErrNAK", i, err)
		}
	}
	f.nakWrites = false
	if err := c.Put(nil, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	f.onRead = func(burst, idx int, r *Req) { r.NAK = r.RKey != 1 }
	if _, err := c.Get(nil, []byte("k")); !errors.Is(err, ErrNAK) {
		t.Errorf("Get with refused granted read: err = %v, want ErrNAK", err)
	}
}

// TestTxnCommitDropsHintsAndWarmsPredictor pins the post-commit rule both
// transports now share: a commit is a server-side write, so the keys'
// location hints are dropped and the read predictor treats them as just
// written.
func TestTxnCommitDropsHintsAndWarmsPredictor(t *testing.T) {
	f, c, stats := newFake(t, 64)
	c.EnableHintCache(0)
	c.EnableAdaptive()
	keys := [][]byte{[]byte("t1"), []byte("t2")}
	for _, k := range keys {
		f.serverPut(t, k, []byte("old"))
		c.hints.Insert(cluster.ShardFor(k, 1), k, hint.Entry{Slot: 1, Pool: 2, Len: 128, Durable: true})
	}
	id, err := c.TxnCommit(nil, keys, [][]byte{[]byte("new-1"), []byte("new-2")})
	if err != nil || id == 0 {
		t.Fatalf("TxnCommit = %d, %v", id, err)
	}
	for _, k := range keys {
		if _, ok := c.hints.Peek(0, k); ok {
			t.Errorf("hint for %s survived the commit", k)
		}
	}
	got, err := c.Get(nil, keys[0])
	if err != nil || string(got) != "new-1" {
		t.Fatalf("Get after commit = %q, %v", got, err)
	}
	if stats.AdaptivePreempts != 1 || f.bursts != 1 {
		t.Errorf("preempts=%d READ bursts=%d: the read of a just-committed key must skip the optimistic fetch (1 preempt, 1 granted fetch)", stats.AdaptivePreempts, f.bursts)
	}
	vals, errs := make([][]byte, 3), make([]error, 3)
	if err := c.TxnRead(nil, append(keys, []byte("t-absent")), vals, errs); err != nil {
		t.Fatal(err)
	}
	if string(vals[0]) != "new-1" || string(vals[1]) != "new-2" || !errors.Is(errs[2], ErrNotFound) {
		t.Errorf("TxnRead = %q %q / %v, want new-1 new-2 / not found", vals[0], vals[1], errs)
	}
}
