package client

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"efactory/internal/crc"
	"efactory/internal/kv"
	"efactory/internal/nvm"
	"efactory/internal/server"
	"efactory/internal/store"
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

	rpcs        []uint8 // request types, in order
	bursts      int     // READ bursts posted
	writeBursts int     // WRITE bursts posted
	// onRead, when set, sees every READ after its bytes were fetched: burst
	// counts READ bursts from 1, idx is the request's position in it.
	onRead func(burst, idx int, r *Req)
	// nakWrites refuses every one-sided WRITE.
	nakWrites bool
	// onReply, when set, may rewrite every RPC reply before the client
	// sees it.
	onReply func(req wire.Msg, resp *wire.Msg)

	// A cleaning run parks on parked whenever a value it needs is still in
	// flight and continues on resume; cleaned closes when it ends.
	parked, resume, cleaned chan struct{}
	inFlight                []func() // lands each tornPut value
}

func newFake(t *testing.T, buckets int) (*fakeVerbs, *Core, *Stats) {
	t.Helper()
	return newFakeBudget(t, buckets, 0)
}

// newFakeBudget is newFake whose server announces, and whose client
// uses, an inline budget of budget bytes (see read).
func newFakeBudget(t *testing.T, buckets, budget int) (*fakeVerbs, *Core, *Stats) {
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
	f.core = server.New(st, [][2]uint32{{2, 3}}, nil, budget)
	stats := new(Stats)
	return f, New(f, []Shard{{Table: 1, Pool: [2]uint32{2, 3}}}, buckets, stats, budget), stats
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

// objectOf returns the bytes of the object key's entry currently names.
func (f *fakeVerbs) objectOf(key []byte) []byte {
	_, en, _ := f.eng().Table().Lookup(kv.HashKey(key))
	off, tlen, _ := kv.UnpackLoc(en.Current())
	obj := make([]byte, tlen)
	f.dev.Read(f.st.Layout().PoolBase(0, int(en.Mark()&1))+int(off), obj)
	return obj
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
	if f.onReply != nil {
		f.onReply(req, &resp)
	}
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
	f.writeBursts++
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
	// rider marks a reader whose key shares its batch with a second,
	// absent key, so its verbs are not the single-key read's.
	rider bool
	read  func(c *Core, key []byte) ([]byte, error)
}

// readers are the entry points every optimistic-read scenario must hold
// for: the single-key Get, GetBatch of that one key — the same protocol,
// so the same verbs — and GetBatch with the key riding beside a second,
// absent one so the batch really is a batch.
var readers = []reader{
	{"Get", false, func(c *Core, key []byte) ([]byte, error) { return c.Get(nil, key) }},
	{"GetBatch of one", false, func(c *Core, key []byte) ([]byte, error) {
		vals, errs := make([][]byte, 1), make([]error, 1)
		if err := c.GetBatch(nil, [][]byte{key}, vals, errs); err != nil {
			return nil, err
		}
		return vals[0], errs[0]
	}},
	{"GetBatch", true, func(c *Core, key []byte) ([]byte, error) {
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

// readRPCs returns the types of the read RPCs (TGet, TGetBatch) among the
// requests the fake has served since its from-th, in order.
func (f *fakeVerbs) readRPCs(from int) []uint8 {
	var ts []uint8
	for _, t := range f.rpcs[from:] {
		if t == wire.TGet || t == wire.TGetBatch {
			ts = append(ts, t)
		}
	}
	return ts
}

// rpcReads counts the read RPCs the fake has served.
func (f *fakeVerbs) rpcReads() int { return len(f.readRPCs(0)) }

// noObjectReadBeforeRPC is an onRead hook failing the test on any
// one-sided object READ posted before the first read RPC.
func noObjectReadBeforeRPC(t *testing.T, f *fakeVerbs) func(burst, idx int, r *Req) {
	return func(burst, idx int, r *Req) {
		if r.RKey != 1 && f.rpcReads() == 0 {
			t.Error("one-sided object READ posted before asking the server")
		}
	}
}

// slotted reports whether the client holds a hint for key that names its
// table slot.
func slotted(c *Core, key []byte) bool {
	h, ok := c.hints.Peek(0, kv.HashKey(key))
	return ok && h.Slot >= 0
}

// TestOptimisticReadPaths drives every branch of the hybrid read —
// hints that went stale or were dropped by the client's own writes,
// refusals, torn bytes, probe exhaustion, the clustered empty-bucket rule
// — through both Get and GetBatch, checking the value served, the path
// counted, and whether the server was asked.
func TestOptimisticReadPaths(t *testing.T) {
	key, v1, v2 := []byte("the-key"), bytes.Repeat([]byte{1}, 100), bytes.Repeat([]byte{2}, 300)
	// warm leaves key=v1 durable on the server with a slotted hint in the
	// client's cache, learned by the settled key's first (pure) read.
	warm := func(t *testing.T, f *fakeVerbs, c *Core) {
		c.EnableHintCache()
		if err := c.Put(nil, key, v1); err != nil {
			t.Fatal(err)
		}
		f.settle()
		if _, err := c.Get(nil, key); err != nil {
			t.Fatal(err)
		}
		if !slotted(c, key) {
			t.Fatal("warm-up read learned no slotted hint")
		}
	}
	type readCase struct {
		name  string
		setup func(t *testing.T, f *fakeVerbs, c *Core)
		want  []byte
		err   error
		// rpcs and bursts are the single-key read's verbs — the read RPCs
		// it sends, in order, and the one-sided READ bursts it posts — as
		// the paper's Figure 6 read posts them and the simulator charges
		// them to a Get.
		rpcs   []uint8
		bursts int
		delta  Stats // counters the read itself must move
		// budget is the inline budget the server announces and the client
		// uses; 0 is the paper's read, the simulator's.
		budget int
		// after checks what the read left behind.
		after func(t *testing.T, f *fakeVerbs, c *Core)
	}
	cases := []readCase{
		{
			name: "hinted hit",
			setup: func(t *testing.T, f *fakeVerbs, c *Core) {
				warm(t, f, c)
			},
			want: v1, bursts: 1, delta: Stats{PureReads: 1, HintedReads: 1},
		},
		{
			name: "stale-slot hint",
			setup: func(t *testing.T, f *fakeVerbs, c *Core) {
				warm(t, f, c)
				h, _ := c.hints.Peek(0, kv.HashKey(key))
				h.Slot = (h.Slot + 3) % c.buckets // an empty bucket: the entry is not there
				c.hints.Insert(0, kv.HashKey(key), h)
			},
			want: v1, bursts: 3, delta: Stats{PureReads: 1},
			after: func(t *testing.T, f *fakeVerbs, c *Core) {
				want := int(kv.HashKey(key) % uint64(c.buckets))
				if h, ok := c.hints.Peek(0, kv.HashKey(key)); !ok || h.Slot != want {
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
			want: v2, bursts: 2, delta: Stats{PureReads: 1, HintedReads: 1},
			after: func(t *testing.T, f *fakeVerbs, c *Core) {
				if h, ok := c.hints.Peek(0, kv.HashKey(key)); !ok || h.Len != kv.ObjectSize(len(key), len(v2)) {
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
			want: v1, bursts: 3, delta: Stats{PureReads: 1},
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
			want: v1, rpcs: []uint8{wire.TGet}, bursts: 2, delta: Stats{FallbackReads: 1},
		},
		{
			// The Put's hint names the object but no table slot, so the read
			// guesses the home bucket, where the entry is.
			name: "a settled Put is read one-sidedly, learning its hint",
			setup: func(t *testing.T, f *fakeVerbs, c *Core) {
				c.EnableHintCache()
				if err := c.Put(nil, key, v1); err != nil {
					t.Fatal(err)
				}
				if slotted(c, key) {
					t.Fatal("the Put's hint names a slot")
				}
				f.settle()
			},
			want: v1, bursts: 1, delta: Stats{PureReads: 1, HintedReads: 1},
			after: func(t *testing.T, f *fakeVerbs, c *Core) {
				if !slotted(c, key) {
					t.Error("the durable read learned no slotted hint")
				}
			},
		},
		{
			name: "a settled own Put is read in one burst",
			setup: func(t *testing.T, f *fakeVerbs, c *Core) {
				warm(t, f, c)
				if err := c.Put(nil, key, v2); err != nil {
					t.Fatal(err)
				}
				f.settle()
			},
			want: v2, bursts: 1, delta: Stats{PureReads: 1, HintedReads: 1},
			after: func(t *testing.T, f *fakeVerbs, c *Core) {
				if !slotted(c, key) {
					t.Error("the own write lost the key's slot")
				}
			},
		},
		{
			// The own-write hint names the new object exactly; its durable
			// flag is not set yet, so the server decides, and it serves v2.
			name: "an undurable own Put takes one burst, then the server",
			setup: func(t *testing.T, f *fakeVerbs, c *Core) {
				warm(t, f, c)
				if err := c.Put(nil, key, v2); err != nil {
					t.Fatal(err)
				}
			},
			want: v2, rpcs: []uint8{wire.TGet}, bursts: 2, delta: Stats{FallbackReads: 1},
		},
		{
			name: "a PutBatch followed by a GetBatch is one burst",
			setup: func(t *testing.T, f *fakeVerbs, c *Core) {
				c.EnableHintCache()
				errs := make([]error, 2)
				if err := c.PutBatch(nil, [][]byte{key, []byte("batch-mate")}, [][]byte{v2, v1}, errs); err != nil || errs[0] != nil || errs[1] != nil {
					t.Fatal(err, errs)
				}
				f.settle()
			},
			want: v2, bursts: 1, delta: Stats{PureReads: 1, HintedReads: 1},
			after: func(t *testing.T, f *fakeVerbs, c *Core) {
				f.bursts, f.rpcs = 0, nil
				vals, errs := make([][]byte, 2), make([]error, 2)
				if err := c.GetBatch(nil, [][]byte{key, []byte("batch-mate")}, vals, errs); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(vals[0], v2) || !bytes.Equal(vals[1], v1) || errs[0] != nil || errs[1] != nil {
					t.Fatalf("GetBatch = %.8x, %.8x / %v, %v", vals[0], vals[1], errs[0], errs[1])
				}
				if f.bursts != 1 || len(f.rpcs) != 0 {
					t.Errorf("GetBatch of the batch's keys: %d READ bursts and RPCs %v, want 1 and none", f.bursts, f.rpcs)
				}
			},
		},
		{
			name: "TxnCommit drops the hints of its keys",
			setup: func(t *testing.T, f *fakeVerbs, c *Core) {
				warm(t, f, c)
				if _, err := c.TxnCommit(nil, [][]byte{key}, [][]byte{v2}); err != nil {
					t.Fatal(err)
				}
				if _, ok := c.hints.Peek(0, kv.HashKey(key)); ok {
					t.Fatal("the hint survived the commit")
				}
				f.settle()
			},
			want: v2, bursts: 2, delta: Stats{PureReads: 1},
			after: func(t *testing.T, f *fakeVerbs, c *Core) {
				vals, errs := make([][]byte, 2), make([]error, 2)
				if err := c.TxnRead(nil, [][]byte{key, []byte("t-absent")}, vals, errs); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(vals[0], v2) || errs[0] != nil || !errors.Is(errs[1], ErrNotFound) {
					t.Errorf("TxnRead = %.8x, %v / %v; want the committed value and not found", vals[0], errs[0], errs[1])
				}
			},
		},
		{
			name: "undurable object falls back",
			setup: func(t *testing.T, f *fakeVerbs, c *Core) {
				if err := c.Put(nil, key, v1); err != nil { // never settled: flag unset
					t.Fatal(err)
				}
			},
			want: v1, rpcs: []uint8{wire.TGet}, bursts: 3, delta: Stats{FallbackReads: 1},
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
			want: v1, rpcs: []uint8{wire.TGet}, bursts: 2, delta: Stats{FallbackReads: 1},
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
			want: v2, rpcs: []uint8{wire.TGet}, bursts: 2, delta: Stats{FallbackReads: 1},
			after: func(t *testing.T, f *fakeVerbs, c *Core) { f.finishCleaning() },
		},
		{
			name: "empty bucket, unclustered: absent without asking",
			want: nil, err: ErrNotFound, bursts: 1,
		},
		{
			name: "empty bucket, clustered: only the owner may say absent",
			setup: func(t *testing.T, f *fakeVerbs, c *Core) {
				c.AdvanceEpoch(3)
			},
			want: nil, err: ErrNotFound, rpcs: []uint8{wire.TGet}, bursts: 1, delta: Stats{FallbackReads: 1},
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
			want: v1, rpcs: []uint8{wire.TGet}, bursts: 3, delta: Stats{FallbackReads: 1},
		})
	}
	// A recycled grant: the server granted key's durable object, but by the
	// time the READ lands a cleaning run has reused the location. The
	// fetched bytes must pass the optimistic read's object checks, and a
	// failure asks the server again rather than serving them or failing.
	for _, recycled := range []struct {
		name  string
		reuse func(f *fakeVerbs, obj []byte)
	}{
		{"another key's durable object", func(f *fakeVerbs, obj []byte) {
			copy(obj, f.objectOf([]byte("oth-key")))
		}},
		{"zeroed", func(f *fakeVerbs, obj []byte) { clear(obj) }},
	} {
		recycled := recycled
		cases = append(cases, readCase{
			name: "granted location now holds " + recycled.name + ": ask again",
			setup: func(t *testing.T, f *fakeVerbs, c *Core) {
				f.serverPut(t, []byte("oth-key"), bytes.Repeat([]byte{'B'}, len(v1)))
				if err := c.Put(nil, key, v1); err != nil { // unsettled: the read goes to the server
					t.Fatal(err)
				}
				f.onRead = func(burst, idx int, r *Req) {
					if r.RKey != 1 && f.rpcReads() == 1 {
						recycled.reuse(f, r.Buf)
					}
				}
			},
			want: v1, rpcs: []uint8{wire.TGet, wire.TGet}, bursts: 4, delta: Stats{FallbackReads: 1},
		})
	}
	// With a budget the read RPC's reply carries the value, so a read is at
	// most the hinted burst and one RPC, and nothing is READ after it.
	const budget = 1 << 10
	cases = append(cases, []readCase{
		{
			name: "budget: an unhinted key asks the server at once",
			setup: func(t *testing.T, f *fakeVerbs, c *Core) {
				c.EnableHintCache()
				f.serverPut(t, key, v1)
			},
			want: v1, rpcs: []uint8{wire.TGet}, delta: Stats{RPCReads: 1}, budget: budget,
			after: func(t *testing.T, f *fakeVerbs, c *Core) {
				if !slotted(c, key) {
					t.Error("the served value left no slotted hint")
				}
			},
		},
		{
			name: "budget: an absent key asks the server at once",
			want: nil, err: ErrNotFound, rpcs: []uint8{wire.TGet}, delta: Stats{RPCReads: 1}, budget: budget,
		},
		{
			name: "budget: a wrong slot asks the server",
			setup: func(t *testing.T, f *fakeVerbs, c *Core) {
				warm(t, f, c)
				h, _ := c.hints.Peek(0, kv.HashKey(key))
				h.Slot = (h.Slot + 3) % c.buckets
				c.hints.Insert(0, kv.HashKey(key), h)
			},
			want: v1, rpcs: []uint8{wire.TGet}, bursts: 1, delta: Stats{FallbackReads: 1}, budget: budget,
			after: func(t *testing.T, f *fakeVerbs, c *Core) {
				want := int(kv.HashKey(key) % uint64(c.buckets))
				if h, ok := c.hints.Peek(0, kv.HashKey(key)); !ok || h.Slot != want {
					t.Errorf("the server's reply re-learned hint %+v (present %v), want slot %d", h, ok, want)
				}
			},
		},
		{
			name: "budget: a NAKed hinted pair asks the server",
			setup: func(t *testing.T, f *fakeVerbs, c *Core) {
				warm(t, f, c)
				f.onRead = func(burst, idx int, r *Req) {
					if burst == 1 && idx == 1 {
						r.NAK = true
					}
				}
			},
			want: v1, rpcs: []uint8{wire.TGet}, bursts: 1, delta: Stats{FallbackReads: 1}, budget: budget,
		},
		{
			name: "budget: a moved key is re-read one-sidedly",
			setup: func(t *testing.T, f *fakeVerbs, c *Core) {
				warm(t, f, c)
				f.serverPut(t, key, v2)
			},
			want: v2, bursts: 2, delta: Stats{PureReads: 1, HintedReads: 1}, budget: budget,
		},
		{
			name: "budget: an undurable own Put is one burst and the server's value",
			setup: func(t *testing.T, f *fakeVerbs, c *Core) {
				warm(t, f, c)
				if err := c.Put(nil, key, v2); err != nil {
					t.Fatal(err)
				}
			},
			want: v2, rpcs: []uint8{wire.TGet}, bursts: 1, delta: Stats{FallbackReads: 1}, budget: budget,
		},
	}...)
	for _, rd := range readers {
		for _, tc := range cases {
			t.Run(rd.name+"/"+tc.name, func(t *testing.T) {
				f, c, stats := newFakeBudget(t, 64, tc.budget)
				if tc.setup != nil {
					tc.setup(t, f, c)
				}
				before, rpcs0 := *stats, len(f.rpcs)
				f.bursts = 0
				got, err := rd.read(c, key)
				if !errors.Is(err, tc.err) || (tc.err == nil && err != nil) {
					t.Fatalf("err = %v, want %v", err, tc.err)
				}
				if !bytes.Equal(got, tc.want) {
					t.Fatalf("read %d bytes %.8x, want %d bytes %.8x", len(got), got, len(tc.want), tc.want)
				}
				rpcs := f.readRPCs(rpcs0)
				switch {
				case rd.rider && tc.budget > 0:
					// The unhinted absent rider asks the server at once, so
					// the key's read shares that one RPC.
					if len(rpcs) != 1 || f.bursts != tc.bursts {
						t.Errorf("read RPCs %v and %d READ bursts, want 1 RPC and %d", rpcs, f.bursts, tc.bursts)
					}
				case rd.rider:
					// The rider may turn a TGet into a TGetBatch but not add
					// an ask, and its one probe rides the key's first burst.
					if len(rpcs) != len(tc.rpcs) || f.bursts != tc.bursts {
						t.Errorf("read RPCs %v and %d READ bursts, want %d RPCs and %d", rpcs, f.bursts, len(tc.rpcs), tc.bursts)
					}
				case !bytes.Equal(rpcs, tc.rpcs) || f.bursts != tc.bursts:
					t.Errorf("read RPCs %v and %d READ bursts, want %v and %d", rpcs, f.bursts, tc.rpcs, tc.bursts)
				}
				d := Stats{
					PureReads:     stats.PureReads - before.PureReads,
					HintedReads:   stats.HintedReads - before.HintedReads,
					FallbackReads: stats.FallbackReads - before.FallbackReads,
					RPCReads:      stats.RPCReads - before.RPCReads,
				}
				if rd.rider {
					// The absent rider resolves one-sidedly (unclustered)
					// or through the shared fallback RPC (clustered), or
					// with a budget goes to it at once.
					switch {
					case tc.budget > 0:
						d.RPCReads--
					case c.Epoch() != 0:
						d.FallbackReads--
					}
				}
				if want := len(tc.rpcs); !rd.rider && (stats.ReadRPCs-before.ReadRPCs != want || stats.ReadBursts-before.ReadBursts != tc.bursts) {
					t.Errorf("ReadRPCs and ReadBursts moved by %d and %d, want %d and %d",
						stats.ReadRPCs-before.ReadRPCs, stats.ReadBursts-before.ReadBursts, want, tc.bursts)
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

// TestPutInlineBudget pins the one PUT body's path choice. With the
// server's budget 0 — the simulator's — a Put or PutBatch is one
// allocation RPC and one WRITE burst. With a budget, no burst ever
// follows: values that fit it ride one RPC, a batch over it goes as one
// inline RPC per run that fits, and a single value over it still rides
// its own. Every value reads back either way.
func TestPutInlineBudget(t *testing.T) {
	keys := [][]byte{[]byte("inline-a"), []byte("inline-b")}
	vals := [][]byte{bytes.Repeat([]byte{'a'}, 20), bytes.Repeat([]byte{'b'}, 20)}
	for _, tc := range []struct {
		name   string
		budget int
		batch  bool
		rpcs   []uint8
		bursts int
	}{
		{"Put budget 0", 0, false, []uint8{wire.TPut}, 1},
		{"PutBatch budget 0", 0, true, []uint8{wire.TPutBatch}, 1},
		{"Put within budget", 20, false, []uint8{wire.TPut}, 0},
		{"PutBatch within budget", 40, true, []uint8{wire.TPutBatch}, 0},
		{"Put over budget", 19, false, []uint8{wire.TPut}, 0},
		{"PutBatch over budget", 39, true, []uint8{wire.TPutBatch, wire.TPutBatch}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, _, stats := newFake(t, 64)
			c := New(f, []Shard{{Table: 1, Pool: [2]uint32{2, 3}}}, 64, stats, tc.budget)
			n := 1
			if tc.batch {
				n = len(keys)
				errs := make([]error, len(keys))
				if err := c.PutBatch(nil, keys, vals, errs); err != nil || FirstErr(errs) != nil {
					t.Fatalf("PutBatch: %v %v", err, errs)
				}
			} else if err := c.Put(nil, keys[0], vals[0]); err != nil {
				t.Fatalf("Put: %v", err)
			}
			if !bytes.Equal(f.rpcs, tc.rpcs) || f.writeBursts != tc.bursts {
				t.Errorf("RPCs %v and %d WRITE bursts, want %v and %d", f.rpcs, f.writeBursts, tc.rpcs, tc.bursts)
			}
			f.settle()
			for i := range keys[:n] {
				if got, err := c.Get(nil, keys[i]); err != nil || !bytes.Equal(got, vals[i]) {
					t.Errorf("Get(%q) = %q, %v", keys[i], got, err)
				}
			}
		})
	}
}

// TestSettledHintedReadsLeaveCacheAlone: a hinted hit whose slot and
// location held re-inserts nothing — an Insert allocates the key string —
// so repeat reads of a settled key cost the cache one lookup each.
func TestSettledHintedReadsLeaveCacheAlone(t *testing.T) {
	for _, rd := range readers {
		t.Run(rd.name, func(t *testing.T) {
			f, c, stats := newFake(t, 64)
			c.EnableHintCache()
			key, val := []byte("settled"), []byte("value")
			if err := c.Put(nil, key, val); err != nil {
				t.Fatal(err)
			}
			f.settle()
			if _, err := rd.read(c, key); err != nil { // learns the hint
				t.Fatal(err)
			}
			inserts := c.hints.Stats().Inserts
			for i := 0; i < 100; i++ {
				if got, err := rd.read(c, key); err != nil || !bytes.Equal(got, val) {
					t.Fatalf("read %d = %q, %v", i, got, err)
				}
			}
			if d := c.hints.Stats().Inserts - inserts; d != 0 {
				t.Errorf("100 hinted reads moved Inserts by %d, want 0", d)
			}
			// The learning read is hinted too: the Put's hint named the
			// object, and the read learned the slot it guessed.
			if stats.HintedReads != 101 {
				t.Errorf("HintedReads = %d, want 101", stats.HintedReads)
			}
		})
	}
}

// keysSharingHome returns two keys with one home bucket among buckets.
func keysSharingHome(buckets int) (a, b []byte) {
	home := map[uint64][]byte{}
	for i := 0; ; i++ {
		k := []byte(fmt.Sprintf("cell-%d", i))
		h := kv.HashKey(k) % uint64(buckets)
		if prev, ok := home[h]; ok {
			return prev, k
		}
		home[h] = k
	}
}

// TestSharedCacheSlotAlternates: two keys with one home bucket share one
// cache cell. Written and read alternately — settled or not, interleaved
// or each read right after its write — every read returns that key's own
// latest value, and each write or read that learns one key's location
// displaces the other's hint, counted in Evictions.
func TestSharedCacheSlotAlternates(t *testing.T) {
	for _, rd := range readers {
		t.Run(rd.name, func(t *testing.T) {
			const buckets = 8
			f, c, _ := newFake(t, buckets)
			c.EnableHintCache()
			a, b := keysSharingHome(buckets)
			latest := map[string][]byte{}
			put := func(k []byte, round int) {
				v := []byte(fmt.Sprintf("%s=%d", k, round))
				if err := c.Put(nil, k, v); err != nil {
					t.Fatal(err)
				}
				latest[string(k)] = v
			}
			get := func(k []byte) {
				if got, err := rd.read(c, k); err != nil || !bytes.Equal(got, latest[string(k)]) {
					t.Fatalf("read %s = %q, %v; want %q", k, got, err, latest[string(k)])
				}
			}
			for round := 0; round < 8; round++ {
				if round%2 == 0 {
					put(a, round)
					put(b, round)
					get(a)
					get(b)
				} else {
					put(a, round)
					get(a)
					put(b, round)
					get(b)
				}
				if round%4 < 2 {
					f.settle()
				}
			}
			// Every insert but the first finds the other key's hint in the
			// cell: 2 writes + 2 learning reads per interleaved round, and 2
			// writes per alternating round, whose reads hit and learn only
			// their slot.
			st := c.hints.Stats()
			if want := uint64(4*4 + 2*4 - 1); st.Evictions != want {
				t.Errorf("Evictions = %d, want %d (%+v)", st.Evictions, want, st)
			}
		})
	}
}

// TestKeyHashCollisionNeverServed: the cache knows a key by its 64-bit
// hash alone. A second key whose hash collides with a cached key's — built
// here by serving the first key's hint under the second key's hash and
// rewriting the fetched entry's hash to match — passes the entry check,
// and the object's key check refuses it: the read drops the hint and asks
// the server, which says the second key is absent.
func TestKeyHashCollisionNeverServed(t *testing.T) {
	for _, rd := range readers {
		t.Run(rd.name, func(t *testing.T) {
			f, c, stats := newFake(t, 64)
			c.EnableHintCache()
			owner, other := []byte("owner"), []byte("collider")
			if err := c.Put(nil, owner, []byte("owner's value")); err != nil {
				t.Fatal(err)
			}
			f.settle()
			if _, err := c.Get(nil, owner); err != nil {
				t.Fatal(err)
			}
			h, ok := c.hints.Peek(0, kv.HashKey(owner))
			if !ok || h.Slot < 0 {
				t.Fatalf("owner's hint %+v (present %v), want a slotted hint", h, ok)
			}
			collided := kv.HashKey(other)
			c.hints.Insert(0, collided, h)
			f.onRead = func(burst, idx int, r *Req) {
				if r.RKey == 1 && r.Off == uint64(h.Slot*kv.EntrySize) {
					binary.LittleEndian.PutUint64(r.Buf, collided)
				}
			}
			before, rpcs0 := *stats, len(f.rpcs)
			if got, err := rd.read(c, other); !errors.Is(err, ErrNotFound) {
				t.Fatalf("read of the colliding key = %q, %v; want ErrNotFound", got, err)
			}
			if stats.PureReads != before.PureReads || len(f.readRPCs(rpcs0)) != 1 {
				t.Errorf("pure reads +%d, read RPCs %v; want the server asked once", stats.PureReads-before.PureReads, f.readRPCs(rpcs0))
			}
			if _, ok := c.hints.Peek(0, collided); ok {
				t.Error("the colliding hint survived the object check")
			}
		})
	}
}

// TestEpochAdvanceMissesOlderHints: after the client's epoch advances,
// every hint learned by a read or a write before it misses, and the read
// walks the probe chain again.
func TestEpochAdvanceMissesOlderHints(t *testing.T) {
	for _, rd := range readers {
		t.Run(rd.name, func(t *testing.T) {
			f, c, stats := newFake(t, 64)
			c.EnableHintCache()
			keys := [][]byte{[]byte("read-key"), []byte("written-key")}
			for _, k := range keys {
				if err := c.Put(nil, k, k); err != nil {
					t.Fatal(err)
				}
			}
			f.settle()
			if _, err := c.Get(nil, keys[0]); err != nil { // a learned, slotted hint
				t.Fatal(err)
			}
			c.AdvanceEpoch(2)
			for _, k := range keys {
				before := *stats
				misses := c.hints.Stats().Misses
				if got, err := rd.read(c, k); err != nil || !bytes.Equal(got, k) {
					t.Fatalf("read %s = %q, %v", k, got, err)
				}
				if stats.HintedReads != before.HintedReads || stats.PureReads != before.PureReads+1 {
					t.Errorf("read %s: hinted +%d, pure +%d; want a probe walk", k, stats.HintedReads-before.HintedReads, stats.PureReads-before.PureReads)
				}
				if c.hints.Stats().Misses == misses {
					t.Errorf("read %s: the older hint did not miss", k)
				}
			}
		})
	}
}

// parentTxnVerbs answers a TTxnCommit the way servers did while commit
// replies carried a payload: the status and the id in Off, plus a u32
// count and one status byte per op, each equal to the overall status.
type parentTxnVerbs struct{ *fakeVerbs }

func (v parentTxnVerbs) Call(req wire.Msg) (wire.Msg, *[]byte, error) {
	resp, buf, err := v.fakeVerbs.Call(req)
	if req.Type == wire.TTxnCommit {
		ops, _ := wire.DecodeTxnOpsInto(req.Value, nil)
		resp.Value = binary.LittleEndian.AppendUint32(nil, uint32(len(ops)))
		for range ops {
			resp.Value = append(resp.Value, resp.Status)
		}
	}
	return resp, buf, err
}

// TestTxnCommitIgnoresStatusPayload pins interoperation with a server
// that still sends per-op commit statuses: the client reads the status
// and the id, and the commit succeeds as it would without the payload.
func TestTxnCommitIgnoresStatusPayload(t *testing.T) {
	f, _, stats := newFake(t, 64)
	c := New(parentTxnVerbs{f}, []Shard{{Table: 1, Pool: [2]uint32{2, 3}}}, 64, stats, 0)
	keys := [][]byte{[]byte("left"), []byte("right")}
	vals := [][]byte{[]byte("v-left"), []byte("v-right")}
	id, err := c.TxnCommit(nil, keys, vals)
	if err != nil || id == 0 {
		t.Fatalf("commit against a payload-carrying reply: id %d, %v", id, err)
	}
	for i, key := range keys {
		if got, err := c.Get(nil, key); err != nil || !bytes.Equal(got, vals[i]) {
			t.Fatalf("%s after commit: %q, %v", key, got, err)
		}
	}
}

// TestReadBudgetBounds: a reply carries the values that fit the budget
// and bare grants for the rest, whose objects the client READs
// one-sidedly in one burst after the RPC — as a Get of a value over the
// budget does.
func TestReadBudgetBounds(t *testing.T) {
	const budget = 250
	f, c, stats := newFakeBudget(t, 64, budget)
	keys := [][]byte{[]byte("b-0"), []byte("b-1"), []byte("b-2"), []byte("b-3")}
	for i, k := range keys {
		f.serverPut(t, k, bytes.Repeat([]byte{byte('a' + i)}, 100))
	}
	f.onRead = func(burst, idx int, r *Req) {
		if f.rpcReads() != 1 {
			t.Errorf("READ %d of burst %d posted before the read RPC", idx, burst)
		}
	}
	vals, errs := make([][]byte, len(keys)), make([]error, len(keys))
	if err := c.GetBatch(nil, keys, vals, errs); err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if errs[i] != nil || !bytes.Equal(vals[i], bytes.Repeat([]byte{byte('a' + i)}, 100)) {
			t.Errorf("key %d: %.8x, %v", i, vals[i], errs[i])
		}
	}
	// Two values fit 250 bytes; the other two keys' objects ride one burst.
	if f.rpcReads() != 1 || f.bursts != 1 || stats.ReadRPCs != 1 || stats.ReadBursts != 1 {
		t.Errorf("%d read RPCs and %d READ bursts (counted %d and %d), want 1 and 1",
			f.rpcReads(), f.bursts, stats.ReadRPCs, stats.ReadBursts)
	}

	f2, c2, _ := newFakeBudget(t, 64, 50)
	big := bytes.Repeat([]byte{'z'}, 100)
	f2.serverPut(t, keys[0], big)
	if got, err := c2.Get(nil, keys[0]); err != nil || !bytes.Equal(got, big) {
		t.Fatalf("Get over the budget = %.8x, %v", got, err)
	}
	if f2.rpcReads() != 1 || f2.bursts != 1 {
		t.Errorf("Get over the budget: %d read RPCs and %d READ bursts, want 1 and 1", f2.rpcReads(), f2.bursts)
	}

	// An empty value is carried, not left to a READ.
	f2.serverPut(t, keys[1], nil)
	f2.bursts = 0
	if got, err := c2.Get(nil, keys[1]); err != nil || len(got) != 0 || f2.bursts != 0 {
		t.Errorf("Get of an empty value = %q, %v after %d READ bursts, want no burst", got, err, f2.bursts)
	}
}

// TestMalformedInlineReplyRefused: a read reply whose values are cut
// short, run past the payload, exceed the ask's budget, disagree with
// their grants, or come unasked fails the read — no key is served a value.
func TestMalformedInlineReplyRefused(t *testing.T) {
	keys := [][]byte{[]byte("m-0"), []byte("m-1")}
	val := bytes.Repeat([]byte{'v'}, 100)
	// regrant re-encodes a TGetBatch reply after edit changed its grants.
	regrant := func(edit func(gs []wire.GetGrant)) func(req wire.Msg, resp *wire.Msg) {
		return func(req wire.Msg, resp *wire.Msg) {
			gs, err := wire.DecodeGetGrantsInto(resp.Value, nil, resp.Len != 0)
			if err != nil {
				panic(err)
			}
			edit(gs)
			resp.Value = wire.AppendGetGrants(nil, gs, resp.Len != 0)
		}
	}
	for _, tc := range []struct {
		name   string
		budget int
		batch  bool
		mangle func(req wire.Msg, resp *wire.Msg)
	}{
		{"batch payload cut short", 1 << 10, true, func(req wire.Msg, resp *wire.Msg) { resp.Value = resp.Value[:len(resp.Value)-1] }},
		{"batch payload overlong", 1 << 10, true, func(req wire.Msg, resp *wire.Msg) { resp.Value = append(resp.Value, 0) }},
		{"batch budget over the ask", 1 << 10, true, func(req wire.Msg, resp *wire.Msg) { resp.Len = req.Len + 1 }},
		{"batch values over the ask", 150, true, regrant(func(gs []wire.GetGrant) {
			for i := range gs {
				gs[i].Flags |= wire.GrantValue
				gs[i].Value = val
			}
		})},
		{"batch value shorter than its object", 1 << 10, true, regrant(func(gs []wire.GetGrant) { gs[1].Value = gs[1].Value[:30] })},
		{"batch value under another key's length", 1 << 10, true, regrant(func(gs []wire.GetGrant) { gs[0].KLen++ })},
		{"get value longer than its object", 1 << 10, false, func(req wire.Msg, resp *wire.Msg) {
			resp.Value = append(resp.Value, bytes.Repeat([]byte{'x'}, 64)...)
		}},
		{"get value over the ask", 1 << 10, false, func(req wire.Msg, resp *wire.Msg) {
			resp.Value = bytes.Repeat([]byte{'v'}, int(req.Len)+1)
		}},
		{"get value unasked", 0, false, func(req wire.Msg, resp *wire.Msg) {
			resp.Note, resp.Value = wire.NoteValue, val
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, c, _ := newFakeBudget(t, 64, tc.budget)
			for _, k := range keys {
				f.serverPut(t, k, val)
			}
			f.onReply = tc.mangle
			n := 1
			if tc.batch {
				n = len(keys)
			}
			// Without the one-sided path every key asks the server, budget
			// or not.
			c.SetHybridRead(false)
			vals, errs := make([][]byte, n), make([]error, n)
			if c.GetBatch(nil, keys[:n], vals, errs) == nil {
				t.Fatal("the read succeeded")
			}
			for i := range vals {
				if vals[i] != nil || errs[i] == nil {
					t.Errorf("key %d served %d bytes, err %v", i, len(vals[i]), errs[i])
				}
			}
		})
	}
}
