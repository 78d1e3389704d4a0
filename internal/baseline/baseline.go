// Package baseline implements the comparison systems of §5.3 on the same
// code base as eFactory (same NVM device, RNIC, hash tables, object layout
// and wire protocol), mirroring the paper's apples-to-apples methodology:
//
//   - SAW  — send-after-write remote durability (Douglas, SDC'15)
//   - IMM  — write_with_imm remote durability (Orion, FAST'19)
//   - Erda — client-active writes, client-side CRC verification on read
//   - Forca — client-active writes, server-side CRC + persist on read
//   - RPC  — classic server-copies-everything durable write
//   - CANP — client-active write with NO persistence guarantee (the
//     Figure 1 reference point)
//
// None of the baselines implement log cleaning or recovery; they exist to
// reproduce the paper's performance comparison and consistency-hazard
// demonstrations.
package baseline

import (
	"errors"

	"efactory/internal/kv"
	"efactory/internal/model"
	"efactory/internal/nvm"
	"efactory/internal/rnic"
	"efactory/internal/sim"
	"efactory/internal/wire"
)

// ErrNotFound is returned for absent keys.
var ErrNotFound = errors.New("baseline: key not found")

// ErrFull is returned when the data pool or table is exhausted.
var ErrFull = errors.New("baseline: server pool full")

// KV is the client interface every system (including eFactory) satisfies;
// the benchmark harness drives workloads through it.
type KV interface {
	Put(p *sim.Proc, key, value []byte) error
	Get(p *sim.Proc, key []byte) ([]byte, error)
}

// Config sizes a baseline server.
type Config struct {
	Buckets  int
	PoolSize int
	Workers  int
}

// DefaultConfig mirrors efactory.DefaultConfig for fair comparisons.
func DefaultConfig() Config {
	return Config{Buckets: 4096, PoolSize: 8 << 20, Workers: 4}
}

// Stats counts server-side events common to the baselines.
type Stats struct {
	Puts     int
	Gets     int
	Persists int // SAW persist requests / IMM completions handled
	Flushes  int // explicit durability operations
	Verifies int // server-side CRC verifications (Forca)
}

// pendingAlloc tracks an allocation whose metadata is published only after
// durability (SAW and IMM).
type pendingAlloc struct {
	keyHash uint64
	off     uint64
	size    int
	klen    int
	vlen    int
}

// node is the shared server scaffold: device, NIC, index, log pool,
// worker loop.
type node struct {
	env *sim.Env
	par *model.Params
	cfg Config

	nic  *rnic.NIC
	dev  *nvm.Memory
	srq  *sim.Queue[rnic.Message]
	pool *kv.Pool

	table *kv.Table     // nil when hops is used
	hops  *kv.Hopscotch // Erda only

	tableMR *rnic.MR
	poolMR  *rnic.MR

	// metaPool is Forca's extra object-metadata layer.
	metaPool *kv.Pool
	metaMR   *rnic.MR

	pending   map[uint32]*pendingAlloc
	nextToken uint32
	nextSeq   uint64

	Stats Stats
}

type tableKind int

const (
	linearTable tableKind = iota
	hopscotchTable
)

func newNode(env *sim.Env, par *model.Params, cfg Config, kind tableKind, withMeta bool, name string) *node {
	if cfg.Buckets <= 0 || cfg.PoolSize <= 0 || cfg.Workers <= 0 {
		panic("baseline: invalid config")
	}
	var tb int
	if kind == hopscotchTable {
		tb = kv.HopscotchBytes(cfg.Buckets)
	} else {
		tb = kv.TableBytes(cfg.Buckets)
	}
	tb = (tb + nvm.LineSize - 1) &^ (nvm.LineSize - 1)
	metaBytes := 0
	if withMeta {
		metaBytes = cfg.PoolSize / 8 // generous metadata region
	}
	dev := nvm.New(tb + metaBytes + cfg.PoolSize)
	n := &node{
		env: env, par: par, cfg: cfg, dev: dev,
		pending: make(map[uint32]*pendingAlloc),
	}
	n.nic = rnic.NewNIC(env, par, name)
	n.srq = n.nic.EnableSRQ()
	if kind == hopscotchTable {
		n.hops = kv.NewHopscotch(dev, 0, cfg.Buckets)
	} else {
		n.table = kv.NewTable(dev, 0, cfg.Buckets)
	}
	n.tableMR = n.nic.RegisterMR(dev, 0, tb)
	base := tb
	if withMeta {
		n.metaPool = kv.NewPool(dev, base, metaBytes)
		n.metaMR = n.nic.RegisterMR(dev, base, metaBytes)
		base += metaBytes
	}
	n.pool = kv.NewPool(dev, base, cfg.PoolSize)
	n.poolMR = n.nic.RegisterMR(dev, base, cfg.PoolSize)
	return n
}

// Device exposes the NVM device for crash tests.
func (n *node) Device() *nvm.Memory { return n.dev }

// NIC exposes the server NIC for crash tests.
func (n *node) NIC() *rnic.NIC { return n.nic }

// Stop shuts the server's workers down.
func (n *node) Stop() { n.srq.Close() }

func (n *node) seq() uint64 {
	n.nextSeq++
	return n.nextSeq
}

func (n *node) token() uint32 {
	n.nextToken++
	return n.nextToken
}

// handlerSet is what each system plugs into the shared worker loop.
type handlerSet struct {
	onMsg func(p *sim.Proc, from *rnic.Endpoint, m wire.Msg)
	onImm func(p *sim.Proc, from *rnic.Endpoint, imm uint32)
}

// startWorkers launches the request-processing threads. Baselines use the
// unbatched receive cost (single receive region, §6.1).
func (n *node) startWorkers(h handlerSet) {
	for i := 0; i < n.cfg.Workers; i++ {
		n.env.Go("baseline-worker", func(p *sim.Proc) {
			for {
				msg, ok := n.srq.Get(p)
				if !ok {
					return
				}
				if msg.IsImm {
					p.Sleep(n.par.ImmNotifyCost)
					if h.onImm != nil {
						h.onImm(p, msg.From, msg.Imm)
					}
					continue
				}
				p.Sleep(n.par.RecvCost)
				m, err := wire.Decode(msg.Data)
				if err != nil {
					continue
				}
				p.Sleep(n.par.DispatchCost)
				h.onMsg(p, msg.From, m)
			}
		})
	}
}

func (n *node) reply(p *sim.Proc, to *rnic.Endpoint, m wire.Msg) {
	p.Sleep(n.par.SendCost)
	_ = to.Send(p, m.Encode())
}

// attach wires a new client NIC to this server and returns the endpoint
// plus the rkeys a client needs.
func (n *node) attach(name string) *clientCore {
	cnic := rnic.NewNIC(n.env, n.par, name)
	ce, _ := rnic.Connect(cnic, n.nic)
	cc := &clientCore{
		env: n.env, par: n.par, ep: ce,
		tableRKey: n.tableMR.RKey(),
		poolRKey:  n.poolMR.RKey(),
		buckets:   n.cfg.Buckets,
	}
	if n.metaMR != nil {
		cc.metaRKey = n.metaMR.RKey()
	}
	return cc
}

// clientCore is the per-client state shared by every baseline client.
type clientCore struct {
	env       *sim.Env
	par       *model.Params
	ep        *rnic.Endpoint
	tableRKey uint32
	poolRKey  uint32
	metaRKey  uint32
	buckets   int
}

// rpc sends a request and waits for the response.
func (c *clientCore) rpc(p *sim.Proc, req wire.Msg) (wire.Msg, error) {
	if err := c.ep.Send(p, req.Encode()); err != nil {
		return wire.Msg{}, err
	}
	raw, ok := c.ep.Recv(p)
	if !ok {
		return wire.Msg{}, rnic.ErrCrashed
	}
	return wire.Decode(raw.Data)
}

// waitAck blocks until a message of the given type arrives (IMM acks).
func (c *clientCore) waitAck(p *sim.Proc, typ uint8) (wire.Msg, error) {
	for {
		raw, ok := c.ep.Recv(p)
		if !ok {
			return wire.Msg{}, rnic.ErrCrashed
		}
		m, err := wire.Decode(raw.Data)
		if err != nil {
			return wire.Msg{}, err
		}
		if m.Type == typ {
			return m, nil
		}
	}
}

// readEntry fetches hash entry bytes one-sidedly with linear probing,
// returning the matching entry. Shared by SAW/IMM/CANP clients.
func (c *clientCore) readEntry(p *sim.Proc, keyHash uint64) (kv.Entry, bool, error) {
	idx := int(keyHash % uint64(c.buckets))
	buf := make([]byte, kv.EntrySize)
	for probe := 0; probe < 4; probe++ {
		bucket := (idx + probe) % c.buckets
		if err := c.ep.Read(p, buf, c.tableRKey, bucket*kv.EntrySize); err != nil {
			return kv.Entry{}, false, err
		}
		e := kv.DecodeEntry(buf)
		if e.KeyHash == 0 {
			return kv.Entry{}, false, nil
		}
		if e.Free() {
			continue
		}
		if e.KeyHash == keyHash {
			return e, true, nil
		}
	}
	return kv.Entry{}, false, nil
}

// readObjectAt fetches a whole object one-sidedly and returns header+bytes.
func (c *clientCore) readObjectAt(p *sim.Proc, rkey uint32, off uint64, totalLen int) (kv.Header, []byte, error) {
	obj := make([]byte, totalLen)
	if err := c.ep.Read(p, obj, rkey, int(off)); err != nil {
		return kv.Header{}, nil, err
	}
	return kv.DecodeHeader(obj), obj, nil
}

// valueFrom extracts and copies the value bytes of a fetched object.
func valueFrom(h kv.Header, obj []byte, key []byte) ([]byte, bool) {
	if h.Magic != kv.Magic || h.KLen != len(key) {
		return nil, false
	}
	if string(obj[kv.KeyOffset():kv.KeyOffset()+h.KLen]) != string(key) {
		return nil, false
	}
	vo := kv.ValueOffset(h.KLen)
	if vo+h.VLen > len(obj) {
		return nil, false
	}
	return append([]byte(nil), obj[vo:vo+h.VLen]...), true
}

// allocObject appends header+key for a new object, chaining PrePtr within
// the single pool, and returns the offset and total size.
func (n *node) allocObject(key []byte, vlen int, crcv uint32, pre uint64, flags uint8) (uint64, int, bool) {
	size := kv.ObjectSize(len(key), vlen)
	h := kv.Header{
		PrePtr:    pre,
		Seq:       n.seq(),
		CreatedAt: uint64(n.env.Now()),
		CRC:       crcv,
		VLen:      vlen,
		Flags:     flags,
	}
	off, ok := n.pool.AppendObject(&h, key)
	if !ok {
		return 0, 0, false
	}
	return off, size, true
}

// chargeFlush charges flush time for n bytes and flushes them.
func (n *node) flushObject(p *sim.Proc, off uint64, klen, vlen int) {
	size := kv.ObjectSize(klen, vlen)
	p.Sleep(n.par.FlushTime(size))
	n.pool.FlushObject(off, klen, vlen)
	n.Stats.Flushes++
}
