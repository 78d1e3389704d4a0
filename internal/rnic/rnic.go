// Package rnic implements a software RDMA NIC over the discrete-event
// fabric: memory regions with rkeys, connected endpoints, and the verbs the
// paper's systems are built from — one-sided READ and WRITE, the two-sided
// SEND/RECV pair, and WRITE_WITH_IMM.
//
// Semantics follow real RDMA in the two ways that matter for remote crash
// consistency (paper §2, §3):
//
//  1. A WRITE completion at the requester means the data reached the
//     responder's NIC/cache domain, NOT that it is durable: the DMA target
//     is the nvm.Device's volatile overlay (the DDIO path), and only an
//     explicit Flush makes it persistent.
//  2. One-sided verbs never involve the responder's CPU. Only SEND and the
//     immediate notification of WRITE_WITH_IMM enqueue work for the
//     responder's processes.
//
// Crashes are first-class: NIC.Crash truncates in-flight DMA at a cache
// line boundary proportional to how long the transfer had been in flight,
// which produces the partially-written objects the paper's CRC machinery
// must detect.
//
// One simplification relative to RC queue pairs: messages in flight are
// jittered independently, so two SENDs posted back-to-back by different
// processes may arrive reordered. The protocols built on this package
// never have more than one outstanding request per connection (clients
// block on each verb; a doorbell-batched WriteBatch chain counts as one
// outstanding request), so per-QP FIFO ordering is preserved where it
// matters.
package rnic

import (
	"errors"
	"fmt"
	"time"

	"efactory/internal/model"
	"efactory/internal/nvm"
	"efactory/internal/sim"
)

// ErrCrashed is returned by verbs targeting a crashed NIC.
var ErrCrashed = errors.New("rnic: remote NIC crashed")

// ErrBounds is returned when a one-sided access falls outside the MR.
var ErrBounds = errors.New("rnic: access outside memory region")

// MR is a registered memory region: a window onto an nvm.Device that remote
// peers can access one-sidedly when they hold its rkey.
type MR struct {
	nic  *NIC
	dev  nvm.Device
	rkey uint32
	base int // offset of the window within dev
	size int
}

// RKey returns the remote key identifying this region.
func (m *MR) RKey() uint32 { return m.rkey }

// Size returns the window length in bytes.
func (m *MR) Size() int { return m.size }

// Device returns the backing device (for server-local access).
func (m *MR) Device() nvm.Device { return m.dev }

// Message is a unit delivered to a receive queue: either a SEND payload or
// a WRITE_WITH_IMM notification.
type Message struct {
	// Data is the SEND payload; nil for pure immediate notifications.
	Data []byte
	// Imm is the 32-bit immediate value (WRITE_WITH_IMM only).
	Imm uint32
	// IsImm distinguishes an immediate notification from a SEND.
	IsImm bool
	// From is the local endpoint of the connection the message arrived
	// on; replies go out through it.
	From *Endpoint
}

// NIC is one RDMA-capable network interface attached to the simulated
// fabric. Servers register MRs on it and (optionally) share one receive
// queue across all connections.
type NIC struct {
	env      *sim.Env
	par      *model.Params
	name     string
	mrs      map[uint32]*MR
	nextRKey uint32
	srq      *sim.Queue[Message] // if non-nil, all connections deliver here
	crashed  bool
	inflight map[*dmaOp]struct{}
}

type dmaOp struct {
	mr    *MR
	off   int
	data  []byte
	start time.Duration
	end   time.Duration
}

// NewNIC attaches a new NIC with the given debug name to the fabric.
func NewNIC(env *sim.Env, par *model.Params, name string) *NIC {
	return &NIC{
		env:      env,
		par:      par,
		name:     name,
		mrs:      make(map[uint32]*MR),
		nextRKey: 1,
		inflight: make(map[*dmaOp]struct{}),
	}
}

// Name returns the NIC's debug name.
func (n *NIC) Name() string { return n.name }

// RegisterMR registers the window [base, base+size) of dev and returns the
// region. The returned rkey is what clients use to address it.
func (n *NIC) RegisterMR(dev nvm.Device, base, size int) *MR {
	if base < 0 || size <= 0 || base+size > dev.Size() {
		panic(fmt.Sprintf("rnic: MR [%d, %d) outside device of size %d", base, base+size, dev.Size()))
	}
	mr := &MR{nic: n, dev: dev, rkey: n.nextRKey, base: base, size: size}
	n.nextRKey++
	n.mrs[mr.rkey] = mr
	return mr
}

// InvalidateMR removes a region (used when a log-cleaning epoch retires the
// old data pool).
func (n *NIC) InvalidateMR(mr *MR) { delete(n.mrs, mr.rkey) }

// EnableSRQ makes all connections to this NIC deliver messages into one
// shared receive queue (how the paper's server consumes requests from many
// clients) and returns that queue.
func (n *NIC) EnableSRQ() *sim.Queue[Message] {
	if n.srq == nil {
		n.srq = sim.NewQueue[Message](n.env)
	}
	return n.srq
}

// Crashed reports whether the NIC is down.
func (n *NIC) Crashed() bool { return n.crashed }

// Crash takes the NIC down. In-flight inbound DMA transfers are truncated
// at a cache-line boundary proportional to their progress and materialized
// into the target device's volatile domain — the torn-write behaviour the
// paper's designs must recover from. (Call the device's own Crash
// afterwards to apply the cache-eviction model.)
func (n *NIC) Crash() {
	if n.crashed {
		return
	}
	n.crashed = true
	now := n.env.Now()
	for op := range n.inflight {
		frac := 0.0
		if op.end > op.start {
			frac = float64(now-op.start) / float64(op.end-op.start)
		}
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		nbytes := int(frac * float64(len(op.data)))
		// PCIe delivers in order; truncate at a cache-line boundary.
		nbytes -= (op.mr.base + op.off + nbytes) % nvm.LineSize
		if nbytes > 0 {
			op.mr.dev.Write(op.mr.base+op.off, op.data[:nbytes])
		}
	}
	n.inflight = make(map[*dmaOp]struct{})
	if n.srq != nil {
		n.srq.Close()
	}
}

// Restart brings a crashed NIC back up with no registered regions (the
// recovering server re-registers its pools, as at initialization).
func (n *NIC) Restart() {
	n.crashed = false
	n.mrs = make(map[uint32]*MR)
	n.srq = nil
}

func (n *NIC) lookup(rkey uint32, off, length int) (*MR, error) {
	mr, ok := n.mrs[rkey]
	if !ok {
		return nil, fmt.Errorf("%w: unknown rkey %d", ErrBounds, rkey)
	}
	if off < 0 || length < 0 || off+length > mr.size {
		return nil, fmt.Errorf("%w: [%d, %d) in MR of size %d", ErrBounds, off, off+length, mr.size)
	}
	return mr, nil
}

// Endpoint is one end of a connected queue pair. All blocking verbs must be
// called from the simulated process that owns the endpoint.
type Endpoint struct {
	nic   *NIC // local NIC
	peer  *Endpoint
	recvq *sim.Queue[Message]
	env   *sim.Env
	par   *model.Params
}

// Connect wires a queue pair between two NICs and returns the two ends.
func Connect(a, b *NIC) (ea, eb *Endpoint) {
	env, par := a.env, a.par
	ea = &Endpoint{nic: a, env: env, par: par, recvq: sim.NewQueue[Message](env)}
	eb = &Endpoint{nic: b, env: env, par: par, recvq: sim.NewQueue[Message](env)}
	ea.peer, eb.peer = eb, ea
	return ea, eb
}

// oneWay returns the one-way delivery latency for n payload bytes with the
// model's jitter applied, drawn from the environment's seeded PRNG.
func (e *Endpoint) oneWay(n int) time.Duration {
	d := e.par.OneWay(n)
	if e.par.JitterFrac > 0 {
		u := e.env.Rand().Float64()*2 - 1 // [-1, 1)
		d = time.Duration(float64(d) * (1 + e.par.JitterFrac*u))
	}
	return d
}

// RecvQueue returns the queue this endpoint's incoming messages land on
// (the NIC's SRQ if enabled, else the endpoint's private queue).
func (e *Endpoint) RecvQueue() *sim.Queue[Message] {
	if e.nic.srq != nil {
		return e.nic.srq
	}
	return e.recvq
}

// Recv blocks until a message arrives on this endpoint.
func (e *Endpoint) Recv(p *sim.Proc) (Message, bool) {
	return e.RecvQueue().Get(p)
}

// deliver places msg on this endpoint's receive queue (SRQ-aware).
func (e *Endpoint) deliver(msg Message) {
	if e.nic.crashed {
		return // messages to a dead NIC vanish
	}
	e.RecvQueue().Put(msg)
}

// Send transmits a SEND message carrying data to the peer. It charges the
// caller the post cost and returns once the local send completion would be
// polled; delivery happens asynchronously one-way-delay later.
func (e *Endpoint) Send(p *sim.Proc, data []byte) error {
	if e.peer.nic.crashed {
		return ErrCrashed
	}
	p.Sleep(e.par.PostCost)
	buf := append([]byte(nil), data...)
	peer := e.peer
	e.env.After(e.oneWay(len(buf)), func() {
		peer.deliver(Message{Data: buf, From: peer})
	})
	return nil
}

// Read performs a one-sided RDMA READ of len(dst) bytes from (rkey, off) in
// the peer NIC's registered memory, blocking until completion.
func (e *Endpoint) Read(p *sim.Proc, dst []byte, rkey uint32, off int) error {
	p.Sleep(e.par.PostCost)
	p.Sleep(e.oneWay(0)) // request reaches responder NIC
	if e.peer.nic.crashed {
		return ErrCrashed
	}
	mr, err := e.peer.nic.lookup(rkey, off, len(dst))
	if err != nil {
		return err
	}
	mr.dev.Read(mr.base+off, dst) // DMA from the coherent view
	p.Sleep(e.oneWay(len(dst)))
	if e.peer.nic.crashed {
		// The response raced a crash; treat as failed.
		return ErrCrashed
	}
	return nil
}

// Write performs a one-sided RDMA WRITE of src to (rkey, off), blocking
// until the requester-side completion. Completion means the data reached
// the responder's cache domain — NOT durability.
func (e *Endpoint) Write(p *sim.Proc, src []byte, rkey uint32, off int) error {
	_, err := e.write(p, src, rkey, off, false, 0)
	return err
}

// WriteImm is Write plus a 32-bit immediate that is delivered to the peer's
// receive queue when the data arrives, making the responder CPU aware of
// the transfer (the IMM scheme of §5.3.2).
func (e *Endpoint) WriteImm(p *sim.Proc, src []byte, rkey uint32, off int, imm uint32) error {
	_, err := e.write(p, src, rkey, off, true, imm)
	return err
}

// WriteReq is one WRITE of a doorbell-batched chain.
type WriteReq struct {
	Src  []byte
	RKey uint32
	Off  int
}

// WriteBatch posts len(reqs) WRITEs as one doorbell-batched chain and
// blocks until the chain completes: the WQEs are built and the doorbell
// rung once (PostCost + (n-1)*PostCostDoorbell), the payloads serialize
// back-to-back on the link, and the requester waits for one coalesced
// completion round instead of one per WRITE. Completion still means the
// data reached the responder's cache domain, not durability.
//
// Crash truncation applies per transfer, each with its own serialization
// window, so a crash mid-batch leaves a prefix of complete objects, at
// most one torn object, and untouched tails — the same image a chain of
// individually posted WRITEs in flight would leave.
func (e *Endpoint) WriteBatch(p *sim.Proc, reqs []WriteReq) error {
	if len(reqs) == 0 {
		return nil
	}
	if len(reqs) == 1 {
		return e.Write(p, reqs[0].Src, reqs[0].RKey, reqs[0].Off)
	}
	if e.peer.nic.crashed {
		return ErrCrashed
	}
	// Resolve and bounds-check every target before posting anything, like
	// a real NIC validating the WQE chain before ringing the doorbell.
	mrs := make([]*MR, len(reqs))
	for i, r := range reqs {
		mr, err := e.peer.nic.lookup(r.RKey, r.Off, len(r.Src))
		if err != nil {
			return err
		}
		mrs[i] = mr
	}
	p.Sleep(e.par.PostCost + time.Duration(len(reqs)-1)*e.par.PostCostDoorbell)
	base := e.env.Now()
	ops := make([]*dmaOp, len(reqs))
	cum := 0
	for i, r := range reqs {
		start := base + e.par.Serialize(cum)
		cum += len(r.Src)
		op := &dmaOp{
			mr:    mrs[i],
			off:   r.Off,
			data:  append([]byte(nil), r.Src...),
			start: start,
			end:   base + e.par.OneWay(cum),
		}
		ops[i] = op
		e.peer.nic.inflight[op] = struct{}{}
	}
	p.Sleep(e.oneWay(cum)) // the whole chain propagates; one jitter draw
	if e.peer.nic.crashed {
		// The crash handler already materialized each torn prefix.
		return ErrCrashed
	}
	for _, op := range ops {
		delete(e.peer.nic.inflight, op)
		op.mr.dev.Write(op.mr.base+op.off, op.data)
	}
	p.Sleep(e.oneWay(0)) // single coalesced completion notification
	if e.peer.nic.crashed {
		return ErrCrashed
	}
	return nil
}

// ReadReq is one READ of a doorbell-batched chain.
type ReadReq struct {
	Dst  []byte
	RKey uint32
	Off  int
}

// ReadBatch posts len(reqs) READs as one doorbell-batched chain and blocks
// until the chain completes: the WQEs are built and the doorbell rung once
// (PostCost + (n-1)*PostCostDoorbell), the request chain crosses the
// fabric once, the responses serialize back-to-back on the return path,
// and the requester polls ONE coalesced completion instead of one per
// READ — the read-side counterpart of WriteBatch. A chain member whose
// target fails validation aborts the chain with an error; destinations of
// earlier members may already hold fetched bytes, exactly as a real NIC
// processing WQEs in order would leave them.
func (e *Endpoint) ReadBatch(p *sim.Proc, reqs []ReadReq) error {
	if len(reqs) == 0 {
		return nil
	}
	if len(reqs) == 1 {
		return e.Read(p, reqs[0].Dst, reqs[0].RKey, reqs[0].Off)
	}
	p.Sleep(e.par.PostCost + time.Duration(len(reqs)-1)*e.par.PostCostDoorbell)
	p.Sleep(e.oneWay(0)) // the request chain reaches the responder NIC
	if e.peer.nic.crashed {
		return ErrCrashed
	}
	total := 0
	for _, r := range reqs {
		mr, err := e.peer.nic.lookup(r.RKey, r.Off, len(r.Dst))
		if err != nil {
			return err
		}
		mr.dev.Read(mr.base+r.Off, r.Dst) // DMA from the coherent view
		total += len(r.Dst)
	}
	p.Sleep(e.oneWay(total)) // responses serialize back; one completion poll
	if e.peer.nic.crashed {
		return ErrCrashed
	}
	return nil
}

func (e *Endpoint) write(p *sim.Proc, src []byte, rkey uint32, off int, withImm bool, imm uint32) (*MR, error) {
	if e.peer.nic.crashed {
		return nil, ErrCrashed
	}
	mr, err := e.peer.nic.lookup(rkey, off, len(src))
	if err != nil {
		return nil, err
	}
	p.Sleep(e.par.PostCost)
	propagate := e.oneWay(len(src))
	op := &dmaOp{
		mr:    mr,
		off:   off,
		data:  append([]byte(nil), src...),
		start: e.env.Now(),
		end:   e.env.Now() + propagate,
	}
	e.peer.nic.inflight[op] = struct{}{}
	p.Sleep(propagate) // data propagates to responder
	if e.peer.nic.crashed {
		// Crash handler already materialized the torn prefix.
		return nil, ErrCrashed
	}
	delete(e.peer.nic.inflight, op)
	mr.dev.Write(mr.base+off, op.data) // DMA into the cache domain
	if withImm {
		e.peer.deliver(Message{Imm: imm, IsImm: true, From: e.peer})
	}
	p.Sleep(e.oneWay(0)) // hardware ack back to requester
	if e.peer.nic.crashed {
		return nil, ErrCrashed
	}
	return mr, nil
}
