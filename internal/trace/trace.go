// Package trace is the per-request distributed tracing layer: a request
// sampled at the client carries a 64-bit trace ID across the wire, and
// every section of work done on its behalf — client-side CRC, the
// allocation RPC, the doorbell-chained WRITE group, the engine's lookup/
// scan/verify/flush sections, route retries, migration phases — records
// a Span against that ID.
//
// Timing rides the same dual clock the histograms use (PR 2): span
// start/end times are CostSink clock readings, so they are virtual
// nanoseconds under the deterministic simulator and wall-clock
// nanoseconds over TCP. Trace IDs are minted from atomic counters —
// never from the clock or math/rand — so traced runs stay fully
// deterministic; the only modeled cost of a traced request is the
// transmission of its 8-byte wire trailer. Disabling tracing leaves
// every code path bit-identical (ID 0 = untraced, no wire bytes, no
// spans).
//
// Retention is head sampling plus tail-based keeps: 1-in-N requests get
// an ID at the client; of the traced ones, a bounded store retains those
// that finished slow (root duration >= the slow threshold), errored, hit
// a wrong-epoch reject, or overlapped a migration window. The store is
// served at /debug/slow and over the TTraceDump RPC.
package trace

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Span is one timed section of one request on one instance. Times are
// CostSink clock readings (virtual in sim, wall ns over TCP); spans from
// different instances therefore share a trace ID but not a clock, and
// are compared within an instance, not across.
type Span struct {
	Trace    uint64 `json:"trace"`              // owning trace ID
	ID       uint64 `json:"id"`                 // span ID, unique within the trace+instance
	Parent   uint64 `json:"parent,omitempty"`   // parent span ID (0 = root of this instance)
	Name     string `json:"name"`               // section name, e.g. "alloc_rpc", "flush"
	Instance string `json:"instance,omitempty"` // cluster instance ("" = client/unclustered)
	Shard    int    `json:"shard,omitempty"`    // owning shard for engine sections
	Epoch    uint64 `json:"epoch,omitempty"`    // cluster epoch the section ran under
	StartNS  uint64 `json:"start_ns"`
	EndNS    uint64 `json:"end_ns"`
	Outcome  string `json:"outcome,omitempty"` // "", "ok", "error", "wrong_epoch", ...
	KeyHash  uint64 `json:"key_hash,omitempty"`
}

// Ctx accumulates the spans of one request on one participant (one
// client op, or one server-side handling of it). It is created when a
// sampled request starts and submitted to a Tracer when it finishes.
// Append is mutex-guarded: a request is handled by one goroutine at a
// time in both transports, but batch paths may interleave helpers.
type Ctx struct {
	TraceID uint64

	mu     sync.Mutex
	spans  []Span
	nextID uint64
	root   uint64 // span ID new sections parent to (0 until Root)
	why    string // tail-retention reason ("" = none yet)
}

// NewCtx starts accumulating spans for trace id. A nil Ctx is inert:
// every method on it is a safe no-op, so call sites thread *Ctx without
// nil checks.
func NewCtx(id uint64) *Ctx {
	if id == 0 {
		return nil
	}
	return &Ctx{TraceID: id}
}

// ID returns the trace ID (0 on a nil context), for stamping outgoing
// wire messages.
func (c *Ctx) ID() uint64 {
	if c == nil {
		return 0
	}
	return c.TraceID
}

// Root records the request's covering span and makes it the parent of
// subsequent Add calls. Returns the root span ID.
func (c *Ctx) Root(name string, start, end uint64) uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	id := c.nextID
	c.spans = append(c.spans, Span{Trace: c.TraceID, ID: id, Name: name, StartNS: start, EndNS: end})
	c.root = id
	return id
}

// Add records one child section span and returns its ID.
func (c *Ctx) Add(name string, start, end uint64) uint64 {
	return c.AddSpan(Span{Name: name, StartNS: start, EndNS: end})
}

// AddSpan records s, filling in the trace ID, a fresh span ID, and —
// when s.Parent is 0 — the current root as parent.
func (c *Ctx) AddSpan(s Span) uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	s.Trace = c.TraceID
	s.ID = c.nextID
	if s.Parent == 0 {
		s.Parent = c.root
	}
	c.spans = append(c.spans, s)
	return s.ID
}

// SetRoot retro-fills fields of the root span (outcome, key hash, end
// time) once the request's fate is known.
func (c *Ctx) SetRoot(end uint64, outcome string, keyHash uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.spans {
		if c.spans[i].ID == c.root {
			if end != 0 {
				c.spans[i].EndNS = end
			}
			if outcome != "" {
				c.spans[i].Outcome = outcome
			}
			if keyHash != 0 {
				c.spans[i].KeyHash = keyHash
			}
			return
		}
	}
}

// Mark flags the trace for tail retention with a reason ("error",
// "wrong_epoch", "migration"). The first reason sticks.
func (c *Ctx) Mark(why string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if c.why == "" {
		c.why = why
	}
	c.mu.Unlock()
}

// Spans returns a copy of the accumulated spans.
func (c *Ctx) Spans() []Span {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Span(nil), c.spans...)
}

// Stamp sets instance/epoch on every span that does not carry its own.
func (c *Ctx) Stamp(instance string, epoch uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	for i := range c.spans {
		if c.spans[i].Instance == "" {
			c.spans[i].Instance = instance
		}
		if c.spans[i].Epoch == 0 {
			c.spans[i].Epoch = epoch
		}
	}
	c.mu.Unlock()
}

// H wraps the engine's opaque per-op handle (the simulator's *sim.Proc,
// nil over TCP) together with a trace context, so the existing `h any`
// parameter threads tracing through the CostSink seam without touching
// any engine signature. Unwrap recovers both halves; code that only
// wants the proc (simSink.Charge, the cleaner hooks) unwraps first.
type H struct {
	Proc any
	Ctx  *Ctx
}

// Wrap attaches c to h. With a nil context it returns h unchanged, so
// the untraced path never allocates or changes the h it passes down.
func Wrap(h any, c *Ctx) any {
	if c == nil {
		return h
	}
	return H{Proc: h, Ctx: c}
}

// Unwrap splits a possibly-wrapped handle into the underlying proc
// handle and the trace context (nil when untraced).
func Unwrap(h any) (any, *Ctx) {
	if w, ok := h.(H); ok {
		return w.Proc, w.Ctx
	}
	return h, nil
}

// Trace is one retained trace: its ID, why it was kept, and its spans.
type Trace struct {
	ID    uint64 `json:"id"`
	Why   string `json:"why"` // "slow", "error", "wrong_epoch", "migration", "all"
	Spans []Span `json:"spans"`
}

// DefaultStoreCap bounds a Tracer's retained-trace ring unless overridden.
const DefaultStoreCap = 1024

// Tracer decides which requests get a trace ID (head sampling), which
// finished traces are retained (tail rules), and stores the keepers in a
// bounded ring.
type Tracer struct {
	sampleEvery uint64 // 1-in-N head sampling; 0 = tracing off
	slowNS      uint64 // retain when root duration >= slowNS; 0 = retain every sampled trace
	base        uint64 // high bits of minted IDs
	seq         atomic.Uint64
	tick        atomic.Uint64

	mu    sync.Mutex
	ring  []Trace
	next  int
	total uint64 // traces ever retained
}

// NewTracer returns tracer number id, sampling 1-in-sampleEvery requests
// and tail-retaining those slower than slowNS (0 retains every sampled
// trace). sampleEvery <= 0 disables sampling; such a tracer still
// stores traces submitted to it (a server retains traces for IDs minted
// by clients without sampling on its own). The id forms the top bits of
// every trace ID the tracer mints, so tracers numbered apart mint
// disjoint IDs without consulting a clock or RNG. The creator owns the
// numbering: a simulation numbers the tracers of its environment, so its
// IDs do not depend on what else the process built.
func NewTracer(id uint64, sampleEvery int, slowNS uint64) *Tracer {
	t := &Tracer{slowNS: slowNS, base: id << 40}
	if sampleEvery > 0 {
		t.sampleEvery = uint64(sampleEvery)
	}
	return t
}

// Sample returns a fresh trace ID for this request if it falls on the
// sampling cadence, else 0. Safe on a nil tracer (returns 0).
func (t *Tracer) Sample() uint64 {
	if t == nil || t.sampleEvery == 0 {
		return 0
	}
	if t.tick.Add(1)%t.sampleEvery != 0 {
		return 0
	}
	return t.base | t.seq.Add(1)
}

// Mint returns a fresh trace ID unconditionally, bypassing the sampling
// cadence — for server-originated work that is always worth a trace
// (migration runs). Safe on a nil tracer (returns 0).
func (t *Tracer) Mint() uint64 {
	if t == nil {
		return 0
	}
	return t.base | t.seq.Add(1)
}

// Submit applies the tail-retention rules to a finished trace context:
// keep it when it was marked (error / wrong_epoch / migration), when the
// root duration reached the slow threshold, or when the threshold is 0
// (keep-all). rootDur is on the submitter's clock. Safe on nil tracer
// or nil ctx.
func (t *Tracer) Submit(c *Ctx, rootDur uint64) {
	if t == nil || c == nil {
		return
	}
	c.mu.Lock()
	why := c.why
	spans := append([]Span(nil), c.spans...)
	c.mu.Unlock()
	if why == "" {
		switch {
		case t.slowNS == 0:
			why = "all"
		case rootDur >= t.slowNS:
			why = "slow"
		default:
			return
		}
	}
	t.mu.Lock()
	if cap(t.ring) == 0 {
		t.ring = make([]Trace, 0, DefaultStoreCap)
	}
	tr := Trace{ID: c.TraceID, Why: why, Spans: spans}
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, tr)
	} else {
		t.ring[t.next] = tr
	}
	t.next = (t.next + 1) % cap(t.ring)
	t.total++
	t.mu.Unlock()
}

// Retained returns how many traces were ever retained (evicted included).
func (t *Tracer) Retained() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Dump returns the retained traces, oldest first. id filters to one
// trace (0 = all).
func (t *Tracer) Dump(id uint64) []Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var all []Trace
	if len(t.ring) == cap(t.ring) && cap(t.ring) > 0 {
		all = append(all, t.ring[t.next:]...)
		all = append(all, t.ring[:t.next]...)
	} else {
		all = append(all, t.ring...)
	}
	if id == 0 {
		return all
	}
	out := all[:0]
	for _, tr := range all {
		if tr.ID == id {
			out = append(out, tr)
		}
	}
	return out[:len(out):len(out)]
}

// SpansForKey returns every retained span whose trace touched keyHash
// (any span in the trace carries it), sorted by start time — the
// forensic timeline the fault oracle prints on a violation.
func (t *Tracer) SpansForKey(keyHash uint64) []Span {
	if t == nil || keyHash == 0 {
		return nil
	}
	var out []Span
	for _, tr := range t.Dump(0) {
		hit := false
		for _, s := range tr.Spans {
			if s.KeyHash == keyHash {
				hit = true
				break
			}
		}
		if hit {
			out = append(out, tr.Spans...)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].StartNS < out[j].StartNS })
	return out
}
