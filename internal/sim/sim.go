// Package sim implements a deterministic, process-oriented discrete-event
// simulation kernel in the style of SimPy.
//
// Simulated processes are ordinary goroutines, but the kernel guarantees
// that at most one process executes at any instant: the scheduler resumes a
// process, then blocks until that process either yields (by sleeping or
// waiting on a Signal, Queue, or Resource) or terminates. Events that occur
// at the same virtual time are processed in the order they were scheduled,
// so a simulation with a fixed seed is reproducible bit-for-bit.
//
// Virtual time is an int64 count of nanoseconds. It has no relationship to
// wall-clock time: a simulated microsecond costs whatever the Go code
// executed during it costs.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand/v2"
	"time"
)

// event is a scheduled callback. Events with equal time fire in seq order.
type event struct {
	at  int64
	seq uint64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) Push(x any) { *h = append(*h, x.(*event)) }

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Env is a simulation environment: a virtual clock plus an event queue.
// Create one with NewEnv, spawn processes with Go, and advance time with
// Run or RunUntil. An Env must only be driven from a single goroutine.
type Env struct {
	now     int64
	seq     uint64
	events  eventHeap
	yielded chan struct{} // a resumed proc signals here when it blocks or exits
	rng     *rand.Rand
	live    int // processes that have started and not finished
	blocked int // processes currently waiting on a Signal/Queue/Resource
	tracers uint64
}

// NewEnv returns an environment whose clock starts at zero and whose
// internal randomness (exposed via Rand) is seeded with seed.
func NewEnv(seed uint64) *Env {
	return &Env{
		yielded: make(chan struct{}),
		rng:     rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)),
	}
}

// Now returns the current virtual time since the start of the simulation.
func (e *Env) Now() time.Duration { return time.Duration(e.now) }

// TracerID numbers the trace.Tracers built in this environment, 1 for
// the first: their trace IDs depend on the environment's own build order
// only, not on what else the process simulated before. Like Rand, call it
// from simulation processes or between Run calls.
func (e *Env) TracerID() uint64 {
	e.tracers++
	return e.tracers
}

// Rand returns the environment's deterministic random source. It must only
// be used from simulation processes (or between Run calls), never from
// foreign goroutines.
func (e *Env) Rand() *rand.Rand { return e.rng }

// schedule enqueues fn to run at absolute time at (>= e.now).
func (e *Env) schedule(at int64, fn func()) *event {
	if at < e.now {
		at = e.now
	}
	ev := &event{at: at, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.events, ev)
	return ev
}

// After schedules fn to run once d from now. fn executes in scheduler
// context: it must not block. It is the low-level hook used by timers; most
// code should use Proc.Sleep instead.
func (e *Env) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.schedule(e.now+int64(d), fn)
}

// Go spawns a new simulated process executing fn. The process begins running
// at the current virtual time, after already-scheduled events at this time.
// Go may be called before Run or from within a running process.
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{env: e, name: name, resume: make(chan struct{})}
	e.live++
	go func() {
		<-p.resume
		fn(p)
		p.done = true
		e.live--
		e.yielded <- struct{}{}
	}()
	e.schedule(e.now, func() { e.runProc(p) })
	return p
}

// runProc hands control to p and waits for it to yield or finish.
func (e *Env) runProc(p *Proc) {
	if p.done {
		return
	}
	p.resume <- struct{}{}
	<-e.yielded
}

// Run processes events until none remain. It returns the virtual time at
// which the simulation went quiet. If processes remain blocked on
// signals or queues that nothing will ever fire, Run returns anyway;
// use Blocked to detect that condition.
func (e *Env) Run() time.Duration {
	for len(e.events) > 0 {
		e.step()
	}
	return e.Now()
}

// RunUntil processes events until the clock would pass t (a duration since
// simulation start) or no events remain. The clock is left at min(t, quiet
// time).
func (e *Env) RunUntil(t time.Duration) time.Duration {
	limit := int64(t)
	for len(e.events) > 0 && e.events[0].at <= limit {
		e.step()
	}
	if e.now < limit && len(e.events) > 0 {
		e.now = limit
	} else if e.now < limit && len(e.events) == 0 {
		e.now = limit
	}
	return e.Now()
}

// step executes the earliest pending event.
func (e *Env) step() {
	ev := heap.Pop(&e.events).(*event)
	e.now = ev.at
	if ev.fn != nil {
		ev.fn()
	}
}

// Blocked reports how many processes are alive but waiting on a Signal,
// Queue, or Resource (as opposed to sleeping, which schedules an event).
// After Run returns, a nonzero value usually indicates a protocol deadlock.
func (e *Env) Blocked() int { return e.blocked }

// Live reports how many spawned processes have not yet finished.
func (e *Env) Live() int { return e.live }

// Proc is the execution context of one simulated process. All blocking
// operations (Sleep, Signal.Wait, Queue.Get, ...) take the Proc so the
// kernel can suspend exactly the calling process.
type Proc struct {
	env    *Env
	name   string
	resume chan struct{}
	done   bool
}

// Env returns the environment this process runs in.
func (p *Proc) Env() *Env { return p.env }

// Name returns the name given to Go.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.env.Now() }

// String implements fmt.Stringer.
func (p *Proc) String() string { return fmt.Sprintf("proc(%s)", p.name) }

// yield returns control to the scheduler and blocks until resumed.
func (p *Proc) yield() {
	p.env.yielded <- struct{}{}
	<-p.resume
}

// Sleep suspends the process for d of virtual time. Negative durations
// sleep for zero time (yielding to other events scheduled now).
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	e := p.env
	e.schedule(e.now+int64(d), func() { e.runProc(p) })
	p.yield()
}

// block marks the process as waiting on external stimulus and yields.
// The counterpart wake is scheduled by whatever fires the stimulus.
func (p *Proc) block() {
	p.env.blocked++
	p.yield()
}

// wake schedules the process to resume at the current virtual time.
func (p *Proc) wake() {
	e := p.env
	e.blocked--
	e.schedule(e.now, func() { e.runProc(p) })
}
