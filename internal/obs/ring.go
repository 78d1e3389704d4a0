package obs

import "sync"

// Event is one structured trace record. Events are reserved for the rare,
// debugging-relevant transitions (invalidations, rollbacks, allocation
// failures, cleaning boundaries), not the per-op hot path, so a mutex-
// guarded ring is cheap enough and dumps are exact.
type Event struct {
	TimeNS   uint64 `json:"t_ns"`               // sink clock (virtual or wall)
	Shard    int    `json:"shard"`              // owning shard
	Op       string `json:"op"`                 // operation that produced the event
	Outcome  string `json:"outcome"`            // what happened
	KeyHash  uint64 `json:"key_hash"`           // hash of the key involved (0 if none)
	Seq      uint64 `json:"seq,omitempty"`      // version sequence number (0 if none)
	Instance string `json:"instance,omitempty"` // cluster instance name ("" unclustered)
	Epoch    uint64 `json:"epoch,omitempty"`    // cluster-map epoch at append time (0 = no map)
}

// Ring is a bounded ring buffer: the newest capacity items are retained,
// older ones are overwritten. It holds a registry's trace events and a
// trace.Tracer's retained traces. The buffer is allocated on the first
// Append, so a ring nothing is appended to costs nothing.
type Ring[T any] struct {
	mu    sync.Mutex
	buf   []T
	cap   int
	next  int    // slot the next append goes to
	total uint64 // items ever appended
}

// NewRing returns a ring retaining the last capacity items.
func NewRing[T any](capacity int) *Ring[T] {
	return &Ring[T]{cap: max(capacity, 1)}
}

// Append records one item, evicting the oldest when full.
func (r *Ring[T]) Append(e T) {
	r.mu.Lock()
	if r.buf == nil {
		r.buf = make([]T, 0, r.cap)
	}
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.next] = e
	}
	r.next = (r.next + 1) % r.cap
	r.total++
	r.mu.Unlock()
}

// Total returns the number of items ever appended (dropped ones included).
func (r *Ring[T]) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Dump returns the retained items, oldest first (empty, not nil, when
// there are none).
func (r *Ring[T]) Dump() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}
