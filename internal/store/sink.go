package store

import "time"

// Op names a unit of engine work whose cost depends on the transport. The
// simulation transport maps each op to a model.Params duration and sleeps
// the acting process for it (charging foreground ops to the server-busy
// account); the TCP transport does the work at native speed and charges
// nothing. n is the byte count the op covers, for size-dependent costs.
type Op int

const (
	// Foreground ops, executed by a request worker.
	OpLookup  Op = iota // hash-table lookup on the GET/DEL path
	OpAlloc             // PUT log allocation + metadata persist
	OpGetScan           // per-version header fetch + durability check on GET
	OpCRC               // on-demand CRC verify over n value bytes
	OpFlush             // on-demand flush of an n-byte object

	// Background ops, executed by the verifier or the cleaner.
	OpBGScan     // background header fetch
	OpBGLookup   // background hash-table lookup
	OpBGCRC      // background CRC verify over n value bytes
	OpBGFlush    // background flush of an n-byte object
	OpCleanCopy  // cleaner migration (copy+flush) of an n-byte object
	OpCleanEntry // cleaner per-entry table touch during the final sweep
)

// numSections is the number of section kinds: the engine times its work
// per Op.
const numSections = int(OpCleanEntry) + 1

// Foreground reports whether op runs on a request worker (and should be
// accounted as server-busy time by sinks that track it).
func (op Op) Foreground() bool {
	return op <= OpFlush
}

// CostSink is the engine's clock and cost model. It is the seam that lets
// one engine implementation serve both transports: the simulation sink
// advances virtual time (h is the acting *sim.Proc), the real-time sink is
// a no-op over the wall clock (h is nil).
type CostSink interface {
	// Now returns the current time in nanoseconds (virtual or wall).
	Now() uint64
	// Charge accounts op (covering n bytes) to the acting process h.
	Charge(h any, op Op, n int)
}

// realSink is the wall-clock sink used when Deps.Sink is nil: work happens
// at native speed, so charging is a no-op.
type realSink struct{}

func (realSink) Now() uint64         { return uint64(time.Now().UnixNano()) }
func (realSink) Charge(any, Op, int) {}
