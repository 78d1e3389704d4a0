// Package client is the eFactory client protocol, written once: the
// client-active PUT with asynchronous durability (Figure 5), the hybrid
// optimistic-read / RPC-fallback GET (Figure 6), their doorbell-batched
// forms, DELETE, the transactional commit and snapshot read, hint-cache
// coherence, the path counters and the trace spans.
//
// The protocol is expressed as ONE ATTEMPT of each op against the Verbs
// interface below. A transport binds Verbs to what it has — the simulator
// to a *sim.Proc and an rnic.Endpoint, TCP to its pipelined RPC channel
// and its one-sided connection — and owns everything that is not protocol:
// connections, retry and reconnect, epoch stamping, admin RPCs. Retry sits
// outside the seam on purpose: a transport that retries wraps the attempt
// in its own concrete loop, so the attempt's closure never crosses an
// interface and the write path stays allocation-free.
package client

import (
	"errors"
	"fmt"

	"efactory/internal/wire"
)

// ErrNotFound is returned by Get/Delete (and per key by the batched and
// transactional reads) for absent keys.
var ErrNotFound = errors.New("efactory: key not found")

// ErrServerFull is returned by Put when the log and cleaning cannot make
// room.
var ErrServerFull = errors.New("efactory: server pool full")

// ErrTxnAborted is returned for a transaction the server rejected for a
// reason other than pool/table pressure (which maps to ErrServerFull):
// the transaction applied none of its ops.
var ErrTxnAborted = errors.New("efactory: transaction aborted")

// ErrNAK reports a one-sided request the responder refused although the
// server itself named the location (a PUT grant, a GET grant): there is
// no further fallback for it.
var ErrNAK = errors.New("efactory: one-sided request refused at a server-granted location")

// StatusError is an RPC answered with a status the op has no protocol
// meaning for.
type StatusError struct {
	Op     string
	Status uint8
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("efactory: %s failed with status %d", e.Op, e.Status)
}

// Req is one one-sided request of a burst: a READ of len(Buf) bytes at
// (RKey, Off) into Buf, or a WRITE of Buf there.
type Req struct {
	Buf  []byte
	RKey uint32
	Off  uint64
	// NAK is set by the burst when the responder refused this request
	// (unknown region, out of bounds); Buf's contents are then undefined.
	NAK bool
}

// Clock is the trace clock: virtual nanoseconds in the simulator, wall
// nanoseconds over TCP. It is read only for sampled ops.
type Clock interface {
	Now() uint64
}

// Verbs is the seam between the protocol and a transport.
type Verbs interface {
	Clock
	// Call performs one RPC. resp may alias buf, which the caller hands
	// back through Release once every aliased byte (Key/Value) is dead; a
	// nil buf needs no release.
	Call(req wire.Msg) (resp wire.Msg, buf *[]byte, err error)
	Release(buf *[]byte)
	// ReadBurst and WriteBurst post every request before waiting once —
	// a doorbell-batched chain — and report refusals per request in
	// Req.NAK. An error is a transport failure of the whole burst.
	ReadBurst(reqs []Req) error
	WriteBurst(reqs []Req) error
	// ChargeCRC accounts the client-side checksum of n value bytes (the
	// simulator sleeps its modelled cost; real time needs no charge).
	ChargeCRC(n int)
}

// Shard is one shard's one-sided addressing: the rkeys of its hash-table
// region and its two data pools.
type Shard struct {
	Table uint32
	Pool  [2]uint32
}

// Stats counts client-side path choices. A transport embeds or exposes one
// and hands the Core a pointer; read it quiesced.
type Stats struct {
	Puts          int
	Gets          int
	BatchedPuts   int // PUTs carried by doorbell-batched PutBatch chains
	BatchedGets   int // GETs carried by doorbell-batched GetBatch chains
	PureReads     int // GETs satisfied entirely one-sidedly
	HintedReads   int // pure reads whose probe walk was skipped by a hint hit
	FallbackReads int // GETs that fell back to RPC after an optimistic attempt
	RPCReads      int // GETs that went straight to RPC (cleaning / no hybrid / unhinted with an inline budget)
	Notifications int // clean-start/end notifications processed (simulator)
	// ReadBursts and ReadRPCs count the round trips reads took: one-sided
	// READ bursts and read RPCs (TGet, TGetBatch), per Get or GetBatch
	// call, not per key.
	ReadBursts int
	ReadRPCs   int
}

// FirstErr returns the first consequential error of a batch (ErrNotFound
// is an outcome, not a failure) — what a batch op's root span reports.
func FirstErr(errs []error) error {
	for _, e := range errs {
		if e != nil && e != ErrNotFound {
			return e
		}
	}
	return nil
}

// failAll gives every op the attempt-level failure reached — the ones
// with no outcome of their own yet — err, and returns it.
func failAll(errs []error, err error) error {
	for i := range errs {
		if errs[i] == nil {
			errs[i] = err
		}
	}
	return err
}
