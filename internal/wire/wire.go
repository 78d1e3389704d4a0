// Package wire defines the request/response messages exchanged between
// clients and the server over SEND/RECV, shared by the simulated RDMA
// transport and the TCP transport. The encoding is a compact fixed header
// plus length-prefixed key/value payloads.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Message types.
const (
	// TPut asks the server to allocate a log region for a value of Len
	// bytes whose CRC is Crc, under Key (PUT steps 1-4 of Figure 5). A
	// client the server's THelloResp allows to (KLen > 0) may send the
	// value inline in Value, whose length must then equal Len: the server
	// writes it into the granted object before the entry publishes, and no
	// one-sided WRITE follows.
	TPut uint8 = iota + 1
	// TPutResp returns the allocation: the object's region RKey, its
	// offset Off and its total length Len. The baselines' persist and IMM
	// schemes also name the allocation by Token.
	TPutResp
	// TGet asks the server to resolve Key (the RPC+RDMA read path). A
	// non-zero Len asks for the value too: Len is the client's budget in
	// value bytes. Len 0 asks for the grant alone.
	TGet
	// TGetResp returns the object location (RKey, Off, Len) and the key
	// length so the client can address the value. Answering a request
	// with a budget, Token carries the table slot the key resolved to, and
	// when the value fits the budget Value carries its bytes and Note has
	// NoteValue set — no one-sided READ follows.
	TGetResp
	// TDel deletes Key.
	TDel
	// TDelResp acknowledges a delete.
	TDelResp
	// TPersist tells the server to verify/flush allocation Token and then
	// publish its metadata (the SAW scheme's second round trip).
	TPersist
	// TPersistResp acknowledges durability of Token.
	TPersistResp
	// TImmAck is the server's durability ack for a write_with_imm whose
	// immediate value was Token (the IMM scheme).
	TImmAck
	// TWrite carries the full value in the message: the classic RPC write
	// (the server copies it from network buffers into NVMM).
	TWrite
	// TWriteResp acknowledges a durable RPC write.
	TWriteResp
	// TCleanStart notifies clients that log cleaning began: switch to the
	// RPC+RDMA read scheme (§4.4).
	TCleanStart
	// TCleanEnd notifies clients that log cleaning finished: resume the
	// hybrid read scheme.
	TCleanEnd
	// THello requests the server's memory-region geometry at connection
	// setup (TCP transport): the reply carries shard 0's hash-table rkey
	// (RKey), shard 0's data-pool rkey base (Token), the per-shard bucket
	// count (Len), the shard count (Off; 0 from pre-sharding servers
	// means 1), and the inline budget in bytes (KLen): a TPut or TPutBatch
	// whose values total at most KLen may carry them inline, and a TGet or
	// TGetBatch may ask for up to KLen bytes of values. 0, what servers
	// before the budget send, means no inline values. Shard s's
	// regions are at rkey RKey+3*s, Token+3*s, and Token+3*s+1.
	THello
	// THelloResp answers THello.
	THelloResp
	// TStats requests aggregate server counters (TCP transport); the
	// reply carries them JSON-encoded in Value.
	TStats
	// TStatsResp answers TStats.
	TStatsResp
	// TShardStats requests per-shard server counters; the reply carries a
	// JSON array (one element per shard) in Value. New types append here
	// so earlier wire values stay stable.
	TShardStats
	// TShardStatsResp answers TShardStats.
	TShardStatsResp
	// TMetrics requests the server's telemetry snapshot (per-shard per-op
	// latency histograms, gauges, counters); the reply carries an
	// obs.Snapshot JSON-encoded in Value.
	TMetrics
	// TMetricsResp answers TMetrics.
	TMetricsResp
	// TPutBatch asks the server to allocate log regions for several values
	// in one round trip (the doorbell-batched PUT). Value carries the ops
	// encoded by AppendPutOps. Len 0 is the allocation-only layout. A
	// non-zero Len is the values' total length and selects the inline
	// layout, each op's value following its key, which the server writes
	// as TPut writes an inline value.
	TPutBatch
	// TPutBatchResp answers TPutBatch: Value carries one PutGrant per op
	// (AppendPutGrants), in request order.
	TPutBatchResp
	// TGetBatch asks the server to resolve several keys in one round trip
	// (the read-side counterpart of TPutBatch). Value carries the ops
	// encoded by AppendGetOps; each op may carry the client's cached table
	// slot so the server can try a slot-hinted lookup first. A non-zero
	// Len asks for the values too, as TGet's does: the found keys' values
	// may total at most Len bytes.
	TGetBatch
	// TGetResults answers TGetBatch: Value carries one GetGrant per key
	// (AppendGetGrants), index-aligned with the request so per-key errors
	// map back to their ops. Answering a request with a budget, Len is the
	// budget the server applied and selects the inline layout: each grant
	// names its value's length, and the values of the grants flagged
	// GrantValue follow the grant array in op order. A key whose value
	// did not fit gets a bare grant.
	TGetResults
	// TClusterMap requests the server's current cluster map (TCP
	// transport). The reply's Value carries the JSON-encoded map
	// (cluster.Map.Encode) and Token its epoch; a server without
	// clustering enabled answers StError.
	TClusterMap
	// TClusterMapResp answers TClusterMap.
	TClusterMapResp
	// TClusterMapSet offers the server a cluster map (Value, JSON). The
	// server adopts it only if the epoch is strictly newer than its own;
	// the reply's Token carries the epoch the server ended up at either
	// way. Used by migration cutover and join propagation.
	TClusterMapSet
	// TClusterMapSetResp answers TClusterMapSet.
	TClusterMapSetResp
	// TJoin asks a clustered server to admit a new instance: Key is the
	// joiner's name, Value its address. The server bumps the epoch, adds
	// the instance (owning no placement groups), pushes the new map to
	// the other instances, and returns it like TClusterMapResp.
	TJoin
	// TJoinResp answers TJoin.
	TJoinResp
	// TMigrate asks the serving instance to migrate placement group Off
	// to the instance named by Key. The call is synchronous: the reply
	// arrives after cutover (or failure), with a JSON MigrationSummary in
	// Value.
	TMigrate
	// TMigrateResp answers TMigrate.
	TMigrateResp
	// TMigIngest is retired: migration batches ride TReplAppend. The
	// number stays reserved so the types after it keep their values.
	TMigIngest
	// TMigIngestResp is retired with TMigIngest.
	TMigIngestResp
	// TTraceDump requests the server's retained-trace store (the traces
	// tail-retention kept: slow, errored, wrong-epoch, migration-window).
	// Off optionally filters to one trace ID (0 = all). The reply carries
	// a JSON []trace.Trace in Value.
	TTraceDump
	// TTraceDumpResp answers TTraceDump.
	TTraceDumpResp
	// TReplAppend streams exported records (a store.AppendRecords frame
	// in Value) from one instance to another, which validates and imports
	// them: a primary's mirror appends to its backups, and the batches of
	// a migration or replica-attach copy. Token carries the sender's
	// cluster-map epoch; a receiver that has adopted a newer map answers
	// StWrongEpoch with its own epoch, which deposes a mirroring primary —
	// it must stop flagging writes durable until it refetches — and
	// aborts a copy.
	TReplAppend
	// TReplAck answers TReplAppend. Only an StOK ack counts toward the
	// quorum that lets the primary persist a durability flag.
	TReplAck
	// TPromote asks the addressed backup to take over the PGs whose
	// primary (named in Key) died: reconcile its mirrored tail, pull
	// missed records from the surviving backups, install an epoch+1 map
	// owning those PGs, and push it to peers. The response Token carries
	// the resulting epoch.
	TPromote
	// TPromoteResp answers TPromote.
	TPromoteResp
	// TReplPull asks a replica for every record it holds in placement
	// group Off (a store.AppendRecords frame in the response Value). A newly
	// promoted primary pulls from the other surviving backups so a write
	// acked by a quorum that did not include it is recovered before the
	// promotion commits.
	TReplPull
	// TReplPullResp answers TReplPull.
	TReplPullResp
	// TTxnCommit asks the server to commit a multi-key transaction
	// atomically: all ops become visible together or none do. Value
	// carries the ops encoded by AppendTxnOps (key, value, and CRC per
	// op); the values travel in the message (the RPC write path) because
	// staging is server-driven.
	TTxnCommit
	// TTxnCommitResp answers TTxnCommit: Status carries the verdict for
	// the whole transaction and Off the transaction id. It has no payload.
	TTxnCommitResp
	// TTxnRead asks the server for a snapshot-isolated multi-key read:
	// every key is resolved at one consistent cut across shards. Value
	// carries the keys encoded by AppendGetOps (Slot unused, NoSlot).
	TTxnRead
	// TTxnReadResp answers TTxnRead: Value carries one TxnResult per key
	// (AppendTxnResults), index-aligned with the request.
	TTxnReadResp
	// TRead is a burst of one-sided READs (TCP transport), served from the
	// device without the engine. Value carries 16 bytes per READ,
	// little-endian: [rkey u32][off u64][len u32].
	TRead
	// TReadResp answers TRead: Value carries, per READ in request order, a
	// status byte (1 served, 0 refused) and, when served, its len bytes.
	TReadResp
)

// Status codes.
const (
	StOK uint8 = iota
	StNotFound
	StFull
	StError
	// StWrongEpoch rejects a routed op whose key lies outside the
	// placement groups the server owns (or one blocked by a migration
	// cutover). The op was not applied; the response's Token carries the
	// server's current cluster-map epoch so the client can decide whether
	// its cached map is stale (refetch) or merely blocked (back off and
	// retry).
	StWrongEpoch
)

// Msg is the flat message structure covering every type; unused fields are
// zero. Using one struct keeps encode/decode trivial and allocation-light.
type Msg struct {
	Type   uint8
	Status uint8
	Note   uint8  // flags piggybacked on responses (NoteCleaning, NoteValue)
	Token  uint32 // allocation token (PUT/PERSIST/IMM correlation); on routed TCP requests (TPut/TGet/TDel/TPutBatch/TGetBatch) the client's cluster-map epoch (0 = unclustered), on StWrongEpoch responses the server's current epoch, and on a TGetResp to a request with a budget the key's table slot
	RKey   uint32 // memory region for the client's one-sided follow-up
	Crc    uint32 // client-computed value checksum (TPut)
	Off    uint64 // object offset within the MR
	Len    uint64 // total object length (TGetResp), value length (TPut), inline values' total (TPutBatch), the value budget (TGet, TGetBatch), or the budget applied (TGetResults)
	KLen   uint32 // key length of the located object (TGetResp), or the inline budget (THelloResp)
	Trace  uint64 // trace ID of a sampled request (0 = untraced); rides an optional trailer, not the fixed header
	Key    []byte
	Value  []byte
}

// NoteCleaning in Msg.Note tells the client log cleaning is in progress, so
// it must use the RPC+RDMA read scheme until TCleanEnd (§4.4).
const NoteCleaning uint8 = 1 << 0

// NoteValue in a TGetResp's Note marks its Value as the located version's
// value, which may be empty. Without it the reply is a bare grant.
const NoteValue uint8 = 1 << 2

// NoteTraced in Msg.Note marks a frame carrying the optional 8-byte
// trace-ID trailer after Value. Untraced frames (the overwhelming
// majority at any sane sampling rate) set neither the bit nor the
// trailer, so their encoding is bit-identical to the pre-tracing wire
// format and old peers interoperate untraced.
const NoteTraced uint8 = 1 << 1

const headerLen = 1 + 1 + 1 + 4 + 4 + 4 + 8 + 8 + 4 + 4 + 4 // fixed fields + key/value lengths

// ErrShort indicates a truncated or corrupt message.
var ErrShort = errors.New("wire: short message")

// traceTrailerLen is the optional trace-ID trailer after Value,
// present iff Note has NoteTraced set.
const traceTrailerLen = 8

// Encode serializes m. A nonzero Trace appends the 8-byte trailer and
// sets NoteTraced; a zero Trace clears the bit, so the two stay in sync
// regardless of what the caller left in Note.
func (m *Msg) Encode() []byte {
	return m.AppendEncode(make([]byte, 0, m.EncodedSize()))
}

// Decode parses a message produced by Encode.
func Decode(b []byte) (Msg, error) {
	if len(b) < headerLen {
		return Msg{}, fmt.Errorf("%w: %d bytes", ErrShort, len(b))
	}
	le := binary.LittleEndian
	m := Msg{
		Type:   b[0],
		Status: b[1],
		Note:   b[2],
		Token:  le.Uint32(b[3:]),
		RKey:   le.Uint32(b[7:]),
		Crc:    le.Uint32(b[11:]),
		Off:    le.Uint64(b[15:]),
		Len:    le.Uint64(b[23:]),
		KLen:   le.Uint32(b[31:]),
	}
	klen := int(le.Uint32(b[35:]))
	vlen := int(le.Uint32(b[39:]))
	extra := 0
	if m.Note&NoteTraced != 0 {
		extra = traceTrailerLen
	}
	if klen < 0 || vlen < 0 || len(b) != headerLen+klen+vlen+extra {
		return Msg{}, fmt.Errorf("%w: want %d+%d+%d+%d, have %d", ErrShort, headerLen, klen, vlen, extra, len(b))
	}
	if klen > 0 {
		m.Key = b[headerLen : headerLen+klen : headerLen+klen]
	}
	if vlen > 0 {
		m.Value = b[headerLen+klen : headerLen+klen+vlen : headerLen+klen+vlen]
	}
	if extra != 0 {
		m.Note &^= NoteTraced
		m.Trace = le.Uint64(b[len(b)-traceTrailerLen:])
		if m.Trace == 0 {
			return Msg{}, fmt.Errorf("%w: traced frame with zero trace id", ErrShort)
		}
	}
	return m, nil
}

// PutOp is one operation of a TPutBatch request: the allocation request a
// single TPut would carry in its header fields, and in the inline layout
// its value (VLen bytes).
type PutOp struct {
	Crc   uint32
	VLen  int
	Key   []byte
	Value []byte
}

// PutGrant is one allocation result of a TPutBatchResp, in request order.
// A non-OK Status leaves the other fields zero.
type PutGrant struct {
	Status uint8
	RKey   uint32
	Off    uint64
	Len    uint32 // total object length
}

// DecodePutOpsInto unpacks a TPutBatch payload into ops (reslicing it to
// [:0] first), so a decode loop reuses one backing array across calls.
// inline selects the layout in which each op's VLen value bytes follow
// its key. Keys and values alias b.
func DecodePutOpsInto(b []byte, ops []PutOp, inline bool) ([]PutOp, error) {
	ops = ops[:0]
	if len(b) < 4 {
		return nil, fmt.Errorf("%w: batch header", ErrShort)
	}
	le := binary.LittleEndian
	count := int(le.Uint32(b))
	if cap(ops) == 0 {
		ops = make([]PutOp, 0, capHint(count, len(b)-4, 12))
	}
	p := 4
	for i := 0; i < count; i++ {
		if len(b) < p+12 {
			return nil, fmt.Errorf("%w: batch op %d", ErrShort, i)
		}
		crc := le.Uint32(b[p:])
		vlen := int(le.Uint32(b[p+4:]))
		klen := int(le.Uint32(b[p+8:]))
		if klen < 0 || vlen < 0 || len(b) < p+12+klen {
			return nil, fmt.Errorf("%w: batch op %d key", ErrShort, i)
		}
		op := PutOp{Crc: crc, VLen: vlen, Key: b[p+12 : p+12+klen : p+12+klen]}
		p += 12 + klen
		if inline {
			if len(b)-p < vlen {
				return nil, fmt.Errorf("%w: batch op %d value", ErrShort, i)
			}
			op.Value = b[p : p+vlen : p+vlen]
			p += vlen
		}
		ops = append(ops, op)
	}
	return ops, nil
}

// DecodePutGrantsInto unpacks a TPutBatchResp payload into gs (resliced
// to [:0]).
func DecodePutGrantsInto(b []byte, gs []PutGrant) ([]PutGrant, error) {
	gs = gs[:0]
	if len(b) < 4 {
		return nil, fmt.Errorf("%w: grant header", ErrShort)
	}
	le := binary.LittleEndian
	count := int(le.Uint32(b))
	if len(b) < 4+17*count {
		return nil, fmt.Errorf("%w: %d grants in %d bytes", ErrShort, count, len(b))
	}
	for i := 0; i < count; i++ {
		p := 4 + 17*i
		gs = append(gs, PutGrant{
			Status: b[p],
			RKey:   le.Uint32(b[p+1:]),
			Off:    le.Uint64(b[p+5:]),
			Len:    le.Uint32(b[p+13:]),
		})
	}
	return gs, nil
}

// capHint bounds a decoded element count by what the payload could
// physically hold (minSize bytes per element), so a corrupt count field
// cannot drive a huge preallocation.
func capHint(count, avail, minSize int) int {
	if max := avail / minSize; count > max {
		return max
	}
	if count < 0 {
		return 0
	}
	return count
}

// NoSlot in GetOp.Slot means the client has no cached table slot for the
// key and the server should run a full lookup.
const NoSlot = ^uint32(0)

// GetOp is one key of a TGetBatch request. Slot optionally carries the
// client's cached bucket index for the key (NoSlot if unknown); the server
// verifies the hint against the entry's key hash before trusting it, so a
// stale slot degrades to a normal lookup rather than a wrong answer.
type GetOp struct {
	Slot uint32
	Key  []byte
}

// GetGrant flag bits.
const (
	// GrantDurable marks the located version as already verified+persisted
	// (its durability flag is set), so the client may cache the location
	// for future optimistic reads.
	GrantDurable uint8 = 1 << 0
	// GrantValue marks a grant of the inline layout whose Value is the
	// located version's value (possibly empty); without it the grant is
	// bare.
	GrantValue uint8 = 1 << 1
)

// GetGrant is one per-key result of a TGetResults response, index-aligned
// with the request's ops. A non-OK Status leaves the other fields zero.
// Slot and Seq let the client refresh its hint cache: Slot is the bucket
// the key resolved to, Seq the located version's sequence number.
type GetGrant struct {
	Status uint8
	Flags  uint8
	RKey   uint32
	Slot   uint32
	Len    uint32 // total object length
	KLen   uint32
	Off    uint64
	Seq    uint64
	// Value is the located version's value when Flags has GrantValue (the
	// inline layout only). Decoded values alias the payload.
	Value []byte
}

// Durable reports the GrantDurable flag.
func (g *GetGrant) Durable() bool { return g.Flags&GrantDurable != 0 }

// getGrantSize is the fixed wire footprint of one GetGrant; the inline
// layout adds its value's length (getGrantVLen).
const (
	getGrantSize = 1 + 1 + 4 + 4 + 4 + 4 + 8 + 8
	getGrantVLen = 4
)

// DecodeGetOpsInto unpacks a TGetBatch payload into ops (resliced to
// [:0]). Keys alias b.
func DecodeGetOpsInto(b []byte, ops []GetOp) ([]GetOp, error) {
	ops = ops[:0]
	if len(b) < 4 {
		return nil, fmt.Errorf("%w: get batch header", ErrShort)
	}
	le := binary.LittleEndian
	count := int(le.Uint32(b))
	if cap(ops) == 0 {
		ops = make([]GetOp, 0, capHint(count, len(b)-4, 8))
	}
	p := 4
	for i := 0; i < count; i++ {
		if len(b) < p+8 {
			return nil, fmt.Errorf("%w: get op %d", ErrShort, i)
		}
		slot := le.Uint32(b[p:])
		klen := int(le.Uint32(b[p+4:]))
		if klen < 0 || len(b) < p+8+klen {
			return nil, fmt.Errorf("%w: get op %d key", ErrShort, i)
		}
		ops = append(ops, GetOp{Slot: slot, Key: b[p+8 : p+8+klen : p+8+klen]})
		p += 8 + klen
	}
	return ops, nil
}

// DecodeGetGrantsInto unpacks a TGetResults payload into gs (resliced to
// [:0]). inline selects the layout in which each grant names its value's
// length and the flagged grants' values follow the array: that layout
// must end exactly at its last value, and a value cut short, a length
// past the payload, or a byte after the last value is ErrShort. Values
// alias b.
func DecodeGetGrantsInto(b []byte, gs []GetGrant, inline bool) ([]GetGrant, error) {
	gs = gs[:0]
	if len(b) < 4 {
		return nil, fmt.Errorf("%w: get grant header", ErrShort)
	}
	le := binary.LittleEndian
	count := int(le.Uint32(b))
	size := getGrantSize
	if inline {
		size += getGrantVLen
	}
	if count < 0 || (len(b)-4)/size < count {
		return nil, fmt.Errorf("%w: %d get grants in %d bytes", ErrShort, count, len(b))
	}
	v := 4 + size*count // the next value's offset
	for i := 0; i < count; i++ {
		p := 4 + size*i
		g := GetGrant{
			Status: b[p],
			Flags:  b[p+1],
			RKey:   le.Uint32(b[p+2:]),
			Slot:   le.Uint32(b[p+6:]),
			Len:    le.Uint32(b[p+10:]),
			KLen:   le.Uint32(b[p+14:]),
			Off:    le.Uint64(b[p+18:]),
			Seq:    le.Uint64(b[p+26:]),
		}
		if inline && g.Flags&GrantValue != 0 {
			vlen := int(le.Uint32(b[p+getGrantSize:]))
			if vlen < 0 || len(b)-v < vlen {
				return nil, fmt.Errorf("%w: get grant %d value", ErrShort, i)
			}
			g.Value = b[v : v+vlen : v+vlen]
			v += vlen
		}
		gs = append(gs, g)
	}
	if inline && v != len(b) {
		return nil, fmt.Errorf("%w: %d bytes after the last value", ErrShort, len(b)-v)
	}
	return gs, nil
}
