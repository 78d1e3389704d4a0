package wire

import (
	"encoding/binary"
	"fmt"
)

// Transaction payloads. A TTxnCommit carries TxnOps (key + value + CRC
// per op) in Msg.Value; the response carries the status and the
// transaction id in Off, and no payload. A TTxnRead reuses the GetOps
// codec for its keys (Slot = NoSlot) and answers with TxnResults. Both
// follow the batch codecs' shape: u32 count header, per-element fixed
// prefix + variable bytes, capHint bounding preallocation against
// corrupt counts.

// TxnOp is one write of a TTxnCommit request. Unlike TPut, the value
// travels in the message: transactional staging is server-driven, so
// there is no one-sided write phase to grant.
type TxnOp struct {
	Crc   uint32
	Key   []byte
	Value []byte
}

// TxnResult is one per-key result of a TTxnReadResp, index-aligned with
// the request's keys. A non-OK Status leaves the other fields zero.
type TxnResult struct {
	Status uint8
	Seq    uint64 // served version's sequence number
	Value  []byte
}

// TxnOpsSize returns the encoded size of a TTxnCommit payload.
func TxnOpsSize(ops []TxnOp) int {
	n := 4
	for _, op := range ops {
		n += 12 + len(op.Key) + len(op.Value)
	}
	return n
}

// AppendTxnOps appends a TTxnCommit payload to b.
func AppendTxnOps(b []byte, ops []TxnOp) []byte {
	base := len(b)
	b = appendZeros(b, TxnOpsSize(ops))
	o := b[base:]
	le := binary.LittleEndian
	le.PutUint32(o, uint32(len(ops)))
	p := 4
	for _, op := range ops {
		le.PutUint32(o[p:], op.Crc)
		le.PutUint32(o[p+4:], uint32(len(op.Key)))
		le.PutUint32(o[p+8:], uint32(len(op.Value)))
		copy(o[p+12:], op.Key)
		copy(o[p+12+len(op.Key):], op.Value)
		p += 12 + len(op.Key) + len(op.Value)
	}
	return b
}

// DecodeTxnOpsInto unpacks a TTxnCommit payload into ops (resliced to
// [:0]), reusing its backing array across calls. Keys and values alias b.
func DecodeTxnOpsInto(b []byte, ops []TxnOp) ([]TxnOp, error) {
	ops = ops[:0]
	if len(b) < 4 {
		return nil, fmt.Errorf("%w: txn batch header", ErrShort)
	}
	le := binary.LittleEndian
	count := int(le.Uint32(b))
	if cap(ops) == 0 {
		ops = make([]TxnOp, 0, capHint(count, len(b)-4, 12))
	}
	p := 4
	for i := 0; i < count; i++ {
		if len(b) < p+12 {
			return nil, fmt.Errorf("%w: txn op %d", ErrShort, i)
		}
		crc := le.Uint32(b[p:])
		klen := int(le.Uint32(b[p+4:]))
		vlen := int(le.Uint32(b[p+8:]))
		if klen < 0 || vlen < 0 || len(b) < p+12+klen+vlen {
			return nil, fmt.Errorf("%w: txn op %d body", ErrShort, i)
		}
		ops = append(ops, TxnOp{
			Crc:   crc,
			Key:   b[p+12 : p+12+klen : p+12+klen],
			Value: b[p+12+klen : p+12+klen+vlen : p+12+klen+vlen],
		})
		p += 12 + klen + vlen
	}
	return ops, nil
}

// txnResultFixed is the fixed wire footprint of one TxnResult.
const txnResultFixed = 1 + 8 + 4

// TxnResultsSize returns the encoded size of a TTxnReadResp payload.
func TxnResultsSize(rs []TxnResult) int {
	n := 4
	for _, r := range rs {
		n += txnResultFixed + len(r.Value)
	}
	return n
}

// AppendTxnResults appends a TTxnReadResp payload to b.
func AppendTxnResults(b []byte, rs []TxnResult) []byte {
	base := len(b)
	b = appendZeros(b, TxnResultsSize(rs))
	o := b[base:]
	le := binary.LittleEndian
	le.PutUint32(o, uint32(len(rs)))
	p := 4
	for _, r := range rs {
		o[p] = r.Status
		le.PutUint64(o[p+1:], r.Seq)
		le.PutUint32(o[p+9:], uint32(len(r.Value)))
		copy(o[p+txnResultFixed:], r.Value)
		p += txnResultFixed + len(r.Value)
	}
	return b
}

// DecodeTxnResultsInto unpacks a TTxnReadResp payload into rs (resliced
// to [:0]). Values alias b.
func DecodeTxnResultsInto(b []byte, rs []TxnResult) ([]TxnResult, error) {
	rs = rs[:0]
	if len(b) < 4 {
		return nil, fmt.Errorf("%w: txn result header", ErrShort)
	}
	le := binary.LittleEndian
	count := int(le.Uint32(b))
	if cap(rs) == 0 {
		rs = make([]TxnResult, 0, capHint(count, len(b)-4, txnResultFixed))
	}
	p := 4
	for i := 0; i < count; i++ {
		if len(b) < p+txnResultFixed {
			return nil, fmt.Errorf("%w: txn result %d", ErrShort, i)
		}
		status := b[p]
		seq := le.Uint64(b[p+1:])
		vlen := int(le.Uint32(b[p+9:]))
		if vlen < 0 || len(b) < p+txnResultFixed+vlen {
			return nil, fmt.Errorf("%w: txn result %d value", ErrShort, i)
		}
		rs = append(rs, TxnResult{
			Status: status,
			Seq:    seq,
			Value:  b[p+txnResultFixed : p+txnResultFixed+vlen : p+txnResultFixed+vlen],
		})
		p += txnResultFixed + vlen
	}
	return rs, nil
}
