package store

import (
	"encoding/binary"
	"errors"
)

// The record frame is the one encoding of exported records between
// instances: mirror appends, the batches of migration and attach copies,
// and promotion pulls. All integers are little-endian, fixed width.
//
//	frame   = format:u8 count:u32 record*
//	record  = keylen:u32 (bit 31 = tombstone) cut:u64 nversions:u32 key version*
//	version = seq:u64 createdAt:u64 crc:u32 flags:u8 txn:u64 vlen:u32 value
//
// The format byte leads so a receiver refuses a frame it cannot read —
// an old peer's JSON array starts with '[' — instead of misreading it.
const (
	recordFormat     = 1
	frameHeaderSize  = 1 + 4
	recordHeaderSize = 4 + 8 + 4
	versionHeadSize  = 8 + 8 + 4 + 1 + 8 + 4
	tombstoneBit     = 1 << 31
)

var (
	errRecordFormat = errors.New("store: unknown record frame format")
	errRecordShort  = errors.New("store: record frame truncated")
	errRecordTail   = errors.New("store: trailing bytes after the last record")
)

// AppendRecords appends the record frame of recs to dst and returns the
// extended slice. Into a buffer with room for the frame it allocates
// nothing.
func AppendRecords(dst []byte, recs []ExportKey) []byte {
	dst = append(dst, recordFormat)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(recs)))
	for i := range recs {
		ek := &recs[i]
		kl := uint32(len(ek.Key))
		if ek.Tombstone {
			kl |= tombstoneBit
		}
		dst = binary.LittleEndian.AppendUint32(dst, kl)
		dst = binary.LittleEndian.AppendUint64(dst, ek.CutSeq)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ek.Versions)))
		dst = append(dst, ek.Key...)
		for j := range ek.Versions {
			v := &ek.Versions[j]
			dst = binary.LittleEndian.AppendUint64(dst, v.Seq)
			dst = binary.LittleEndian.AppendUint64(dst, v.CreatedAt)
			dst = binary.LittleEndian.AppendUint32(dst, v.CRC)
			dst = append(dst, v.Flags)
			dst = binary.LittleEndian.AppendUint64(dst, v.TxnID)
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(v.Value)))
			dst = append(dst, v.Value...)
		}
	}
	return dst
}

// DecodeRecordsInto parses a record frame into recs[:0], reusing recs'
// backing array and each reused record's Versions backing, and returns
// the records. Keys and values alias b: the caller must be done with
// them before b is reused (ImportKey copies both into the device).
// A frame of an unknown format, one that ends early, or one with bytes
// after its last record is refused. Counts are checked against the bytes
// left before anything is sized from them, so a hostile count cannot
// make the decoder allocate. The records are not checked for sense;
// a receiver runs ExportKey.Valid on each before importing any.
func DecodeRecordsInto(b []byte, recs []ExportKey) ([]ExportKey, error) {
	recs = recs[:0]
	if len(b) < frameHeaderSize {
		return recs, errRecordShort
	}
	if b[0] != recordFormat {
		return recs, errRecordFormat
	}
	n := binary.LittleEndian.Uint32(b[1:])
	b = b[frameHeaderSize:]
	if uint64(n) > uint64(len(b)/recordHeaderSize) {
		return recs, errRecordShort
	}
	if cap(recs) < int(n) {
		recs = make([]ExportKey, 0, n)
	}
	for range n {
		if len(b) < recordHeaderSize {
			return recs, errRecordShort
		}
		kl := binary.LittleEndian.Uint32(b)
		cut := binary.LittleEndian.Uint64(b[4:])
		nv := binary.LittleEndian.Uint32(b[12:])
		b = b[recordHeaderSize:]
		klen := uint64(kl &^ tombstoneBit)
		if klen > uint64(len(b)) || uint64(nv) > uint64(len(b)-int(klen))/versionHeadSize {
			return recs, errRecordShort
		}
		recs = recs[:len(recs)+1]
		ek := &recs[len(recs)-1]
		vs := ek.Versions[:0]
		if cap(vs) < int(nv) {
			vs = make([]ExportVersion, 0, nv)
		}
		*ek = ExportKey{Key: b[:klen:klen], Tombstone: kl&tombstoneBit != 0, CutSeq: cut}
		b = b[klen:]
		for range nv {
			if len(b) < versionHeadSize {
				return recs, errRecordShort
			}
			v := ExportVersion{
				Seq:       binary.LittleEndian.Uint64(b),
				CreatedAt: binary.LittleEndian.Uint64(b[8:]),
				CRC:       binary.LittleEndian.Uint32(b[16:]),
				Flags:     b[20],
				TxnID:     binary.LittleEndian.Uint64(b[21:]),
			}
			vlen := uint64(binary.LittleEndian.Uint32(b[29:]))
			b = b[versionHeadSize:]
			if vlen > uint64(len(b)) {
				return recs, errRecordShort
			}
			v.Value = b[:vlen:vlen]
			b = b[vlen:]
			vs = append(vs, v)
		}
		ek.Versions = vs
	}
	if len(b) != 0 {
		return recs, errRecordTail
	}
	return recs, nil
}
