// Package kv is the storage substrate shared by eFactory and every baseline
// (the paper implements all five systems "on the same code base", §5.3): the
// on-NVM object layout with co-located metadata, the log-structured data
// pool, and the RDMA-readable hash tables.
//
// All structures live inside an nvm.Device so that persistence is explicit:
// a metadata update is durable only after the covering lines are flushed,
// and tests can crash the device at any point to check recoverability.
package kv

import (
	"encoding/binary"

	"efactory/internal/nvm"
)

// Object layout inside the data pool (paper Figure 4, with metadata
// co-located with the object — the choice §6.1 credits for eFactory's edge
// over Forca's extra indirection layer):
//
//	offset size field
//	0      8    PrePtr    pool offset of the previous version (NilPtr if none)
//	8      8    (reserved, written NilPtr: Figure 4's NextPtr, which nothing read)
//	16     8    Seq       global write sequence number
//	24     8    CreatedAt virtual ns when the server allocated the region
//	32     4    CRC       checksum of the value bytes
//	36     4    KLen      key length
//	40     4    VLen      value length
//	44     1    Flags     Valid | Durable | (reserved) | Txn | TxnRec bits
//	45     3    (pad)
//	48     4    Magic     layout guard, set at allocation
//	52     4    (reserved)
//	56     8    TxnID     transaction id (0 outside transactions)
//	64     ...  key bytes, padded to 8
//	...    ...  value bytes
//
// The header occupies exactly one cache line, so persisting a flag update
// flushes a single line, and the durability flag travels with the object in
// a single RDMA read (the key enabler of the hybrid read scheme, §4.3.3).
const (
	HeaderSize = 64

	offPrePtr    = 0
	offReserved  = 8
	offSeq       = 16
	offCreatedAt = 24
	offCRC       = 32
	offKLen      = 36
	offVLen      = 40
	offFlags     = 44
	offMagic     = 48
	offTxnID     = 56
)

// NilPtr marks the absence of a previous version.
const NilPtr = ^uint64(0)

// Magic guards against interpreting unallocated pool space as an object.
const Magic = 0x65464143 // "eFAC"

// Flag bits. Bit 2 is reserved and ignored: it was §4.4's transfer flag,
// which nothing read.
const (
	FlagValid   = 1 << 0 // version participates in its object's chain
	FlagDurable = 1 << 1 // verified + persisted (the durability flag)
	FlagTxn     = 1 << 3 // staged by an uncommitted transaction (invisible)
	FlagTxnRec  = 1 << 4 // transaction commit record (not key data)
)

// Header is the decoded object metadata.
type Header struct {
	PrePtr    uint64
	Seq       uint64
	CreatedAt uint64
	CRC       uint32
	KLen      int
	VLen      int
	Flags     uint8
	Magic     uint32
	TxnID     uint64
}

// Valid reports the valid bit.
func (h *Header) Valid() bool { return h.Flags&FlagValid != 0 }

// Durable reports the durability flag.
func (h *Header) Durable() bool { return h.Flags&FlagDurable != 0 }

// Staged reports whether the object is a transaction-staged version that
// has not been committed (never visible to reads or recovery).
func (h *Header) Staged() bool { return h.Flags&FlagTxn != 0 && h.Flags&FlagValid == 0 }

// EncodeHeader serializes h into a HeaderSize-byte buffer.
func EncodeHeader(h *Header) []byte {
	b := make([]byte, HeaderSize)
	binary.LittleEndian.PutUint64(b[offPrePtr:], h.PrePtr)
	binary.LittleEndian.PutUint64(b[offReserved:], NilPtr)
	binary.LittleEndian.PutUint64(b[offSeq:], h.Seq)
	binary.LittleEndian.PutUint64(b[offCreatedAt:], h.CreatedAt)
	binary.LittleEndian.PutUint32(b[offCRC:], h.CRC)
	binary.LittleEndian.PutUint32(b[offKLen:], uint32(h.KLen))
	binary.LittleEndian.PutUint32(b[offVLen:], uint32(h.VLen))
	b[offFlags] = h.Flags
	binary.LittleEndian.PutUint32(b[offMagic:], h.Magic)
	binary.LittleEndian.PutUint64(b[offTxnID:], h.TxnID)
	return b
}

// DecodeHeader parses an object header from b (at least HeaderSize bytes).
func DecodeHeader(b []byte) Header {
	return Header{
		PrePtr:    binary.LittleEndian.Uint64(b[offPrePtr:]),
		Seq:       binary.LittleEndian.Uint64(b[offSeq:]),
		CreatedAt: binary.LittleEndian.Uint64(b[offCreatedAt:]),
		CRC:       binary.LittleEndian.Uint32(b[offCRC:]),
		KLen:      int(binary.LittleEndian.Uint32(b[offKLen:])),
		VLen:      int(binary.LittleEndian.Uint32(b[offVLen:])),
		Flags:     b[offFlags],
		Magic:     binary.LittleEndian.Uint32(b[offMagic:]),
		TxnID:     binary.LittleEndian.Uint64(b[offTxnID:]),
	}
}

// pad8 rounds n up to a multiple of 8.
func pad8(n int) int { return (n + 7) &^ 7 }

// ObjectSize returns the total pool footprint of an object with the given
// key and value lengths: header + padded key + value, rounded up to a cache
// line so every object starts line-aligned.
func ObjectSize(klen, vlen int) int {
	n := HeaderSize + pad8(klen) + vlen
	return (n + nvm.LineSize - 1) &^ (nvm.LineSize - 1)
}

// KeyOffset returns the offset of the key bytes within an object.
func KeyOffset() int { return HeaderSize }

// ValueOffset returns the offset of the value bytes within an object whose
// key is klen bytes.
func ValueOffset(klen int) int { return HeaderSize + pad8(klen) }

// WriteHeader stores (volatile) an encoded header at pool offset off, as
// one line: the header is exactly the object's first cache line (objects
// are line-aligned), so one WriteLine moves it under one device lock hold
// instead of one per word. The words travel in an array by value, so
// nothing escapes through the Device interface and the PUT allocation
// path stays off the heap. The reserved word 8 is written NilPtr, and the
// pad, reserved, and trailing bytes zero, exactly as EncodeHeader leaves
// them.
func WriteHeader(dev nvm.Device, base int, off uint64, h *Header) {
	dev.WriteLine(base+int(off), [8]uint64{
		offPrePtr / 8:    h.PrePtr,
		offReserved / 8:  NilPtr,
		offSeq / 8:       h.Seq,
		offCreatedAt / 8: h.CreatedAt,
		offCRC / 8:       uint64(h.CRC) | uint64(uint32(h.KLen))<<32,
		offVLen / 8:      uint64(uint32(h.VLen)) | uint64(h.Flags)<<32,
		offMagic / 8:     uint64(h.Magic),
		offTxnID / 8:     h.TxnID,
	})
}

// ReadHeader loads a header from pool offset off through the coherent
// view, as one line: header reads dominate the GET path and the
// background scan, so they take one ReadLine (one device lock hold)
// rather than one load per word, and the words come back by value, so
// no buffer escapes through the Device interface.
func ReadHeader(dev nvm.Device, base int, off uint64) Header {
	w := dev.ReadLine(base + int(off))
	wCRC := w[offCRC/8]   // CRC | KLen<<32
	wVLen := w[offVLen/8] // VLen | Flags<<32
	return Header{
		PrePtr:    w[offPrePtr/8],
		Seq:       w[offSeq/8],
		CreatedAt: w[offCreatedAt/8],
		CRC:       uint32(wCRC),
		KLen:      int(uint32(wCRC >> 32)),
		VLen:      int(uint32(wVLen)),
		Flags:     uint8(wVLen >> 32),
		Magic:     uint32(w[offMagic/8]),
		TxnID:     w[offTxnID/8],
	}
}

// SetFlags atomically updates the flags byte of the header at off. The
// flags share an 8-byte word with padding only, so an 8-byte atomic store
// updates them without touching neighbouring fields. It is two device
// calls, once per object the background thread verifies: the word comes
// from one ReadLine of the header line, and goes back with Write8, the
// failure-atomic unit, so the flip never rewrites the rest of the header.
func SetFlags(dev nvm.Device, base int, off uint64, flags uint8) {
	// offFlags is 44: not 8-aligned. Read-modify-write the containing
	// aligned word (bytes 40..47 hold VLen, Flags, pad — VLen is
	// immutable after allocation, so this is safe).
	a := base + int(off)
	const shift = (offFlags - offVLen) * 8 // little-endian: byte i = bits 8i..8i+7
	w := dev.ReadLine(a)[offVLen/8]
	dev.Write8(a+offVLen, w&^(0xff<<shift)|uint64(flags)<<shift)
}
