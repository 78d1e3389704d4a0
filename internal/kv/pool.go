package kv

import (
	"fmt"

	"efactory/internal/nvm"
)

// Pool is a log-structured data pool: an append-only allocator over a
// contiguous window of an nvm.Device. Objects are updated out-of-place
// (paper §4.2.1), which gives remote atomic updates and naturally retains
// previous versions for consistency recovery.
//
// Offsets handed out by Alloc are pool-relative, matching the RDMA offsets
// clients use against the MR registered over the same window.
type Pool struct {
	dev  nvm.Device
	base int // window start within dev
	cap  int // window length
	head int // next free pool-relative offset
}

// NewPool creates a pool over dev[base, base+capacity).
func NewPool(dev nvm.Device, base, capacity int) *Pool {
	if base < 0 || capacity <= 0 || base+capacity > dev.Size() {
		panic(fmt.Sprintf("kv: pool [%d, %d) outside device of size %d", base, base+capacity, dev.Size()))
	}
	if base%nvm.LineSize != 0 {
		panic("kv: pool base must be line-aligned")
	}
	return &Pool{dev: dev, base: base, cap: capacity}
}

// Device returns the backing device.
func (p *Pool) Device() nvm.Device { return p.dev }

// Base returns the window start within the device.
func (p *Pool) Base() int { return p.base }

// Cap returns the pool capacity in bytes.
func (p *Pool) Cap() int { return p.cap }

// Used returns the number of allocated bytes.
func (p *Pool) Used() int { return p.head }

// Free returns the remaining bytes.
func (p *Pool) Free() int { return p.cap - p.head }

// Alloc reserves size bytes (already rounded by ObjectSize) and returns the
// pool-relative offset, or ok == false if the pool is full.
func (p *Pool) Alloc(size int) (off uint64, ok bool) {
	if size <= 0 || size%nvm.LineSize != 0 {
		panic(fmt.Sprintf("kv: Alloc size %d not a positive line multiple", size))
	}
	if p.head+size > p.cap {
		return 0, false
	}
	off = uint64(p.head)
	p.head += size
	return off, true
}

// AppendObject allocates space for an object, writes its header and key
// (volatile), flushes them, and returns the pool-relative offset. The value
// region is left for the writer (client DMA or server copy). This is the
// server side of PUT steps 2-3 in Figure 5.
func (p *Pool) AppendObject(h *Header, key []byte) (off uint64, ok bool) {
	size := ObjectSize(len(key), h.VLen)
	off, ok = p.Alloc(size)
	if !ok {
		return 0, false
	}
	h.KLen = len(key)
	h.Magic = Magic
	WriteHeader(p.dev, p.base, off, h)
	p.dev.Write(p.base+int(off)+KeyOffset(), key)
	// Persist header + key so the version chain survives a crash even if
	// the value never arrives (the CRC then exposes the torn value).
	p.dev.Flush(p.base+int(off), HeaderSize+pad8(len(key)))
	p.dev.Drain()
	return off, true
}

// ReadObject returns the header, key, and value at off via the coherent
// view. The value may be torn if the client write raced; callers verify
// with the CRC.
func (p *Pool) ReadObject(off uint64) (Header, []byte, []byte) {
	h := ReadHeader(p.dev, p.base, off)
	key := make([]byte, h.KLen)
	p.dev.Read(p.base+int(off)+KeyOffset(), key)
	val := make([]byte, h.VLen)
	p.dev.Read(p.base+int(off)+ValueOffset(h.KLen), val)
	return h, key, val
}

// ReadValue returns only the value bytes of the object at off.
func (p *Pool) ReadValue(off uint64, klen, vlen int) []byte {
	return p.ReadValueInto(nil, off, klen, vlen)
}

// ReadValueInto reads the value bytes of the object at off into dst,
// growing it only when too small, and returns the filled slice. The
// allocation-free twin of ReadValue for hot paths that own scratch space.
func (p *Pool) ReadValueInto(dst []byte, off uint64, klen, vlen int) []byte {
	if cap(dst) < vlen {
		dst = make([]byte, vlen)
	}
	dst = dst[:vlen]
	p.dev.Read(p.base+int(off)+ValueOffset(klen), dst)
	return dst
}

// ReadKeyInto reads the key bytes of the object at off into dst, growing
// it only when too small, and returns the filled slice.
func (p *Pool) ReadKeyInto(dst []byte, off uint64, klen int) []byte {
	if cap(dst) < klen {
		dst = make([]byte, klen)
	}
	dst = dst[:klen]
	p.dev.Read(p.base+int(off)+KeyOffset(), dst)
	return dst
}

// WriteValue stores value bytes into the object at off (the server-copy
// path used by the RPC baseline and by log cleaning).
func (p *Pool) WriteValue(off uint64, klen int, value []byte) {
	p.dev.Write(p.base+int(off)+ValueOffset(klen), value)
}

// FlushObject persists the whole object at off.
func (p *Pool) FlushObject(off uint64, klen, vlen int) {
	p.dev.Flush(p.base+int(off), ObjectSize(klen, vlen))
	p.dev.Drain()
}

// FlushRange persists the pool-relative byte range [off, off+n) with a
// single flush + drain pair. Batched background persistence uses it to
// amortize the drain across a run of contiguous verified objects.
func (p *Pool) FlushRange(off uint64, n int) {
	p.dev.Flush(p.base+int(off), n)
	p.dev.Drain()
}

// SetFlagsVolatile updates the flags byte of the object at off without
// persisting it. Callers batching flag flips follow with one FlushRange
// covering the run; the value bytes must already be durable so the
// durable-flag-implies-durable-value invariant holds at every crash point.
func (p *Pool) SetFlagsVolatile(off uint64, flags uint8) {
	SetFlags(p.dev, p.base, off, flags)
}

// SetNextPtr updates and persists the NextPtr word of the object at off
// (an 8-byte atomic store: the field is 8-aligned within the header).
func (p *Pool) SetNextPtr(off uint64, next uint64) {
	addr := p.base + int(off) + offNextPtr
	p.dev.Write8(addr, next)
	p.dev.Flush(addr, 8)
	p.dev.Drain()
}

// SetVersionSeq updates and persists the Seq word of the object at off
// (an 8-byte atomic store: the field is 8-aligned within the header). The
// transaction layer uses it to assign a staged version its commit-time
// sequence number.
func (p *Pool) SetVersionSeq(off uint64, seq uint64) {
	addr := p.base + int(off) + offSeq
	p.dev.Write8(addr, seq)
	p.dev.Flush(addr, 8)
	p.dev.Drain()
}

// SetPrePtr updates and persists the PrePtr word of the object at off,
// linking a committing staged version to the previous version of its key.
func (p *Pool) SetPrePtr(off uint64, pre uint64) {
	addr := p.base + int(off) + offPrePtr
	p.dev.Write8(addr, pre)
	p.dev.Flush(addr, 8)
	p.dev.Drain()
}

// SetFlags updates and persists the flags byte of the object at off.
func (p *Pool) SetFlags(off uint64, flags uint8) {
	SetFlags(p.dev, p.base, off, flags)
	p.dev.Flush(p.base+int(off), HeaderSize)
	p.dev.Drain()
}

// Header returns the decoded header of the object at off.
func (p *Pool) Header(off uint64) Header {
	return ReadHeader(p.dev, p.base, off)
}

// Scan walks the log from the start, yielding each object's offset and
// header until it reaches unallocated space or the given limit. It is the
// backbone of both the background verification thread and crash recovery.
// The callback returns false to stop the scan.
func (p *Pool) Scan(limit int, fn func(off uint64, h Header) bool) {
	if limit < 0 || limit > p.cap {
		limit = p.cap
	}
	off := 0
	for off+HeaderSize <= limit {
		h := ReadHeader(p.dev, p.base, uint64(off))
		if h.Magic != Magic || h.KLen <= 0 || h.VLen < 0 {
			return // end of log (or torn allocation)
		}
		if !fn(uint64(off), h) {
			return
		}
		off += ObjectSize(h.KLen, h.VLen)
	}
}

// ScanPersisted is Scan against the post-crash (persisted-only) view; used
// by recovery, where the volatile overlay no longer exists.
func (p *Pool) ScanPersisted(fn func(off uint64, h Header) bool) {
	off := 0
	for off+HeaderSize <= p.cap {
		b := make([]byte, HeaderSize)
		p.dev.ReadPersisted(p.base+off, b)
		h := DecodeHeader(b)
		if h.Magic != Magic || h.KLen <= 0 || h.VLen < 0 {
			return
		}
		if !fn(uint64(off), h) {
			return
		}
		off += ObjectSize(h.KLen, h.VLen)
	}
}

// SetHead fast-forwards the allocation head (used by recovery after
// scanning the surviving log).
func (p *Pool) SetHead(head int) {
	if head < 0 || head > p.cap {
		panic("kv: SetHead out of range")
	}
	if head%nvm.LineSize != 0 {
		head = (head + nvm.LineSize - 1) &^ (nvm.LineSize - 1)
	}
	p.head = head
}
