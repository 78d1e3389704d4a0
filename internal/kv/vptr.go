package kv

// Version pointers stored in object headers encode (pool, offset, length)
// so version chains can cross data pools during log cleaning:
//
//	bit  62    pool index
//	bits 40-61 total object length (line multiple, < MaxObjectSize)
//	bits 0-39  pool-relative offset
//
// NilPtr (all ones) marks the absence of a predecessor/successor.
const (
	vptrPoolShift = 62
	vptrLenShift  = 40
	vptrLenMask   = 1<<22 - 1
	vptrOffMask   = 1<<40 - 1
)

// PackVPtr builds a version pointer.
func PackVPtr(pool int, off uint64, totalLen int) uint64 {
	if off > vptrOffMask || totalLen <= 0 || totalLen >= MaxObjectSize {
		panic("kv: version pointer out of range")
	}
	return uint64(pool&1)<<vptrPoolShift | uint64(totalLen)<<vptrLenShift | off
}

// UnpackVPtr splits a version pointer; ok is false for NilPtr.
func UnpackVPtr(v uint64) (pool int, off uint64, totalLen int, ok bool) {
	if v == NilPtr {
		return 0, 0, 0, false
	}
	return int(v >> vptrPoolShift & 1), v & vptrOffMask, int(v >> vptrLenShift & vptrLenMask), true
}
