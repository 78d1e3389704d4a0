package kv

// HashKey computes the 64-bit FNV-1a hash of key, adjusted to never return
// zero (zero marks an empty hash-table slot). Both server and clients use
// this function, so a client can locate a key's bucket without any server
// interaction (GET step 1 in Figure 6).
func HashKey(key []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	if h == 0 {
		return 1
	}
	return h
}

// MaxObjectSize bounds an object's total on-pool length: PackLoc keeps it
// in 24 bits, so a request for anything this large or larger must be
// refused before it reaches the log.
const MaxObjectSize = 1 << 24

// PackLoc encodes an object location — pool-relative offset plus total
// on-pool length — into one 8-byte word so the pair can be updated with a
// single atomic store (the paper's requirement that metadata updates be
// failure-atomic at 8 bytes). Offsets up to 2^40 and lengths up to 2^24 are
// representable. The zero value means "no location".
func PackLoc(off uint64, totalLen int) uint64 {
	if off >= 1<<40 {
		panic("kv: offset exceeds 40 bits")
	}
	if totalLen <= 0 || totalLen >= MaxObjectSize {
		panic("kv: length outside (0, 2^24)")
	}
	return off | uint64(totalLen)<<40
}

// UnpackLoc splits a packed location. ok is false for the zero word.
func UnpackLoc(loc uint64) (off uint64, totalLen int, ok bool) {
	if loc == 0 {
		return 0, 0, false
	}
	return loc & (1<<40 - 1), int(loc >> 40), true
}
