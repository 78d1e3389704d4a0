package kv

import (
	"encoding/binary"
	"fmt"

	"efactory/internal/nvm"
)

// Hopscotch is the Erda-style hash index (paper §5.3.3): hopscotch hashing
// so a key is always within a fixed-size neighborhood of its home bucket —
// which a client can fetch with a single bounded RDMA read — plus an 8-byte
// atomic region per entry packing the offsets of the latest two versions
// and a tag, so metadata updates are failure-atomic.
//
// Entry layout (32 bytes):
//
//	word 0: KeyHash (0 = empty)
//	word 1: atomic region: tag(8) | off1(28) | off2(28)
//	        offsets are in 64-byte units, stored +1 so 0 means "none"
//	word 2: len1(32) | len2(32) — total object lengths for the two versions
//	word 3: hop bitmap of this slot's *home* role (bit d set: the entry
//	        homed here lives in slot home+d)
//
// The lens word is not covered by the atomic region (it does not fit). A
// client racing an update may pair a stale length with a fresh offset; the
// CRC check it performs anyway (that is Erda's read protocol) detects the
// mismatch and falls back to the previous version — the same failure mode
// Erda already tolerates for torn data.
//
// The physical array has n + HopH - 1 slots so neighborhoods never wrap,
// letting clients read a neighborhood with one contiguous RDMA read.
type Hopscotch struct {
	dev  nvm.Device
	base int
	n    int // logical home buckets
}

// HopH is the hopscotch neighborhood size.
const HopH = 8

// HopEntry is a decoded hopscotch entry.
type HopEntry struct {
	KeyHash uint64
	Atomic  uint64
	Lens    uint64
	Hop     uint64
}

// Tag returns the 8-bit version tag from the atomic region.
func (e *HopEntry) Tag() uint8 { return uint8(e.Atomic >> 56) }

// Off1 returns the latest version's pool offset (ok == false if none).
func (e *HopEntry) Off1() (uint64, bool) { return decodeHopOff(e.Atomic >> 28 & (1<<28 - 1)) }

// Off2 returns the previous version's pool offset (ok == false if none).
func (e *HopEntry) Off2() (uint64, bool) { return decodeHopOff(e.Atomic & (1<<28 - 1)) }

// Len1 returns the latest version's total object length.
func (e *HopEntry) Len1() int { return int(e.Lens >> 32) }

// Len2 returns the previous version's total object length.
func (e *HopEntry) Len2() int { return int(e.Lens & (1<<32 - 1)) }

func encodeHopOff(off uint64) uint64 {
	if off%nvm.LineSize != 0 {
		panic("kv: hopscotch offsets must be line-aligned")
	}
	u := off/nvm.LineSize + 1
	if u >= 1<<28 {
		panic("kv: offset exceeds hopscotch atomic-region range")
	}
	return u
}

func decodeHopOff(u uint64) (uint64, bool) {
	if u == 0 {
		return 0, false
	}
	return (u - 1) * nvm.LineSize, true
}

// PackHopAtomic builds the 8-byte atomic region. Pass hasN = false for a
// missing version.
func PackHopAtomic(tag uint8, off1 uint64, has1 bool, off2 uint64, has2 bool) uint64 {
	var w uint64 = uint64(tag) << 56
	if has1 {
		w |= encodeHopOff(off1) << 28
	}
	if has2 {
		w |= encodeHopOff(off2)
	}
	return w
}

// DecodeHopEntry parses an entry from raw bytes (e.g. an RDMA read).
func DecodeHopEntry(b []byte) HopEntry {
	return HopEntry{
		KeyHash: binary.LittleEndian.Uint64(b[0:]),
		Atomic:  binary.LittleEndian.Uint64(b[8:]),
		Lens:    binary.LittleEndian.Uint64(b[16:]),
		Hop:     binary.LittleEndian.Uint64(b[24:]),
	}
}

// HopscotchBytes returns the device window size for n logical buckets.
func HopscotchBytes(n int) int { return (n + HopH - 1) * EntrySize }

// NewHopscotch creates a table with n logical buckets over
// dev[base, base+HopscotchBytes(n)).
func NewHopscotch(dev nvm.Device, base, n int) *Hopscotch {
	if n <= 0 {
		panic("kv: hopscotch needs at least one bucket")
	}
	if base%nvm.LineSize != 0 {
		panic("kv: hopscotch base must be line-aligned")
	}
	if base+HopscotchBytes(n) > dev.Size() {
		panic(fmt.Sprintf("kv: hopscotch [%d, %d) outside device", base, base+HopscotchBytes(n)))
	}
	return &Hopscotch{dev: dev, base: base, n: n}
}

// N returns the logical bucket count.
func (h *Hopscotch) N() int { return h.n }

// Slots returns the physical slot count (n + HopH - 1).
func (h *Hopscotch) Slots() int { return h.n + HopH - 1 }

// Bytes returns the window size.
func (h *Hopscotch) Bytes() int { return HopscotchBytes(h.n) }

// HomeIndex returns the home bucket of a key hash.
func (h *Hopscotch) HomeIndex(keyHash uint64) int { return int(keyHash % uint64(h.n)) }

// BucketOffset returns the window-relative byte offset of slot i: what a
// client RDMA-reads. A neighborhood read fetches HopH*EntrySize bytes from
// BucketOffset(HomeIndex(hash)).
func (h *Hopscotch) BucketOffset(i int) int { return i * EntrySize }

// Entry loads slot i with one device call, as Table.Entry does.
func (h *Hopscotch) Entry(i int) HopEntry {
	w := entryWords(h.dev, h.base+h.BucketOffset(i))
	return HopEntry{KeyHash: w[0], Atomic: w[1], Lens: w[2], Hop: w[3]}
}

func (h *Hopscotch) setWord(i, w int, v uint64) {
	addr := h.base + h.BucketOffset(i) + 8*w
	h.dev.Write8(addr, v)
	h.dev.Flush(addr, 8)
	h.dev.Drain()
}

// SetAtomic atomically updates the atomic region of slot i.
func (h *Hopscotch) SetAtomic(i int, v uint64) { h.setWord(i, 1, v) }

// SetLens updates the lens word of slot i.
func (h *Hopscotch) SetLens(i int, len1, len2 int) {
	h.setWord(i, 2, uint64(len1)<<32|uint64(len2)&(1<<32-1))
}

// Publish records a new latest version for the key at slot i: the previous
// latest becomes version 2, the tag increments, and the whole transition of
// both offsets is a single atomic store (Erda's consistency mechanism).
func (h *Hopscotch) Publish(i int, newOff uint64, newLen int) {
	e := h.Entry(i)
	old1, has1 := e.Off1()
	// Update lens first (non-atomic word), then flip the atomic region;
	// a racing reader sees either (oldAtomic, anyLens) or (newAtomic,
	// newLens) and CRC-verifies whatever it fetched.
	h.SetLens(i, newLen, e.Len1())
	h.SetAtomic(i, PackHopAtomic(e.Tag()+1, newOff, true, old1, has1))
}

// Lookup finds keyHash within its home neighborhood.
func (h *Hopscotch) Lookup(keyHash uint64) (int, HopEntry, bool) {
	home := h.HomeIndex(keyHash)
	hop := h.Entry(home).Hop
	for d := 0; d < HopH; d++ {
		if hop&(1<<d) == 0 {
			continue
		}
		e := h.Entry(home + d)
		if e.KeyHash == keyHash {
			return home + d, e, true
		}
	}
	return 0, HopEntry{}, false
}

// Insert returns the slot for keyHash, displacing entries hopscotch-style
// if the neighborhood is full. existed reports whether the key was already
// present; ok is false if no displacement sequence could make room.
func (h *Hopscotch) Insert(keyHash uint64) (idx int, existed, ok bool) {
	if i, _, found := h.Lookup(keyHash); found {
		return i, true, true
	}
	home := h.HomeIndex(keyHash)
	// Find the first empty physical slot at or after home.
	empty := -1
	for i := home; i < h.Slots(); i++ {
		if h.Entry(i).KeyHash == 0 {
			empty = i
			break
		}
	}
	if empty < 0 {
		return 0, false, false
	}
	// Displace until the empty slot is within the neighborhood.
	for empty-home >= HopH {
		moved := false
		// Consider slots that could relocate into `empty`.
		for cand := empty - (HopH - 1); cand < empty; cand++ {
			if cand < 0 {
				continue
			}
			ce := h.Entry(cand)
			if ce.KeyHash == 0 {
				continue
			}
			cHome := h.HomeIndex(ce.KeyHash)
			if empty-cHome >= HopH {
				continue // moving cand to empty would leave its neighborhood
			}
			// Move cand's payload words to empty.
			h.setWord(empty, 0, ce.KeyHash)
			h.SetAtomic(empty, ce.Atomic)
			h.setWord(empty, 2, ce.Lens)
			// Update cand's home bitmap: bit (cand-cHome) -> (empty-cHome).
			homeE := h.Entry(cHome)
			newHop := homeE.Hop&^(1<<uint(cand-cHome)) | 1<<uint(empty-cHome)
			h.setWord(cHome, 3, newHop)
			// Clear the vacated slot's payload.
			h.setWord(cand, 0, 0)
			h.SetAtomic(cand, 0)
			h.setWord(cand, 2, 0)
			empty = cand
			moved = true
			break
		}
		if !moved {
			return 0, false, false
		}
	}
	// Claim the slot.
	h.setWord(empty, 0, keyHash)
	homeE := h.Entry(home)
	h.setWord(home, 3, homeE.Hop|1<<uint(empty-home))
	return empty, false, true
}
