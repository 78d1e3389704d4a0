package kv

import (
	"encoding/binary"
	"fmt"

	"efactory/internal/nvm"
)

// Table is the eFactory hash index: an open-addressing, linear-probing
// table stored inside an nvm.Device window so clients can read entries with
// one-sided RDMA. Each 32-byte entry holds the key hash, two packed object
// locations (one per data pool — the second is used during log cleaning,
// §4.4), and a flags word with the mark bit saying which location belongs
// to the current working pool.
//
//	word 0: KeyHash (0 = empty slot)
//	word 1: Loc[0]  packed offset|len, pool A
//	word 2: Loc[1]  packed offset|len, pool B
//	word 3: flags   bit0 = mark (current pool index), bit1 = tombstone,
//	        bit2 = free; bits 8+ carry the cut sequence (see CutSeq)
//
// Every word is updated with an 8-byte atomic store and flushed, so a crash
// can never expose a half-written location.
type Table struct {
	dev  nvm.Device
	base int
	n    int
}

// EntrySize is the on-NVM size of one hash entry.
const EntrySize = 32

// Entry flag bits.
const (
	entryMark      = 1 << 0
	entryTombstone = 1 << 1
	entryFree      = 1 << 2 // slot reclaimed by log cleaning; reusable but
	// probing must continue past it (open addressing cannot simply empty
	// a slot without breaking probe chains)
)

// entryFlagBits reserves the low byte of the flags word for flag bits; the
// remaining 56 bits carry the entry's cut sequence.
const entryFlagBits = 8

// Entry is a decoded hash-table entry.
type Entry struct {
	KeyHash uint64
	Loc     [2]uint64
	Flags   uint64
}

// Mark returns the index (0 or 1) of the current working pool's location.
func (e *Entry) Mark() int { return int(e.Flags & entryMark) }

// Tombstone reports whether the key was deleted.
func (e *Entry) Tombstone() bool { return e.Flags&entryTombstone != 0 }

// Free reports whether the slot was reclaimed and holds no live key.
func (e *Entry) Free() bool { return e.Flags&entryFree != 0 }

// CutSeq returns the entry's cut sequence: every version of this key with
// a smaller sequence number predates an acknowledged DELETE and is dead,
// no matter what its own flags say. It is recorded when a re-PUT clears a
// tombstone — the version chain is cut at that moment, but pre-delete
// versions still sit in the log looking valid and durable, and the log
// cleaner and recovery scan the log, not the chain. Zero means no cut.
func (e *Entry) CutSeq() uint64 { return e.Flags >> entryFlagBits }

// Head is the head rule (DESIGN.md, "Log cleaning"): of the candidate
// versions in en's two locations, cand[i] for Loc[i] (nil for none), it
// skips one below en's cut, then takes the higher sequence number; a tie
// can only be a migrated copy of the same version and goes to the staged
// one, outside the current pool. ok is false when neither qualifies.
func Head(en Entry, cand [2]*Header) (loc int, ok bool) {
	for _, i := range [2]int{1 - en.Mark(), en.Mark()} {
		if c := cand[i]; c != nil && c.Seq >= en.CutSeq() && (!ok || c.Seq > cand[loc].Seq) {
			loc, ok = i, true
		}
	}
	return loc, ok
}

// Current returns the packed location in the current working pool.
func (e *Entry) Current() uint64 { return e.Loc[e.Mark()] }

// Other returns the packed location in the non-current pool.
func (e *Entry) Other() uint64 { return e.Loc[1-e.Mark()] }

// DecodeEntry parses an entry from raw bytes (e.g. fetched by RDMA read).
func DecodeEntry(b []byte) Entry {
	return Entry{
		KeyHash: binary.LittleEndian.Uint64(b[0:]),
		Loc: [2]uint64{
			binary.LittleEndian.Uint64(b[8:]),
			binary.LittleEndian.Uint64(b[16:]),
		},
		Flags: binary.LittleEndian.Uint64(b[24:]),
	}
}

// TableBytes returns the device window size needed for n buckets.
func TableBytes(n int) int { return n * EntrySize }

// NewTable creates a table of n buckets over dev[base, base+n*EntrySize).
// The window must be zeroed (fresh device) or hold a previous table of the
// same geometry (recovery).
func NewTable(dev nvm.Device, base, n int) *Table {
	if n <= 0 {
		panic("kv: table needs at least one bucket")
	}
	if base%nvm.LineSize != 0 {
		panic("kv: table base must be line-aligned")
	}
	if base+TableBytes(n) > dev.Size() {
		panic(fmt.Sprintf("kv: table [%d, %d) outside device", base, base+TableBytes(n)))
	}
	return &Table{dev: dev, base: base, n: n}
}

// N returns the bucket count.
func (t *Table) N() int { return t.n }

// Bytes returns the size of the table window.
func (t *Table) Bytes() int { return TableBytes(t.n) }

// BucketIndex returns the home bucket of a key hash.
func (t *Table) BucketIndex(keyHash uint64) int { return int(keyHash % uint64(t.n)) }

// BucketOffset returns the window-relative byte offset of bucket i — the
// offset a client passes to an RDMA read of the entry.
func (t *Table) BucketOffset(i int) int { return i * EntrySize }

// Entry loads bucket i with one device call, like ReadHeader: lookups
// probe one entry per step on the GET and PUT hot paths, so they pay one
// line per probe, not a lock hold per word, and the words come back by
// value, so nothing escapes through the Device interface. Each word is
// written atomically, so the load observes exactly the states the update
// protocol persists.
func (t *Table) Entry(i int) Entry {
	w := entryWords(t.dev, t.base+t.BucketOffset(i))
	return Entry{KeyHash: w[0], Loc: [2]uint64{w[1], w[2]}, Flags: w[3]}
}

// entryWords loads the four words of the EntrySize-byte entry at device
// offset a from the one line that holds it: an entry in a line-aligned
// window never straddles a line.
func entryWords(dev nvm.Device, a int) (w [EntrySize / 8]uint64) {
	line := dev.ReadLine(a &^ (nvm.LineSize - 1))
	copy(w[:], line[a%nvm.LineSize/8:])
	return w
}

// Lookup probes for a key hash and returns the bucket index and entry.
// Probing stops at an empty slot or after a full cycle.
func (t *Table) Lookup(keyHash uint64) (int, Entry, bool) {
	i := t.BucketIndex(keyHash)
	for probes := 0; probes < t.n; probes++ {
		e := t.Entry(i)
		if e.KeyHash == 0 {
			return 0, Entry{}, false
		}
		if e.KeyHash == keyHash && !e.Free() {
			return i, e, true
		}
		i++
		if i == t.n {
			i = 0
		}
	}
	return 0, Entry{}, false
}

// LookupAt checks a cached slot hint: it returns bucket i's entry if that
// bucket still holds keyHash (and was not reclaimed). A stale hint returns
// ok == false and the caller falls back to a full Lookup, so hints can
// only skip probe work, never change a lookup's result.
func (t *Table) LookupAt(i int, keyHash uint64) (Entry, bool) {
	if i < 0 || i >= t.n {
		return Entry{}, false
	}
	e := t.Entry(i)
	if e.KeyHash == keyHash && !e.Free() {
		return e, true
	}
	return Entry{}, false
}

// FindSlot locates the bucket for keyHash, claiming an empty slot if the
// key is absent. existed reports whether the key was already present; ok is
// false only when the table is full.
func (t *Table) FindSlot(keyHash uint64) (idx int, existed, ok bool) {
	i := t.BucketIndex(keyHash)
	firstFree := -1
	for probes := 0; probes < t.n; probes++ {
		e := t.Entry(i)
		if e.KeyHash == keyHash && !e.Free() {
			return i, true, true
		}
		if e.Free() && firstFree < 0 {
			firstFree = i
		}
		if e.KeyHash == 0 {
			if firstFree >= 0 {
				i = firstFree
				break
			}
			t.setWord(i, 0, keyHash)
			return i, false, true
		}
		i++
		if i == t.n {
			i = 0
		}
	}
	if firstFree < 0 {
		return 0, false, false
	}
	// Reuse a reclaimed slot: install the hash, then clear the free flag
	// (a racing client that reads the intermediate state sees loc == 0 and
	// falls back to the RPC path). The slot starts over from mark 0 like a
	// fresh one: the mark it was freed under is stale after an even number
	// of cleanings, and a wrong mark reads the two locations as each
	// other's.
	i = firstFree
	t.setWord(i, 0, keyHash)
	t.SetLoc(i, 0, 0)
	t.SetLoc(i, 1, 0)
	t.SetFlags(i, 0)
	return i, false, true
}

// Clear reclaims bucket i after log cleaning found no live version for its
// key: locations are zeroed and the slot is flagged free for reuse. The
// key-hash word is left in place so linear-probe chains through this slot
// keep working.
func (t *Table) Clear(i int) {
	e := t.Entry(i)
	t.SetLoc(i, 0, 0)
	t.SetLoc(i, 1, 0)
	t.SetFlags(i, e.Flags|entryFree)
}

// Release gives back a slot FindSlot just claimed for a PUT whose log
// allocation then failed. The key-hash word must stay in place — another
// key claimed later in this probe chain would become unreachable if the
// slot went back to empty — so release is the same persisted state as a
// cleaner reclaim: locations zeroed, slot flagged free for reuse.
func (t *Table) Release(i int) { t.Clear(i) }

// Occupied returns the number of slots holding a live (claimed, not
// reclaimed) key, tombstoned ones included. Torture harnesses use it to
// detect slot leaks; it is not meant for hot paths.
func (t *Table) Occupied() int {
	c := 0
	for i := 0; i < t.n; i++ {
		e := t.Entry(i)
		if e.KeyHash != 0 && !e.Free() {
			c++
		}
	}
	return c
}

// setWord atomically stores v into word w of bucket i and persists it.
func (t *Table) setWord(i, w int, v uint64) {
	addr := t.base + t.BucketOffset(i) + 8*w
	t.dev.Write8(addr, v)
	t.dev.Flush(addr, 8)
	t.dev.Drain()
}

// SetLoc atomically updates location slot which (0 or 1) of bucket i.
func (t *Table) SetLoc(i, which int, loc uint64) { t.setWord(i, 1+which, loc) }

// SetFlags atomically updates the flags word of bucket i.
func (t *Table) SetFlags(i int, flags uint64) { t.setWord(i, 3, flags) }

// Publish points the current-pool location of bucket i at loc: the PUT
// step 3 metadata update.
func (t *Table) Publish(i int, loc uint64) {
	e := t.Entry(i)
	t.SetLoc(i, e.Mark(), loc)
}

// Delete tombstones bucket i. The space is reclaimed by log cleaning.
func (t *Table) Delete(i int) {
	e := t.Entry(i)
	t.SetFlags(i, e.Flags|entryTombstone)
}

// Undelete clears the tombstone (a re-PUT of a deleted key) and records
// cutSeq, the sequence number of the version being published: everything
// older is pre-delete history and must stay dead. Both land in one
// persisted 8-byte word, so there is no crash window between them.
func (t *Table) Undelete(i int, cutSeq uint64) {
	e := t.Entry(i)
	t.SetFlags(i, cutSeq<<entryFlagBits|e.Flags&uint64(entryMark|entryFree))
}

// SetMark forces bucket i's mark bit (used when claiming a slot — which
// FindSlot leaves at mark 0 — while the server's current pool is 1, so all
// entries agree on the current pool).
func (t *Table) SetMark(i, mark int) {
	e := t.Entry(i)
	t.SetFlags(i, e.Flags&^uint64(entryMark)|uint64(mark&1))
}

// FlipMark makes pool mark bucket i's current pool and clears the other
// location, the final step of log cleaning for each migrated entry. It
// names the pool rather than toggling, so an entry already on it (created
// while the cleaner merged) keeps its only location.
func (t *Table) FlipMark(i, mark int) {
	e := t.Entry(i)
	if e.Mark() != mark {
		t.SetFlags(i, e.Flags^entryMark)
	}
	if e.Loc[1-mark] != 0 {
		t.SetLoc(i, 1-mark, 0)
	}
}

// Range iterates over all occupied, non-tombstoned buckets.
func (t *Table) Range(fn func(i int, e Entry) bool) {
	for i := 0; i < t.n; i++ {
		e := t.Entry(i)
		if e.KeyHash == 0 || e.Tombstone() || e.Free() {
			continue
		}
		if !fn(i, e) {
			return
		}
	}
}

// RangeAll iterates every slot that holds a key hash, including tombstoned
// ones (used by the log cleaner's final sweep and by recovery).
func (t *Table) RangeAll(fn func(i int, e Entry) bool) {
	for i := 0; i < t.n; i++ {
		e := t.Entry(i)
		if e.KeyHash == 0 || e.Free() {
			continue
		}
		if !fn(i, e) {
			return
		}
	}
}
