package kv

import (
	"encoding/binary"
	"math/rand/v2"
	"testing"
)

// TestTableModelBased drives the hash table with a random sequence of
// inserts, updates, deletes, and slot reclamations, mirroring every step
// against a plain map. The table (with its free-slot reuse, which must not
// break linear-probe chains) has to agree with the model at every point.
func TestTableModelBased(t *testing.T) {
	const buckets = 64
	dev := newModelDev()
	tab := NewTable(dev, 0, buckets)
	model := map[uint64]uint64{} // keyHash -> packed loc (0 = absent)
	rng := rand.New(rand.NewPCG(11, 13))

	keyPool := make([]uint64, 48) // intentionally close to table capacity
	for i := range keyPool {
		keyPool[i] = rng.Uint64()
		if keyPool[i] == 0 {
			keyPool[i] = 1
		}
	}

	nextOff := uint64(0)
	for step := 0; step < 4000; step++ {
		kh := keyPool[rng.IntN(len(keyPool))]
		switch rng.IntN(10) {
		case 0, 1, 2, 3, 4, 5: // upsert
			idx, existed, ok := tab.FindSlot(kh)
			if !ok {
				// Table full: only acceptable when the model is at
				// capacity too (load factor near 1 with probing).
				if len(model) < len(keyPool) {
					t.Fatalf("step %d: FindSlot full with %d/%d live keys", step, len(model), buckets)
				}
				continue
			}
			if existed != (model[kh] != 0) {
				// A tombstoned entry still "exists" in the table.
				if !existed {
					t.Fatalf("step %d: existed=%v but model=%v", step, existed, model[kh] != 0)
				}
			}
			loc := PackLoc(nextOff, 64)
			nextOff += 64
			tab.Undelete(idx, uint64(step+1))
			tab.Publish(idx, loc)
			model[kh] = loc
		case 6, 7: // delete (tombstone)
			idx, _, found := tab.Lookup(kh)
			if found != (model[kh] != 0) {
				e := tab.Entry(idx)
				if !(found && e.Tombstone() && model[kh] == 0) {
					t.Fatalf("step %d: lookup found=%v model=%v", step, found, model[kh] != 0)
				}
			}
			if found && model[kh] != 0 {
				tab.Delete(idx)
				delete(model, kh)
			}
		case 8: // reclaim a tombstoned slot (what log cleaning does)
			idx, e, found := tab.Lookup(kh)
			if found && e.Tombstone() && model[kh] == 0 {
				tab.Clear(idx)
			}
		case 9: // verify a random key fully
			idx, e, found := tab.Lookup(kh)
			want, live := model[kh]
			if live {
				if !found || e.Tombstone() {
					t.Fatalf("step %d: live key missing (found=%v)", step, found)
				}
				if e.Current() != want {
					t.Fatalf("step %d: loc %#x, want %#x (idx %d)", step, e.Current(), want, idx)
				}
			} else if found && !e.Tombstone() && e.Current() != 0 {
				t.Fatalf("step %d: deleted key still resolves to %#x", step, e.Current())
			}
		}
	}

	// Final full check.
	for kh, want := range model {
		_, e, found := tab.Lookup(kh)
		if !found || e.Tombstone() || e.Current() != want {
			t.Fatalf("final: key %#x -> (%v, %#x), want %#x", kh, found, e.Current(), want)
		}
	}
}

// newModelDev builds a device big enough for the model test's table.
func newModelDev() *memDev {
	return &memDev{buf: make([]byte, 1<<16)}
}

// memDev is a trivial nvm.Device used by pure data-structure tests where
// persistence semantics are irrelevant.
type memDev struct{ buf []byte }

func (d *memDev) Size() int { return len(d.buf) }
func (d *memDev) Read(off int, dst []byte) {
	copy(dst, d.buf[off:])
}
func (d *memDev) ReadPersisted(off int, dst []byte) { d.Read(off, dst) }
func (d *memDev) Write(off int, src []byte) {
	copy(d.buf[off:], src)
}
func (d *memDev) Write8(off int, v uint64) {
	for i := 0; i < 8; i++ {
		d.buf[off+i] = byte(v >> (8 * i))
	}
}
func (d *memDev) ReadLine(off int) (w [8]uint64) {
	for i := range w {
		w[i] = binary.LittleEndian.Uint64(d.buf[off+8*i:])
	}
	return w
}
func (d *memDev) WriteLine(off int, w [8]uint64) {
	for i, v := range w {
		binary.LittleEndian.PutUint64(d.buf[off+8*i:], v)
	}
}
func (d *memDev) Flush(off, n int) {}
func (d *memDev) Drain()           {}
func (d *memDev) Zero(off, n int) {
	clear(d.buf[off : off+n])
}
