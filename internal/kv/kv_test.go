package kv

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"efactory/internal/nvm"
)

func TestHeaderRoundTrip(t *testing.T) {
	f := func(pre, seq, created uint64, crc uint32, klen, vlen uint16, flags uint8) bool {
		h := Header{
			PrePtr: pre, Seq: seq, CreatedAt: created,
			CRC: crc, KLen: int(klen), VLen: int(vlen), Flags: flags, Magic: Magic,
		}
		b := EncodeHeader(&h)
		dev := nvm.New(HeaderSize)
		WriteHeader(dev, 0, 0, &h)
		line := make([]byte, HeaderSize)
		dev.Read(0, line)
		// Word 8 (Figure 4's NextPtr) is reserved and written NilPtr by
		// both encoders, as when it was a link, so the layout is unchanged.
		return DecodeHeader(b) == h && bytes.Equal(line, b) &&
			binary.LittleEndian.Uint64(b[offReserved:]) == NilPtr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestObjectSizeAlignment(t *testing.T) {
	f := func(klen, vlen uint16) bool {
		n := ObjectSize(int(klen), int(vlen))
		return n%nvm.LineSize == 0 && n >= HeaderSize+int(klen)+int(vlen)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestValueOffsetPadsKey(t *testing.T) {
	if got := ValueOffset(5); got != HeaderSize+8 {
		t.Fatalf("ValueOffset(5) = %d, want %d", got, HeaderSize+8)
	}
	if got := ValueOffset(8); got != HeaderSize+8 {
		t.Fatalf("ValueOffset(8) = %d, want %d", got, HeaderSize+8)
	}
}

func TestHashKeyNeverZeroAndDeterministic(t *testing.T) {
	if HashKey([]byte("key")) != HashKey([]byte("key")) {
		t.Fatal("HashKey not deterministic")
	}
	f := func(key []byte) bool { return HashKey(key) != 0 }
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPackLocRoundTrip(t *testing.T) {
	f := func(off uint32, length uint16) bool {
		if length == 0 {
			return true
		}
		loc := PackLoc(uint64(off), int(length))
		o, l, ok := UnpackLoc(loc)
		return ok && o == uint64(off) && l == int(length)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := UnpackLoc(0); ok {
		t.Fatal("zero word decoded as a location")
	}
}

func newTestPool(size int) *Pool {
	dev := nvm.New(size)
	return NewPool(dev, 0, dev.Size())
}

func TestPoolAllocSequential(t *testing.T) {
	p := newTestPool(4096)
	a, ok := p.Alloc(128)
	if !ok || a != 0 {
		t.Fatalf("first alloc = (%d, %v)", a, ok)
	}
	b, ok := p.Alloc(256)
	if !ok || b != 128 {
		t.Fatalf("second alloc = (%d, %v)", b, ok)
	}
	if p.Used() != 384 || p.Free() != 4096-384 {
		t.Fatalf("Used/Free = %d/%d", p.Used(), p.Free())
	}
}

func TestPoolAllocExhaustion(t *testing.T) {
	p := newTestPool(256)
	if _, ok := p.Alloc(192); !ok {
		t.Fatal("alloc within capacity failed")
	}
	if _, ok := p.Alloc(128); ok {
		t.Fatal("alloc beyond capacity succeeded")
	}
	// But a fitting allocation still works.
	if _, ok := p.Alloc(64); !ok {
		t.Fatal("exact-fit alloc failed")
	}
}

func TestAppendAndReadObject(t *testing.T) {
	p := newTestPool(8192)
	h := Header{PrePtr: NilPtr, Seq: 7, CRC: 0xabc, VLen: 11, Flags: FlagValid}
	off, ok := p.AppendObject(&h, []byte("mykey"))
	if !ok {
		t.Fatal("append failed")
	}
	p.WriteValue(off, 5, []byte("hello world"))
	got, key, val := p.ReadObject(off)
	if got.Seq != 7 || got.CRC != 0xabc || got.KLen != 5 || got.VLen != 11 {
		t.Fatalf("header = %+v", got)
	}
	if string(key) != "mykey" || string(val) != "hello world" {
		t.Fatalf("key/val = %q/%q", key, val)
	}
	if got.Magic != Magic {
		t.Fatal("magic not set by AppendObject")
	}
}

func TestAppendPersistsHeaderAndKey(t *testing.T) {
	dev := nvm.New(8192)
	p := NewPool(dev, 0, 8192)
	h := Header{PrePtr: NilPtr, VLen: 64, Flags: FlagValid}
	off, _ := p.AppendObject(&h, []byte("durable-key"))
	// Value never written; crash with zero survival.
	dev.Crash(1, 0)
	hdr := ReadHeader(dev, 0, off)
	if hdr.Magic != Magic || hdr.KLen != 11 {
		t.Fatalf("header lost in crash: %+v", hdr)
	}
	key := make([]byte, 11)
	dev.Read(int(off)+KeyOffset(), key)
	if string(key) != "durable-key" {
		t.Fatalf("key lost in crash: %q", key)
	}
}

func TestPoolScanWalksLog(t *testing.T) {
	p := newTestPool(1 << 14)
	var offs []uint64
	for i := 0; i < 5; i++ {
		h := Header{PrePtr: NilPtr, Seq: uint64(i), VLen: 100 * (i + 1), Flags: FlagValid}
		off, ok := p.AppendObject(&h, []byte(fmt.Sprintf("key-%d", i)))
		if !ok {
			t.Fatal("append failed")
		}
		offs = append(offs, off)
	}
	scan := func(from, limit int) (seen []uint64) {
		p.Scan(from, limit, func(off uint64, h Header) bool {
			seen = append(seen, off)
			return true
		})
		return seen
	}
	if seen := scan(0, -1); fmt.Sprint(seen) != fmt.Sprint(offs) {
		t.Fatalf("scan saw %v, want %v", seen, offs)
	}
	// A window starting at an object and ending inside another.
	if seen := scan(int(offs[2]), int(offs[4])+1); fmt.Sprint(seen) != fmt.Sprint(offs[2:4]) {
		t.Fatalf("scan of [%d, %d] saw %v, want %v", offs[2], offs[4], seen, offs[2:4])
	}
	// Early stop.
	n := 0
	p.Scan(0, -1, func(off uint64, h Header) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("scan did not stop early: %d", n)
	}
}

func TestScanPersistedIgnoresVolatile(t *testing.T) {
	dev := nvm.New(1 << 14)
	p := NewPool(dev, 0, dev.Size())
	h1 := Header{PrePtr: NilPtr, VLen: 10, Flags: FlagValid}
	p.AppendObject(&h1, []byte("flushed")) // AppendObject flushes header+key
	// Second object: write header volatile only (bypass AppendObject).
	off2, _ := p.Alloc(ObjectSize(3, 10))
	h2 := Header{PrePtr: NilPtr, VLen: 10, KLen: 3, Magic: Magic, Flags: FlagValid}
	WriteHeader(dev, 0, off2, &h2) // never flushed
	count := 0
	p.ScanPersisted(func(off uint64, h Header) bool { count++; return true })
	if count != 1 {
		t.Fatalf("persisted scan saw %d objects, want 1 (unflushed header must not appear)", count)
	}
}

func TestSetFlagsPreservesNeighbours(t *testing.T) {
	p := newTestPool(4096)
	h := Header{PrePtr: NilPtr, VLen: 123, Flags: FlagValid}
	off, _ := p.AppendObject(&h, []byte("k"))
	p.SetFlags(off, FlagValid|FlagDurable)
	got := p.Header(off)
	if !got.Durable() || !got.Valid() {
		t.Fatalf("flags = %#x", got.Flags)
	}
	if got.VLen != 123 {
		t.Fatalf("SetFlags clobbered VLen: %d", got.VLen)
	}
}

func TestTablePublishAndLookup(t *testing.T) {
	dev := nvm.New(1 << 16)
	tab := NewTable(dev, 0, 128)
	kh := HashKey([]byte("alpha"))
	idx, existed, ok := tab.FindSlot(kh)
	if !ok || existed {
		t.Fatalf("FindSlot = (%d, %v, %v)", idx, existed, ok)
	}
	tab.Publish(idx, PackLoc(4096, 256))
	i2, e, found := tab.Lookup(kh)
	if !found || i2 != idx {
		t.Fatalf("Lookup = (%d, %v)", i2, found)
	}
	off, l, ok := UnpackLoc(e.Current())
	if !ok || off != 4096 || l != 256 {
		t.Fatalf("location = (%d, %d, %v)", off, l, ok)
	}
	// Re-inserting finds the same slot.
	i3, existed, _ := tab.FindSlot(kh)
	if !existed || i3 != idx {
		t.Fatalf("reinsert = (%d, %v)", i3, existed)
	}
}

func TestTableLinearProbing(t *testing.T) {
	dev := nvm.New(1 << 16)
	tab := NewTable(dev, 0, 8)
	// Force collisions: craft hashes with the same home bucket.
	h1, h2, h3 := uint64(8+3), uint64(16+3), uint64(24+3)
	var idxs []int
	for _, kh := range []uint64{h1, h2, h3} {
		i, _, ok := tab.FindSlot(kh)
		if !ok {
			t.Fatal("FindSlot failed")
		}
		idxs = append(idxs, i)
	}
	if idxs[0] != 3 || idxs[1] != 4 || idxs[2] != 5 {
		t.Fatalf("probe sequence = %v", idxs)
	}
	for n, kh := range []uint64{h1, h2, h3} {
		if i, _, found := tab.Lookup(kh); !found || i != idxs[n] {
			t.Fatalf("Lookup(%d) = (%d, %v)", kh, i, found)
		}
	}
}

func TestTableFullAndMiss(t *testing.T) {
	dev := nvm.New(1 << 16)
	tab := NewTable(dev, 0, 4)
	for i := uint64(1); i <= 4; i++ {
		if _, _, ok := tab.FindSlot(i * 7); !ok {
			t.Fatal("insert into non-full table failed")
		}
	}
	if _, _, ok := tab.FindSlot(999); ok {
		t.Fatal("insert into full table succeeded")
	}
	if _, _, found := tab.Lookup(999); found {
		t.Fatal("lookup of absent key found something")
	}
}

func TestTableTombstone(t *testing.T) {
	dev := nvm.New(1 << 16)
	tab := NewTable(dev, 0, 16)
	kh := HashKey([]byte("gone"))
	idx, _, _ := tab.FindSlot(kh)
	tab.Publish(idx, PackLoc(0, 64))
	tab.Delete(idx)
	if e := tab.Entry(idx); !e.Tombstone() {
		t.Fatal("tombstone not set")
	}
	tab.Undelete(idx, 7)
	if e := tab.Entry(idx); e.Tombstone() {
		t.Fatal("tombstone not cleared")
	} else if e.CutSeq() != 7 {
		t.Fatalf("cut seq = %d after undelete, want 7", e.CutSeq())
	} else if e.Mark() != 0 {
		t.Fatalf("mark = %d clobbered by undelete", e.Mark())
	}
}

func TestTableFlipMark(t *testing.T) {
	dev := nvm.New(1 << 16)
	tab := NewTable(dev, 0, 16)
	idx, _, _ := tab.FindSlot(42)
	tab.Publish(idx, PackLoc(64, 64)) // current = slot 0
	e := tab.Entry(idx)
	tab.SetLoc(idx, 1-e.Mark(), PackLoc(128, 64)) // stage new-pool location
	// Twice: the second flip to the same pool must leave the entry alone.
	for range 2 {
		tab.FlipMark(idx, 1)
		e = tab.Entry(idx)
		if e.Mark() != 1 {
			t.Fatalf("mark = %d after flip", e.Mark())
		}
		off, _, _ := UnpackLoc(e.Current())
		if off != 128 {
			t.Fatalf("current offset = %d, want 128", off)
		}
		if e.Other() != 0 {
			t.Fatal("old-pool location not cleared by flip")
		}
	}
}

func TestTableEntryUpdatesArePersistent(t *testing.T) {
	dev := nvm.New(1 << 16)
	tab := NewTable(dev, 0, 16)
	idx, _, _ := tab.FindSlot(77)
	tab.Publish(idx, PackLoc(64, 192))
	dev.Crash(1, 0)
	tab2 := NewTable(dev, 0, 16)
	_, e, found := tab2.Lookup(77)
	if !found {
		t.Fatal("entry lost in crash")
	}
	off, l, _ := UnpackLoc(e.Current())
	if off != 64 || l != 192 {
		t.Fatalf("post-crash location = (%d, %d)", off, l)
	}
}

func TestTableRange(t *testing.T) {
	dev := nvm.New(1 << 16)
	tab := NewTable(dev, 0, 32)
	for i := uint64(1); i <= 5; i++ {
		idx, _, _ := tab.FindSlot(i * 131)
		tab.Publish(idx, PackLoc(uint64(i*64), 64))
	}
	di, _, _ := tab.FindSlot(999)
	tab.Publish(di, PackLoc(640, 64))
	tab.Delete(di)
	count := 0
	tab.Range(func(i int, e Entry) bool { count++; return true })
	if count != 5 {
		t.Fatalf("Range visited %d entries, want 5 (tombstones skipped)", count)
	}
}

func TestHopscotchBasic(t *testing.T) {
	dev := nvm.New(1 << 16)
	hs := NewHopscotch(dev, 0, 64)
	kh := HashKey([]byte("erda-key"))
	idx, existed, ok := hs.Insert(kh)
	if !ok || existed {
		t.Fatalf("Insert = (%d, %v, %v)", idx, existed, ok)
	}
	hs.Publish(idx, 4096, 256)
	i2, e, found := hs.Lookup(kh)
	if !found || i2 != idx {
		t.Fatalf("Lookup = (%d, %v)", i2, found)
	}
	off1, has1 := e.Off1()
	if !has1 || off1 != 4096 || e.Len1() != 256 {
		t.Fatalf("v1 = (%d, %v, %d)", off1, has1, e.Len1())
	}
	if _, has2 := e.Off2(); has2 {
		t.Fatal("fresh key has a previous version")
	}
}

func TestHopscotchPublishShiftsVersions(t *testing.T) {
	dev := nvm.New(1 << 16)
	hs := NewHopscotch(dev, 0, 64)
	idx, _, _ := hs.Insert(12345)
	hs.Publish(idx, 0, 64)
	hs.Publish(idx, 4096, 128)
	e := hs.Entry(idx)
	off1, _ := e.Off1()
	off2, has2 := e.Off2()
	if off1 != 4096 || !has2 || off2 != 0 {
		t.Fatalf("versions = (%d, %d/%v)", off1, off2, has2)
	}
	if e.Len1() != 128 || e.Len2() != 64 {
		t.Fatalf("lens = (%d, %d)", e.Len1(), e.Len2())
	}
	if e.Tag() != 2 {
		t.Fatalf("tag = %d, want 2", e.Tag())
	}
}

func TestHopscotchDisplacement(t *testing.T) {
	dev := nvm.New(1 << 20)
	hs := NewHopscotch(dev, 0, 256)
	// Saturate one neighborhood: 9 keys homed at bucket 10 forces
	// displacement for the later ones or failure past H.
	var keys []uint64
	for i := 0; i < HopH; i++ {
		kh := uint64(10 + 256*(i+1)) // all home to 10
		keys = append(keys, kh)
		idx, existed, ok := hs.Insert(kh)
		if !ok || existed {
			t.Fatalf("insert %d: (%d, %v, %v)", i, idx, existed, ok)
		}
		hs.Publish(idx, uint64(i)*64, 64)
	}
	// All must be findable with correct payloads.
	for i, kh := range keys {
		_, e, found := hs.Lookup(kh)
		if !found {
			t.Fatalf("key %d lost", i)
		}
		off, _ := e.Off1()
		if off != uint64(i)*64 {
			t.Fatalf("key %d payload = %d, want %d", i, off, i*64)
		}
	}
	// A 9th key homed at 10 cannot fit in the full neighborhood unless
	// displacement helps; with every slot 10..17 taken by same-home keys,
	// nothing can move, so insertion must fail cleanly.
	if _, _, ok := hs.Insert(uint64(10 + 256*9)); ok {
		t.Fatal("9th same-home key fit in an H=8 neighborhood")
	}
}

func TestHopscotchManyKeysProperty(t *testing.T) {
	dev := nvm.New(1 << 22)
	hs := NewHopscotch(dev, 0, 4096)
	rng := rand.New(rand.NewPCG(5, 6))
	inserted := make(map[uint64]uint64) // keyHash -> off
	for i := 0; i < 2500; i++ {         // ~60% load factor
		kh := rng.Uint64()
		if kh == 0 {
			continue
		}
		idx, existed, ok := hs.Insert(kh)
		if !ok {
			continue // table locally full: acceptable, skip
		}
		if existed != (inserted[kh] != 0) {
			t.Fatalf("existed mismatch for %d", kh)
		}
		off := uint64(i) * 64
		hs.Publish(idx, off, 64)
		inserted[kh] = off + 1
	}
	if len(inserted) < 2000 {
		t.Fatalf("only %d keys inserted; displacement failing too often", len(inserted))
	}
	for kh, offPlus1 := range inserted {
		_, e, found := hs.Lookup(kh)
		if !found {
			t.Fatalf("key %d lost after displacements", kh)
		}
		if off, _ := e.Off1(); off != offPlus1-1 {
			t.Fatalf("key %d payload corrupted: %d != %d", kh, off, offPlus1-1)
		}
	}
}

func TestHopscotchNeighborhoodIsOneRead(t *testing.T) {
	// A client reads HopH entries from the home bucket; the physical
	// array must be large enough that this never exceeds the window.
	dev := nvm.New(1 << 16)
	hs := NewHopscotch(dev, 0, 100)
	lastHome := hs.HomeIndex(uint64(99))
	end := hs.BucketOffset(lastHome) + HopH*EntrySize
	if end > hs.Bytes() {
		t.Fatalf("neighborhood read [%d] exceeds window [%d]", end, hs.Bytes())
	}
}

func TestDecodeEntryMatchesServerView(t *testing.T) {
	dev := nvm.New(1 << 16)
	tab := NewTable(dev, 0, 16)
	kh := HashKey([]byte("remote"))
	idx, _, _ := tab.FindSlot(kh)
	tab.Publish(idx, PackLoc(8192, 320))
	// Simulate the client's RDMA read of the entry bytes.
	raw := make([]byte, EntrySize)
	dev.Read(tab.BucketOffset(idx), raw)
	e := DecodeEntry(raw)
	if e.KeyHash != kh {
		t.Fatal("client-decoded hash mismatch")
	}
	off, l, _ := UnpackLoc(e.Current())
	if off != 8192 || l != 320 {
		t.Fatalf("client-decoded loc = (%d, %d)", off, l)
	}
}

func TestTableLookupAt(t *testing.T) {
	dev := nvm.New(1 << 16)
	tab := NewTable(dev, 0, 128)
	kh := HashKey([]byte("hinted"))
	idx, _, ok := tab.FindSlot(kh)
	if !ok {
		t.Fatal("FindSlot failed")
	}
	tab.Publish(idx, PackLoc(512, 64))
	if e, ok := tab.LookupAt(idx, kh); !ok || e.Current() != PackLoc(512, 64) {
		t.Fatalf("LookupAt(correct) = (%+v, %v)", e, ok)
	}
	// A hint pointing at the wrong bucket, out of range, or at a
	// reclaimed slot must miss rather than return another key's entry.
	if _, ok := tab.LookupAt((idx+1)%tab.N(), kh); ok {
		t.Fatal("LookupAt accepted a wrong bucket")
	}
	if _, ok := tab.LookupAt(-1, kh); ok {
		t.Fatal("LookupAt accepted a negative index")
	}
	if _, ok := tab.LookupAt(tab.N(), kh); ok {
		t.Fatal("LookupAt accepted an out-of-range index")
	}
	tab.Clear(idx)
	if _, ok := tab.LookupAt(idx, kh); ok {
		t.Fatal("LookupAt accepted a reclaimed slot")
	}
}

func TestHead(t *testing.T) {
	// en(mark, cut) is an entry whose current pool is mark, with a cut.
	en := func(mark int, cut uint64) Entry {
		return Entry{Flags: cut<<entryFlagBits | uint64(mark)}
	}
	v := func(seq uint64) *Header { return &Header{Seq: seq} }
	for _, tc := range []struct {
		name   string
		en     Entry
		cand   [2]*Header
		loc    int
		wantOK bool
	}{
		{"no candidates", en(0, 0), [2]*Header{}, 0, false},
		{"lone current", en(0, 0), [2]*Header{v(5), nil}, 0, true},
		{"lone staged", en(0, 0), [2]*Header{nil, v(5)}, 1, true},
		{"higher seq wins, staged", en(0, 0), [2]*Header{v(4), v(5)}, 1, true},
		{"higher seq wins, current", en(0, 0), [2]*Header{v(6), v(5)}, 0, true},
		{"tie goes to staged, mark 0", en(0, 0), [2]*Header{v(5), v(5)}, 1, true},
		{"tie goes to staged, mark 1", en(1, 0), [2]*Header{v(5), v(5)}, 0, true},
		{"below cut skipped though newer", en(0, 7), [2]*Header{v(9), v(3)}, 0, true},
		{"staged below cut skipped", en(1, 7), [2]*Header{v(5), v(8)}, 1, true},
		{"at the cut survives", en(0, 5), [2]*Header{v(5), v(4)}, 0, true},
		{"both below cut", en(0, 9), [2]*Header{v(5), v(8)}, 0, false},
		{"lone below cut", en(1, 9), [2]*Header{nil, v(8)}, 0, false},
	} {
		loc, ok := Head(tc.en, tc.cand)
		if ok != tc.wantOK || ok && loc != tc.loc {
			t.Errorf("%s: Head = (%d, %v), want (%d, %v)", tc.name, loc, ok, tc.loc, tc.wantOK)
		}
	}
}
