package nvm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func TestWriteReadCoherent(t *testing.T) {
	m := New(1024)
	data := []byte("hello, persistent world")
	m.Write(100, data)
	got := make([]byte, len(data))
	m.Read(100, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("coherent read = %q, want %q", got, data)
	}
}

// eachImage runs fn on a Memory whose images are Go slices and on one
// whose images are mapped (on an OS that maps): span bytes of the small
// one from offset 0, and span bytes from base in one of two huge pages,
// placed so the span straddles the boundary between the two pages. base
// is line-aligned, so line arithmetic reads the same on both.
func eachImage(t *testing.T, span int, fn func(t *testing.T, m *Memory, base int)) {
	t.Run("heap", func(t *testing.T) {
		m := New(span)
		if m.mapped != nil {
			t.Fatalf("a %d B device is mapped", span)
		}
		fn(t, m, 0)
	})
	t.Run("mapped", func(t *testing.T) {
		m := New(2 * hugePage)
		if m.mapped == nil && mapAnon(hugePage) != nil {
			t.Fatalf("a %d B device is not mapped", 2*hugePage)
		}
		fn(t, m, hugePage-span/2/LineSize*LineSize)
	})
}

func TestUnflushedDataNotPersisted(t *testing.T) {
	eachImage(t, 1024, func(t *testing.T, m *Memory, base int) {
		m.Write(base, []byte("volatile"))
		got := make([]byte, 8)
		m.ReadPersisted(base, got)
		if !bytes.Equal(got, make([]byte, 8)) {
			t.Fatalf("unflushed write reached media: %q", got)
		}
	})
}

func TestFlushPersists(t *testing.T) {
	eachImage(t, 1024, func(t *testing.T, m *Memory, base int) {
		data := []byte("durable data crossing a cache line boundary......................")
		m.Write(base+40, data) // straddles lines 0..1
		m.Flush(base+40, len(data))
		got := make([]byte, len(data))
		m.ReadPersisted(base+40, got)
		if !bytes.Equal(got, data) {
			t.Fatalf("flushed data not on media: %q", got)
		}
		if m.DirtyLines() != 0 {
			t.Fatalf("DirtyLines = %d after full flush", m.DirtyLines())
		}
	})
}

func TestPartialFlushOnlyCoversRange(t *testing.T) {
	eachImage(t, 1024, func(t *testing.T, m *Memory, base int) {
		m.Write(base, bytes.Repeat([]byte{0xAA}, 256)) // lines 0-3 dirty
		m.Flush(base, 64)                              // only line 0
		if m.DirtyLines() != 3 {
			t.Fatalf("DirtyLines = %d, want 3", m.DirtyLines())
		}
		got := make([]byte, 128)
		m.ReadPersisted(base, got)
		if got[0] != 0xAA || got[63] != 0xAA {
			t.Fatal("line 0 not persisted")
		}
		if got[64] != 0 {
			t.Fatal("line 1 persisted without flush")
		}
	})
}

func TestCrashDropsDirtyLines(t *testing.T) {
	eachImage(t, 1024, func(t *testing.T, m *Memory, base int) {
		m.Write(base, []byte("to be lost"))
		m.Write(base+512, []byte("to be kept"))
		m.Flush(base+512, 10)
		m.Crash(1, 0) // survival 0: all unflushed lines lost
		got := make([]byte, 10)
		m.Read(base, got)
		if !bytes.Equal(got, make([]byte, 10)) {
			t.Fatalf("unflushed data survived crash: %q", got)
		}
		m.Read(base+512, got)
		if string(got) != "to be kept" {
			t.Fatalf("flushed data lost in crash: %q", got)
		}
	})
}

func TestCrashSurvivalOneKeepsEverything(t *testing.T) {
	eachImage(t, 1024, func(t *testing.T, m *Memory, base int) {
		m.Write(base+128, []byte("evicted before crash"))
		m.Crash(1, 1)
		got := make([]byte, 20)
		m.Read(base+128, got)
		if string(got) != "evicted before crash" {
			t.Fatalf("survival=1 lost data: %q", got)
		}
	})
}

func TestCrashPartialIsDeterministic(t *testing.T) {
	eachImage(t, 4096, func(t *testing.T, dev *Memory, base int) {
		run := func() []byte {
			m := New(dev.Size())
			for i := 0; i < 64; i++ {
				m.Write(base+i*64, bytes.Repeat([]byte{byte(i + 1)}, 64))
			}
			m.Crash(99, 0.5)
			out := make([]byte, 4096)
			m.Read(base, out)
			return out
		}
		a, b := run(), run()
		if !bytes.Equal(a, b) {
			t.Fatal("crash with same seed is nondeterministic")
		}
		// And a 0.5 survival rate over 64 lines should keep some, lose some.
		kept := 0
		for i := 0; i < 64; i++ {
			if a[i*64] != 0 {
				kept++
			}
		}
		if kept == 0 || kept == 64 {
			t.Fatalf("survival=0.5 kept %d/64 lines; model not partial", kept)
		}
	})
}

func TestWrite8Atomicity(t *testing.T) {
	m := New(128)
	m.Write8(16, 0xdeadbeefcafef00d)
	if v := m.ReadLine(0)[2]; v != 0xdeadbeefcafef00d {
		t.Fatalf("word 2 of line 0 = %#x", v)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned Write8 did not panic")
		}
	}()
	m.Write8(17, 1)
}

func TestOutOfRangePanics(t *testing.T) {
	m := New(64)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Write(60, []byte("overflows"))
}

func TestSizeRoundsUpToLine(t *testing.T) {
	m := New(100)
	if m.Size() != 128 {
		t.Fatalf("Size = %d, want 128", m.Size())
	}
}

func TestFlushedLinesCounter(t *testing.T) {
	eachImage(t, 1024, func(t *testing.T, m *Memory, base int) {
		m.Write(base, bytes.Repeat([]byte{1}, 192))
		m.Flush(base, 192)
		if m.FlushedLines() != 3 {
			t.Fatalf("FlushedLines = %d, want 3", m.FlushedLines())
		}
		m.Flush(base, 192) // clean lines: no-op
		if m.FlushedLines() != 3 {
			t.Fatalf("FlushedLines = %d after redundant flush, want 3", m.FlushedLines())
		}
	})
}

// TestPropertyFlushedEqualsCrashView: after an arbitrary sequence of writes
// where a subset is flushed, a survival-0 crash exposes exactly the flushed
// state. This is the core invariant every consistency argument rests on.
func TestPropertyFlushedEqualsCrashView(t *testing.T) {
	type op struct {
		Off   uint16
		Data  []byte
		Flush bool
	}
	const size = 4096
	eachImage(t, size, func(t *testing.T, dev *Memory, base int) {
		f := func(ops []op, seed uint64) bool {
			m := New(dev.Size())
			shadow := make([]byte, size)   // expected persistent state
			volatile := make([]byte, size) // expected coherent state
			for _, o := range ops {
				if len(o.Data) == 0 {
					continue
				}
				off := int(o.Off) % (size - len(o.Data)%size)
				if off+len(o.Data) > size {
					continue
				}
				m.Write(base+off, o.Data)
				copy(volatile[off:], o.Data)
				if o.Flush {
					m.Flush(base+off, len(o.Data))
					// Flush persists whole covering lines of the coherent view.
					first := off / LineSize * LineSize
					last := (off + len(o.Data) + LineSize - 1) / LineSize * LineSize
					if last > size {
						last = size
					}
					copy(shadow[first:last], volatile[first:last])
				}
			}
			// Coherent view must match the volatile shadow before crash.
			got := make([]byte, size)
			m.Read(base, got)
			if !bytes.Equal(got, volatile) {
				return false
			}
			m.Crash(seed, 0)
			m.Read(base, got)
			return bytes.Equal(got, shadow)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestFileBackedRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pool.nvm")
	d, err := OpenFile(path, 4096)
	if err != nil {
		t.Fatal(err)
	}
	d.Write(100, []byte("persisted across reopen"))
	d.Flush(100, 23)
	d.Drain()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenFile(path, 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	got := make([]byte, 23)
	d2.Read(100, got)
	if string(got) != "persisted across reopen" {
		t.Fatalf("reopened contents = %q", got)
	}
}

func TestFileBackedUnflushedLostOnReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pool.nvm")
	d, err := OpenFile(path, 4096)
	if err != nil {
		t.Fatal(err)
	}
	d.Write(0, []byte("never flushed"))
	// Simulate a crash: close the file WITHOUT flushing the overlay.
	d.f.Close()

	d2, err := OpenFile(path, 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	got := make([]byte, 13)
	d2.Read(0, got)
	if !bytes.Equal(got, make([]byte, 13)) {
		t.Fatalf("unflushed write survived crash: %q", got)
	}
}

func TestFileBackedWrite8(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pool.nvm")
	d, err := OpenFile(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.Write8(8, 12345)
	if v := d.ReadLine(0)[1]; v != 12345 {
		t.Fatalf("word 1 of line 0 = %d", v)
	}
}

// lineWords is a recognisable line: word i holds seed+i.
func lineWords(seed uint64) (w [8]uint64) {
	for i := range w {
		w[i] = seed + uint64(i)
	}
	return w
}

// eachDevice runs fn against a fresh Memory and a fresh FileBacked of size
// bytes.
func eachDevice(t *testing.T, size int, fn func(t *testing.T, dev diffDevice)) {
	t.Run("Memory", func(t *testing.T) { fn(t, New(size)) })
	t.Run("FileBacked", func(t *testing.T) {
		d, err := OpenFile(filepath.Join(t.TempDir(), "pool.nvm"), size)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		fn(t, d)
	})
}

func TestLineRoundTrip(t *testing.T) {
	eachDevice(t, 4*LineSize, func(t *testing.T, dev diffDevice) {
		w := lineWords(0x1122334455667788)
		dev.WriteLine(2*LineSize, w)
		if got := dev.ReadLine(2 * LineSize); got != w {
			t.Fatalf("ReadLine = %#x, want %#x", got, w)
		}
		// Little-endian words at their byte offsets, as Read sees them.
		b := make([]byte, LineSize)
		dev.Read(2*LineSize, b)
		for i, v := range w {
			if g := binary.LittleEndian.Uint64(b[8*i:]); g != v {
				t.Fatalf("byte view of word %d = %#x, want %#x", i, g, v)
			}
		}
		// A Write8 into the line shows in the next ReadLine.
		dev.Write8(2*LineSize+24, 7)
		if got := dev.ReadLine(2 * LineSize)[3]; got != 7 {
			t.Fatalf("word 3 after Write8 = %#x", got)
		}
		if got := dev.ReadLine(LineSize); got != ([8]uint64{}) {
			t.Fatalf("neighbouring line = %#x, want zero", got)
		}
	})
}

func TestWriteLineDirtiesOneLine(t *testing.T) {
	eachDevice(t, 4*LineSize, func(t *testing.T, dev diffDevice) {
		dev.WriteLine(LineSize, lineWords(1))
		if n := dev.DirtyLines(); n != 1 {
			t.Fatalf("DirtyLines = %d after one WriteLine, want 1", n)
		}
		dev.WriteLine(LineSize, lineWords(2)) // already dirty
		if n := dev.DirtyLines(); n != 1 {
			t.Fatalf("DirtyLines = %d after rewriting the line, want 1", n)
		}
		dev.WriteLine(3*LineSize, lineWords(3))
		if n := dev.DirtyLines(); n != 2 {
			t.Fatalf("DirtyLines = %d after a second line, want 2", n)
		}
	})
}

func TestWriteLineVolatileUntilFlush(t *testing.T) {
	eachDevice(t, 4*LineSize, func(t *testing.T, dev diffDevice) {
		w := lineWords(0xabc)
		dev.WriteLine(LineSize, w)
		got := make([]byte, LineSize)
		dev.ReadPersisted(LineSize, got)
		if !bytes.Equal(got, make([]byte, LineSize)) {
			t.Fatalf("unflushed WriteLine visible to ReadPersisted: %x", got)
		}
		dev.Flush(LineSize, LineSize)
		dev.ReadPersisted(LineSize, got)
		for i, v := range w {
			if g := binary.LittleEndian.Uint64(got[8*i:]); g != v {
				t.Fatalf("persisted word %d = %#x after Flush, want %#x", i, g, v)
			}
		}
	})
	m := New(4 * LineSize)
	m.WriteLine(0, lineWords(5))
	m.Flush(0, LineSize)
	m.WriteLine(0, lineWords(9))
	m.Crash(1, 0)
	if got := m.ReadLine(0); got != lineWords(5) {
		t.Fatalf("after Crash(survival 0) line = %#x, want the flushed %#x", got, lineWords(5))
	}
}

func TestLineMisalignedPanics(t *testing.T) {
	m := New(4 * LineSize)
	for _, op := range []struct {
		name string
		fn   func()
	}{
		{"ReadLine", func() { m.ReadLine(8) }},
		{"WriteLine", func() { m.WriteLine(LineSize+32, [8]uint64{}) }},
		{"ReadLine out of range", func() { m.ReadLine(4 * LineSize) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", op.name)
				}
			}()
			op.fn()
		}()
	}
	if n := m.DirtyLines(); n != 0 {
		t.Fatalf("a refused WriteLine dirtied %d lines", n)
	}
}

func TestZeroClearsPersistAndOverlay(t *testing.T) {
	eachImage(t, 1024, func(t *testing.T, m *Memory, base int) {
		m.Write(base, bytes.Repeat([]byte{0xFF}, 256))
		m.Flush(base, 128)   // first two lines persisted, next two dirty
		m.Zero(base+64, 128) // spans one persisted and one dirty line
		got := make([]byte, 256)
		m.Read(base, got)
		for i := 0; i < 64; i++ {
			if got[i] != 0xFF {
				t.Fatalf("byte %d clobbered outside Zero range", i)
			}
		}
		for i := 64; i < 192; i++ {
			if got[i] != 0 {
				t.Fatalf("byte %d not zeroed (coherent view)", i)
			}
		}
		m.ReadPersisted(base+64, got[:128])
		for i, b := range got[:128] {
			if b != 0 {
				t.Fatalf("persisted byte %d not zeroed", 64+i)
			}
		}
		m.Drain() // no-op, for coverage of the contract
		m.Zero(base, 0)
	})
}

func TestFileBackedZeroAndSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "z.nvm")
	d, err := OpenFile(path, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if d.Size() != 1024 {
		t.Fatalf("Size = %d", d.Size())
	}
	d.Write(0, bytes.Repeat([]byte{7}, 256))
	d.Flush(0, 128)
	d.Zero(64, 128)
	got := make([]byte, 256)
	d.Read(0, got)
	for i := 64; i < 192; i++ {
		if got[i] != 0 {
			t.Fatalf("byte %d not zeroed", i)
		}
	}
	d.Drain()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// The zeroed range must be durable across reopen.
	d2, err := OpenFile(path, 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	d2.Read(0, got)
	for i := 64; i < 192; i++ {
		if got[i] != 0 {
			t.Fatalf("zeroed byte %d resurrected after reopen", i)
		}
	}
	// Flushed-then-zeroed prefix stays as flushed.
	for i := 0; i < 64; i++ {
		if got[i] != 7 {
			t.Fatalf("byte %d lost (was flushed)", i)
		}
	}
}

func TestFileBackedOutOfRangePanics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "b.nvm")
	d, err := OpenFile(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Read(120, make([]byte, 16))
}

func TestOpenFileErrors(t *testing.T) {
	if _, err := OpenFile(filepath.Join(t.TempDir(), "x.nvm"), 0); err == nil {
		t.Fatal("zero size accepted")
	}
	if _, err := OpenFile(filepath.Join(t.TempDir(), "nodir", "deep", "x.nvm"), 128); err == nil {
		t.Fatal("unreachable path accepted")
	}
}

func TestOpenFilePreservesLargerExisting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "big.nvm")
	d, err := OpenFile(path, 4096)
	if err != nil {
		t.Fatal(err)
	}
	d.Write(100, []byte("keep"))
	d.Flush(100, 4)
	d.Close()
	// Reopen smaller: existing bytes within the window must be intact.
	d2, err := OpenFile(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	got := make([]byte, 4)
	d2.Read(100, got)
	if string(got) != "keep" {
		t.Fatalf("got %q", got)
	}
}

// refModel is the sparse overlay the devices used to be built on — durable
// bytes plus a map of dirty lines, byte-at-a-time — kept as the reference
// the dense overlay is replayed against.
type refModel struct {
	persist []byte
	dirty   map[int][LineSize]byte
	flushes int
}

func newRefModel(size int) *refModel {
	return &refModel{persist: make([]byte, size), dirty: make(map[int][LineSize]byte)}
}

func (r *refModel) read(off int, dst []byte) {
	copy(dst, r.persist[off:])
	for li, line := range r.dirty {
		for i, b := range line {
			if p := li*LineSize + i - off; p >= 0 && p < len(dst) {
				dst[p] = b
			}
		}
	}
}

func (r *refModel) write(off int, src []byte) {
	for i, b := range src {
		li := (off + i) / LineSize
		line, ok := r.dirty[li]
		if !ok {
			copy(line[:], r.persist[li*LineSize:])
		}
		line[(off+i)%LineSize] = b
		r.dirty[li] = line
	}
}

func (r *refModel) flush(off, n int) {
	if n <= 0 {
		return
	}
	for li := off / LineSize; li <= (off+n-1)/LineSize; li++ {
		if line, ok := r.dirty[li]; ok {
			copy(r.persist[li*LineSize:], line[:])
			delete(r.dirty, li)
			r.flushes++
		}
	}
}

func (r *refModel) zero(off, n int) {
	clear(r.persist[off : off+n])
	for i := off; i < off+n; i++ {
		if line, ok := r.dirty[i/LineSize]; ok {
			line[i%LineSize] = 0
			r.dirty[i/LineSize] = line
		}
	}
}

// crash is the old Memory.Crash loop verbatim: one draw per dirty line, in
// ascending line order.
func (r *refModel) crash(seed uint64, survival float64) {
	rng := rand.New(rand.NewPCG(seed, 0xda7a_b10c))
	lines := make([]int, 0, len(r.dirty))
	for li := range r.dirty {
		lines = append(lines, li)
	}
	slices.Sort(lines)
	for _, li := range lines {
		if rng.Float64() < survival {
			line := r.dirty[li]
			copy(r.persist[li*LineSize:], line[:])
		}
	}
	r.dirty = make(map[int][LineSize]byte)
}

// diffDevice is what the differential replay needs of a device; both
// devices get all of it from the embedded overlay.
type diffDevice interface {
	Device
	DirtyLines() int
	FlushedLines() int
}

// replayAgainstModel drives dev and a refModel with one seeded op sequence
// and compares coherent bytes, persisted bytes, DirtyLines and FlushedLines
// after every step. The ops fall in the 200 lines from base, a line
// multiple, and the rest of the device is never touched. crash applies
// the device's notion of a crash to both and returns the device to
// continue with.
func replayAgainstModel(t *testing.T, seed uint64, dev diffDevice, base int, crash func(ref *refModel, seed uint64, survival float64) diffDevice) {
	t.Helper()
	// 200 lines: four dirty-bitmap words, the last one partial.
	const size = 200 * LineSize
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	ref := newRefModel(size)
	span := func(minLen, maxLen int) (off, n int) {
		n = minLen + rng.IntN(maxLen-minLen+1)
		return rng.IntN(size - n + 1), n
	}
	got, want := make([]byte, size), make([]byte, size)
	for step := 0; step < 300; step++ {
		var op string
		switch k := rng.IntN(20); {
		case k < 7: // 1 B … 5 lines, unaligned, line-straddling
			off, n := span(1, 5*LineSize)
			src := make([]byte, n)
			for i := range src {
				src[i] = byte(rng.Uint32() | 1)
			}
			op = fmt.Sprintf("Write(%d, %d B)", off, n)
			dev.Write(base+off, src)
			ref.write(off, src)
		case k < 8:
			off, v := 8*rng.IntN(size/8), rng.Uint64()
			op = fmt.Sprintf("Write8(%d)", off)
			dev.Write8(base+off, v)
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], v)
			ref.write(off, b[:])
		case k < 9:
			off, w := LineSize*rng.IntN(size/LineSize), [8]uint64{}
			for i := range w {
				w[i] = rng.Uint64()
			}
			op = fmt.Sprintf("WriteLine(%d)", off)
			dev.WriteLine(base+off, w)
			b := make([]byte, LineSize)
			for i, v := range w {
				binary.LittleEndian.PutUint64(b[8*i:], v)
			}
			ref.write(off, b)
		case k < 14: // partial, clean and empty ranges
			off, n := span(0, 8*LineSize)
			if k == 13 {
				n = 0
			}
			op = fmt.Sprintf("Flush(%d, %d)", off, n)
			dev.Flush(base+off, n)
			ref.flush(off, n)
		case k < 16: // cuts through dirty lines
			off, n := span(0, 6*LineSize)
			op = fmt.Sprintf("Zero(%d, %d)", off, n)
			dev.Zero(base+off, n)
			ref.zero(off, n)
		case k < 17:
			off, n := span(0, 3*LineSize)
			op = fmt.Sprintf("Read(%d, %d)", off, n)
			dev.Read(base+off, got[:n])
			ref.read(off, want[:n])
			if !bytes.Equal(got[:n], want[:n]) {
				t.Fatalf("seed %d step %d %s: got %x want %x", seed, step, op, got[:n], want[:n])
			}
		case k < 18:
			off := LineSize * rng.IntN(size/LineSize)
			op = fmt.Sprintf("ReadLine(%d)", off)
			ref.read(off, want[:LineSize])
			g := dev.ReadLine(base + off)
			for i := range g {
				if w := binary.LittleEndian.Uint64(want[8*i:]); g[i] != w {
					t.Fatalf("seed %d step %d %s: word %d got %#x want %#x", seed, step, op, i, g[i], w)
				}
			}
		case k < 19:
			off, n := span(0, 3*LineSize)
			op = fmt.Sprintf("ReadPersisted(%d, %d)", off, n)
			dev.ReadPersisted(base+off, got[:n])
			if !bytes.Equal(got[:n], ref.persist[off:off+n]) {
				t.Fatalf("seed %d step %d %s: got %x want %x", seed, step, op, got[:n], ref.persist[off:off+n])
			}
		default:
			survival := []float64{0, 0.5, 1}[rng.IntN(3)]
			op = fmt.Sprintf("Crash(%v)", survival)
			dev = crash(ref, rng.Uint64(), survival)
		}
		dev.Read(base, got)
		ref.read(0, want)
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d step %d after %s: coherent image differs from model", seed, step, op)
		}
		dev.ReadPersisted(base, got)
		if !bytes.Equal(got, ref.persist) {
			t.Fatalf("seed %d step %d after %s: persisted image differs from model", seed, step, op)
		}
		if g, w := dev.DirtyLines(), len(ref.dirty); g != w {
			t.Fatalf("seed %d step %d after %s: DirtyLines = %d, model %d", seed, step, op, g, w)
		}
		if g, w := dev.FlushedLines(), ref.flushes; g != w {
			t.Fatalf("seed %d step %d after %s: FlushedLines = %d, model %d", seed, step, op, g, w)
		}
	}
}

// TestMemoryMatchesSparseModel pins the dense overlay to the sparse one it
// replaced, crash images included: a same-seed Crash must leave the model's
// bytes, which holds only if the lottery draws once per dirty line in
// ascending line order.
func TestMemoryMatchesSparseModel(t *testing.T) {
	eachImage(t, 200*LineSize, func(t *testing.T, dev *Memory, base int) {
		for seed := uint64(1); seed <= 16; seed++ {
			m := New(dev.Size())
			replayAgainstModel(t, seed, m, base, func(ref *refModel, cseed uint64, survival float64) diffDevice {
				ref.crash(cseed, survival)
				m.Crash(cseed, survival)
				return m
			})
		}
	})
}

// TestFileBackedMatchesSparseModel replays the same sequences against a
// file. A file-backed device has no crash lottery; its crash is losing the
// process, so each Crash step closes and reopens the file, which must hold
// exactly what a survival-0 crash leaves in the model.
func TestFileBackedMatchesSparseModel(t *testing.T) {
	for seed := uint64(1); seed <= 16; seed++ {
		path := filepath.Join(t.TempDir(), "diff.nvm")
		d, err := OpenFile(path, 200*LineSize)
		if err != nil {
			t.Fatal(err)
		}
		replayAgainstModel(t, seed, d, 0, func(ref *refModel, cseed uint64, _ float64) diffDevice {
			ref.crash(cseed, 0)
			ref.flushes = 0 // the counter belongs to the handle, not the file
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			if d, err = OpenFile(path, 200*LineSize); err != nil {
				t.Fatal(err)
			}
			return d
		})
		d.Close()
	}
}

// TestFileBackedZeroReusesPersist: Zero of a large range must not allocate
// a zero buffer of that size (store's cleaner zeroes a whole pool per run),
// and must be durable on its own — the zeroes are on the file after Drain,
// while a store made after the Zero and never flushed is not.
func TestFileBackedZeroReusesPersist(t *testing.T) {
	const size, off, n = 2 << 20, 4096 + 24, 1 << 20
	path := filepath.Join(t.TempDir(), "zero.nvm")
	d, err := OpenFile(path, size)
	if err != nil {
		t.Fatal(err)
	}
	d.Write(0, bytes.Repeat([]byte{0xFF}, size))
	d.Flush(0, size)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d.Zero(off, n)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 4096 {
		t.Errorf("Zero of %d B allocated %d B", n, got)
	}

	d.Write(off+100, []byte("stored after the zero, never flushed"))
	d.Drain()
	d.f.Close() // lose the process: no final flush, no sync

	d2, err := OpenFile(path, size)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	got := make([]byte, size)
	d2.Read(0, got)
	for i, b := range got {
		want := byte(0xFF)
		if i >= off && i < off+n {
			want = 0 // zeroed and drained; the later store was never flushed
		}
		if b != want {
			t.Fatalf("byte %d = %#x after reopen, want %#x", i, b, want)
		}
	}
}

// TestConcurrentWritersFlusherReaders: writers stamp disjoint line ranges,
// a flusher sweeps the device, and readers must see each range filled with
// one stamp — the old or the new, never a mix from inside one Write — and
// never going backwards. Run under -race in CI.
func TestConcurrentWritersFlusherReaders(t *testing.T) {
	const (
		writers = 4
		stride  = 8 * LineSize
		span    = 3*LineSize + 17 // unaligned, straddles four lines
		rounds  = 250
	)
	m := New(writers * stride)
	base := func(w int) int { return w*stride + 5 }
	done := make(chan struct{})
	var writing, watching sync.WaitGroup
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func() {
			defer writing.Done()
			buf := make([]byte, span)
			for stamp := 1; stamp <= rounds; stamp++ {
				for i := range buf {
					buf[i] = byte(stamp)
				}
				m.Write(base(w), buf)
			}
		}()
	}
	watching.Add(1)
	go func() { // flusher
		defer watching.Done()
		for {
			select {
			case <-done:
				return
			default:
				m.Flush(0, m.Size())
			}
		}
	}()
	for r := 0; r < 2; r++ {
		watching.Add(1)
		go func() {
			defer watching.Done()
			buf := make([]byte, span)
			var last [writers]int
			for {
				select {
				case <-done:
					return
				default:
				}
				for w := 0; w < writers; w++ {
					m.Read(base(w), buf)
					if bytes.Count(buf, buf[:1]) != span {
						t.Errorf("range %d: torn read %x", w, buf)
						return
					}
					// A stamp is one byte: rounds stays below 256.
					s := int(buf[0])
					if s < last[w] {
						t.Errorf("range %d: stamp went back from %d to %d", w, last[w], s)
						return
					}
					last[w] = s
				}
			}
		}()
	}
	writing.Wait()
	close(done)
	watching.Wait()

	m.Flush(0, m.Size())
	if n := m.DirtyLines(); n != 0 {
		t.Fatalf("DirtyLines = %d after a full flush", n)
	}
	buf := make([]byte, span)
	for w := 0; w < writers; w++ {
		m.ReadPersisted(base(w), buf)
		if want := bytes.Repeat([]byte{byte(rounds)}, span); !bytes.Equal(buf, want) {
			t.Fatalf("range %d persisted %x, want stamp %d", w, buf, rounds)
		}
	}
}

var sink uint64

// The five micro-benchmarks below are in CI's alloc gate: the device is the
// bottom rung of every hot path, so it must stay at 0 allocs/op.

func BenchmarkWriteFlush4K(b *testing.B) {
	m := New(1 << 20)
	buf := bytes.Repeat([]byte{0xA5}, 4096)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := i%200*(len(buf)+LineSize) + 24 // log-like: unaligned, advancing
		m.Write(off, buf)
		m.Flush(off, len(buf))
	}
}

func BenchmarkRead4K(b *testing.B) {
	m := New(1 << 20)
	buf := make([]byte, 4096)
	m.Write(0, bytes.Repeat([]byte{0xA5}, 1<<19)) // half dirty, half clean
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Read(i%200*(len(buf)+LineSize)+24, buf)
	}
	sink += uint64(buf[0])
}

func BenchmarkWrite8Flush(b *testing.B) {
	m := New(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := i % (1 << 17) * AtomicUnit
		m.Write8(off, uint64(i))
		m.Flush(off, AtomicUnit)
		sink += m.ReadLine(off &^ (LineSize - 1))[off%LineSize/AtomicUnit]
	}
}

// BenchmarkReadLine loads one header-sized line per op, half of them dirty:
// the access every header read and hash-entry probe makes.
func BenchmarkReadLine(b *testing.B) {
	m := New(1 << 20)
	m.Write(0, bytes.Repeat([]byte{0xA5}, 1<<19)) // half dirty, half clean
	var dev Device = m                            // through the interface, as the engine calls it
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := dev.ReadLine(i % (1 << 14) * LineSize)
		sink += w[i%8]
	}
}

// BenchmarkWriteLineFlush stores and persists one line per op: a header
// write followed by its flush, as the PUT allocation path makes them.
func BenchmarkWriteLineFlush(b *testing.B) {
	m := New(1 << 20)
	var dev Device = m
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := i % (1 << 14) * LineSize
		dev.WriteLine(off, [8]uint64{uint64(i), 1, 2, 3, 4, 5, 6, 7})
		dev.Flush(off, LineSize)
	}
}
