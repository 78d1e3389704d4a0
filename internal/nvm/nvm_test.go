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

func TestUnflushedDataNotPersisted(t *testing.T) {
	m := New(1024)
	m.Write(0, []byte("volatile"))
	got := make([]byte, 8)
	m.ReadPersisted(0, got)
	if !bytes.Equal(got, make([]byte, 8)) {
		t.Fatalf("unflushed write reached media: %q", got)
	}
}

func TestFlushPersists(t *testing.T) {
	m := New(1024)
	data := []byte("durable data crossing a cache line boundary......................")
	m.Write(40, data) // straddles lines 0..1
	m.Flush(40, len(data))
	got := make([]byte, len(data))
	m.ReadPersisted(40, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("flushed data not on media: %q", got)
	}
	if m.DirtyLines() != 0 {
		t.Fatalf("DirtyLines = %d after full flush", m.DirtyLines())
	}
}

func TestPartialFlushOnlyCoversRange(t *testing.T) {
	m := New(1024)
	m.Write(0, bytes.Repeat([]byte{0xAA}, 256)) // lines 0-3 dirty
	m.Flush(0, 64)                              // only line 0
	if m.DirtyLines() != 3 {
		t.Fatalf("DirtyLines = %d, want 3", m.DirtyLines())
	}
	got := make([]byte, 128)
	m.ReadPersisted(0, got)
	if got[0] != 0xAA || got[63] != 0xAA {
		t.Fatal("line 0 not persisted")
	}
	if got[64] != 0 {
		t.Fatal("line 1 persisted without flush")
	}
}

func TestCrashDropsDirtyLines(t *testing.T) {
	m := New(1024)
	m.Write(0, []byte("to be lost"))
	m.Write(512, []byte("to be kept"))
	m.Flush(512, 10)
	m.Crash(1, 0) // survival 0: all unflushed lines lost
	got := make([]byte, 10)
	m.Read(0, got)
	if !bytes.Equal(got, make([]byte, 10)) {
		t.Fatalf("unflushed data survived crash: %q", got)
	}
	m.Read(512, got)
	if string(got) != "to be kept" {
		t.Fatalf("flushed data lost in crash: %q", got)
	}
}

func TestCrashSurvivalOneKeepsEverything(t *testing.T) {
	m := New(1024)
	m.Write(128, []byte("evicted before crash"))
	m.Crash(1, 1)
	got := make([]byte, 20)
	m.Read(128, got)
	if string(got) != "evicted before crash" {
		t.Fatalf("survival=1 lost data: %q", got)
	}
}

func TestCrashPartialIsDeterministic(t *testing.T) {
	run := func() []byte {
		m := New(4096)
		for i := 0; i < 64; i++ {
			m.Write(i*64, bytes.Repeat([]byte{byte(i + 1)}, 64))
		}
		m.Crash(99, 0.5)
		out := make([]byte, 4096)
		m.Read(0, out)
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
}

func TestWrite8Atomicity(t *testing.T) {
	m := New(128)
	m.Write8(16, 0xdeadbeefcafef00d)
	if v := m.Read8(16); v != 0xdeadbeefcafef00d {
		t.Fatalf("Read8 = %#x", v)
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
	m := New(1024)
	m.Write(0, bytes.Repeat([]byte{1}, 192))
	m.Flush(0, 192)
	if m.FlushedLines() != 3 {
		t.Fatalf("FlushedLines = %d, want 3", m.FlushedLines())
	}
	m.Flush(0, 192) // clean lines: no-op
	if m.FlushedLines() != 3 {
		t.Fatalf("FlushedLines = %d after redundant flush, want 3", m.FlushedLines())
	}
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
	f := func(ops []op, seed uint64) bool {
		const size = 4096
		m := New(size)
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
			m.Write(off, o.Data)
			copy(volatile[off:], o.Data)
			if o.Flush {
				m.Flush(off, len(o.Data))
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
		m.Read(0, got)
		if !bytes.Equal(got, volatile) {
			return false
		}
		m.Crash(seed, 0)
		m.Read(0, got)
		return bytes.Equal(got, shadow)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
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
	if v := d.Read8(8); v != 12345 {
		t.Fatalf("Read8 = %d", v)
	}
}

func TestZeroClearsPersistAndOverlay(t *testing.T) {
	m := New(1024)
	m.Write(0, bytes.Repeat([]byte{0xFF}, 256))
	m.Flush(0, 128) // first two lines persisted, next two dirty
	m.Zero(64, 128) // spans one persisted and one dirty line
	got := make([]byte, 256)
	m.Read(0, got)
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
	m.ReadPersisted(64, got[:128])
	for i, b := range got[:128] {
		if b != 0 {
			t.Fatalf("persisted byte %d not zeroed", 64+i)
		}
	}
	m.Drain() // no-op, for coverage of the contract
	m.Zero(0, 0)
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
// after every step. crash applies the device's notion of a crash to both
// and returns the device to continue with.
func replayAgainstModel(t *testing.T, seed uint64, dev diffDevice, crash func(ref *refModel, seed uint64, survival float64) diffDevice) {
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
			dev.Write(off, src)
			ref.write(off, src)
		case k < 9:
			off, v := 8*rng.IntN(size/8), rng.Uint64()
			op = fmt.Sprintf("Write8(%d)", off)
			dev.Write8(off, v)
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], v)
			ref.write(off, b[:])
		case k < 14: // partial, clean and empty ranges
			off, n := span(0, 8*LineSize)
			if k == 13 {
				n = 0
			}
			op = fmt.Sprintf("Flush(%d, %d)", off, n)
			dev.Flush(off, n)
			ref.flush(off, n)
		case k < 16: // cuts through dirty lines
			off, n := span(0, 6*LineSize)
			op = fmt.Sprintf("Zero(%d, %d)", off, n)
			dev.Zero(off, n)
			ref.zero(off, n)
		case k < 17:
			off, n := span(0, 3*LineSize)
			op = fmt.Sprintf("Read(%d, %d)", off, n)
			dev.Read(off, got[:n])
			ref.read(off, want[:n])
			if !bytes.Equal(got[:n], want[:n]) {
				t.Fatalf("seed %d step %d %s: got %x want %x", seed, step, op, got[:n], want[:n])
			}
		case k < 18:
			off, _ := span(8, 8)
			op = fmt.Sprintf("Read8(%d)", off)
			ref.read(off, want[:8])
			if g, w := dev.Read8(off), binary.LittleEndian.Uint64(want); g != w {
				t.Fatalf("seed %d step %d %s: got %#x want %#x", seed, step, op, g, w)
			}
		case k < 19:
			off, n := span(0, 3*LineSize)
			op = fmt.Sprintf("ReadPersisted(%d, %d)", off, n)
			dev.ReadPersisted(off, got[:n])
			if !bytes.Equal(got[:n], ref.persist[off:off+n]) {
				t.Fatalf("seed %d step %d %s: got %x want %x", seed, step, op, got[:n], ref.persist[off:off+n])
			}
		default:
			survival := []float64{0, 0.5, 1}[rng.IntN(3)]
			op = fmt.Sprintf("Crash(%v)", survival)
			dev = crash(ref, rng.Uint64(), survival)
		}
		dev.Read(0, got)
		ref.read(0, want)
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d step %d after %s: coherent image differs from model", seed, step, op)
		}
		dev.ReadPersisted(0, got)
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
	for seed := uint64(1); seed <= 16; seed++ {
		m := New(200 * LineSize)
		replayAgainstModel(t, seed, m, func(ref *refModel, cseed uint64, survival float64) diffDevice {
			ref.crash(cseed, survival)
			m.Crash(cseed, survival)
			return m
		})
	}
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
		replayAgainstModel(t, seed, d, func(ref *refModel, cseed uint64, _ float64) diffDevice {
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

// The three micro-benchmarks below are in CI's alloc gate: the device is the
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
		sink += m.Read8(off)
	}
}
