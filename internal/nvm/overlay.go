package nvm

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"sync"
)

// overlay is the volatility boundary, written once and embedded by both
// devices. It keeps two dense images of the device and one dirty bit per
// cache line: stores land in view, the cache-coherent image every load
// sees; persist is what a crash leaves behind, and changes only when a
// dirty line is flushed, wins the crash lottery, or is zeroed. A clean line
// is byte-equal in both images, so loads and stores are plain copies and a
// flush is one copy per run of dirty lines. The price is RAM: twice the
// device size.
type overlay struct {
	mu      sync.Mutex
	view    []byte   // coherent image
	persist []byte   // durable image
	dirty   []uint64 // bit li: line li was stored to since it last reached persist
	ndirty  int      // set bits in dirty
	flushes int      // dirty lines flushed, cumulative
	// wrote, when set, is told of every change Flush and Zero make to
	// persist[off:off+n], with mu held: FileBacked mirrors the range to its
	// file.
	wrote func(off, n int)
}

// roundUp rounds a device size up to a whole number of cache lines.
func roundUp(size int) int {
	return (size + LineSize - 1) / LineSize * LineSize
}

// init adopts the two images, which must be equal and of one line-multiple
// length.
func (o *overlay) init(view, persist []byte) {
	o.view, o.persist = view, persist
	o.dirty = make([]uint64, (len(view)/LineSize+63)/64)
}

// Size returns the capacity in bytes.
func (o *overlay) Size() int { return len(o.view) }

func (o *overlay) check(off, n int) {
	if off < 0 || n < 0 || off+n > len(o.view) {
		panic(fmt.Sprintf("nvm: access [%d, %d) out of range [0, %d)", off, off+n, len(o.view)))
	}
}

// Read copies len(dst) bytes at off from the coherent (cache-visible) view.
func (o *overlay) Read(off int, dst []byte) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.check(off, len(dst))
	copy(dst, o.view[off:])
}

// Write stores src at off in the volatile domain: the covered lines become
// dirty, and are not durable until flushed.
func (o *overlay) Write(off int, src []byte) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.check(off, len(src))
	if len(src) == 0 {
		return
	}
	copy(o.view[off:], src)
	first, last := off/LineSize, (off+len(src)-1)/LineSize
	for w := first >> 6; w <= last>>6; w++ {
		m := wordMask(w, first, last)
		o.ndirty += bits.OnesCount64(m &^ o.dirty[w])
		o.dirty[w] |= m
	}
}

// Write8 performs an 8-byte atomic volatile store. off must be 8-byte
// aligned so the store cannot straddle the atomicity unit.
func (o *overlay) Write8(off int, v uint64) {
	if off%AtomicUnit != 0 {
		panic(fmt.Sprintf("nvm: Write8 at unaligned offset %d", off))
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	o.Write(off, b[:])
}

// Read8 performs an 8-byte load from the coherent view.
func (o *overlay) Read8(off int) uint64 {
	var b [8]byte
	o.Read(off, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// ReadPersisted copies bytes from the durable image only, ignoring
// unflushed stores: the post-crash view.
func (o *overlay) ReadPersisted(off int, dst []byte) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.check(off, len(dst))
	copy(dst, o.persist[off:])
}

// Flush persists the dirty cache lines covering [off, off+n); clean lines
// in the range cost nothing and are not counted.
func (o *overlay) Flush(off, n int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if n <= 0 {
		return
	}
	o.check(off, n)
	o.takeDirty(off/LineSize, (off+n-1)/LineSize, func(run, size int) {
		copy(o.persist[run:run+size], o.view[run:])
		o.flushes += size / LineSize
		if o.wrote != nil {
			o.wrote(run, size)
		}
	})
}

// Zero durably clears [off, off+n) in both images; see Device.Zero. Dirty
// bits are left alone: a line only partly inside the range still holds
// unflushed bytes outside it, so it stays dirty and still takes its draw at
// a crash.
func (o *overlay) Zero(off, n int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if n <= 0 {
		return
	}
	o.check(off, n)
	clear(o.view[off : off+n])
	clear(o.persist[off : off+n])
	if o.wrote != nil {
		o.wrote(off, n)
	}
}

// DirtyLines returns the number of cache lines whose contents are volatile.
func (o *overlay) DirtyLines() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.ndirty
}

// FlushedLines returns the cumulative number of dirty lines flushed, for
// tests and instrumentation.
func (o *overlay) FlushedLines() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.flushes
}

// crash runs the eviction lottery over every dirty line in ascending line
// order, one draw each: a survivor reaches persist, a loser reverts in view
// to its last durable contents. Seeded artifacts (crash images, torture
// verdicts) depend on exactly this draw order.
func (o *overlay) crash(seed uint64, survival float64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	rng := rand.New(rand.NewPCG(seed, 0xda7a_b10c))
	o.takeDirty(0, len(o.view)/LineSize-1, func(off, n int) {
		for end := off + n; off < end; off += LineSize {
			if rng.Float64() < survival {
				copy(o.persist[off:off+LineSize], o.view[off:])
			} else {
				copy(o.view[off:off+LineSize], o.persist[off:])
			}
		}
	})
}

// takeDirty marks lines [first, last] clean and calls fn, in ascending
// order, with the byte range of each run of them that was dirty (runs end
// at 64-line word boundaries).
func (o *overlay) takeDirty(first, last int, fn func(off, n int)) {
	for w := first >> 6; w <= last>>6; w++ {
		d := o.dirty[w] & wordMask(w, first, last)
		o.dirty[w] &^= d
		o.ndirty -= bits.OnesCount64(d)
		for d != 0 {
			lo := bits.TrailingZeros64(d)
			run := bits.TrailingZeros64(^(d >> lo))
			d &^= (uint64(1)<<run - 1) << lo
			fn((w<<6+lo)*LineSize, run*LineSize)
		}
	}
}

// wordMask returns the bits of dirty word w that stand for lines in
// [first, last].
func wordMask(w, first, last int) uint64 {
	m := ^uint64(0)
	if w == first>>6 {
		m <<= first & 63
	}
	if w == last>>6 {
		m &= ^uint64(0) >> (63 - last&63)
	}
	return m
}
