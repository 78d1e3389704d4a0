// Package nvm emulates byte-addressable non-volatile main memory (NVMM)
// with an explicit volatility boundary, the property that makes remote
// crash consistency hard (paper §2.2).
//
// Stores land in a volatile cache-line overlay (modelling the CPU cache /
// DDIO path: DMA from the NIC is written to the cache domain, not to the
// persistent media). A line becomes durable only when it is explicitly
// flushed (CLFLUSH equivalent) or when the crash model decides it was
// naturally evicted before the failure. Crash discards the overlay — except
// lines the eviction model kept — exactly reproducing "data may partially
// exist in the NVM" from the paper. The overlay (overlay.go) exists once;
// Memory and FileBacked embed it and differ only in what durable means.
//
// The failure-atomicity unit of real NVMM is 8 bytes; eviction and flushing
// operate on 64-byte cache lines. Both granularities are modelled: flushes
// and eviction are per-line, Write8 provides the 8-byte atomic store used
// for metadata, and ReadLine/WriteLine move one whole line per call.
package nvm

// LineSize is the cache-line size in bytes: the granularity of flushes and
// of data loss at a crash.
const LineSize = 64

// AtomicUnit is the failure-atomicity unit of NVMM in bytes.
const AtomicUnit = 8

// Device is the interface storage engines program against. *Memory is the
// canonical in-process implementation; *FileBacked adds real durability.
// Every call takes the device's lock once, so metadata moves a line at a
// time: an object header or a hash entry is one ReadLine or WriteLine,
// its words in an array by value so nothing escapes through the
// interface, and Write8 is kept for the one word that must change
// atomically.
type Device interface {
	// Size returns the capacity in bytes.
	Size() int
	// Read copies len(dst) bytes at off into dst from the coherent view
	// (volatile overlay if dirty, else persistent media).
	Read(off int, dst []byte)
	// Write copies src to off in the volatile domain. The data is NOT
	// durable until the covering lines are flushed.
	Write(off int, src []byte)
	// Write8 performs an 8-byte atomic store at off (which must be
	// 8-byte aligned) in the volatile domain: the unit of failure
	// atomicity, for a metadata word that must never tear.
	Write8(off int, v uint64)
	// ReadLine loads the cache line at off (which must be line-aligned)
	// from the coherent view as eight little-endian words.
	ReadLine(off int) [8]uint64
	// WriteLine stores eight little-endian words over the cache line at
	// off (which must be line-aligned) in the volatile domain, dirtying
	// that one line. The crash model keeps or reverts a line whole, but
	// a line is not a failure-atomic unit on real NVMM: only Write8 is.
	WriteLine(off int, w [8]uint64)
	// ReadPersisted copies len(dst) bytes at off from the persistent media
	// only, ignoring unflushed stores: the post-crash view, which recovery
	// and the crash oracle read.
	ReadPersisted(off int, dst []byte)
	// Flush makes the cache lines covering [off, off+n) durable
	// (CLFLUSH/CLWB equivalent).
	Flush(off, n int)
	// Drain is the SFENCE equivalent. Flush in this model completes
	// synchronously, so Drain is a semantic no-op kept for API fidelity;
	// its cost is charged by the simulation's cost model.
	Drain()
	// Zero durably clears [off, off+n): both the volatile overlay and the
	// persistent media. Used when a data pool is recycled for log
	// cleaning, so stale object headers cannot be mistaken for live ones.
	Zero(off, n int)
}

// Memory is an emulated NVMM module: the overlay over plain DRAM, plus the
// crash model. A Memory of a huge page (2 MiB) or more holds its images in
// memory mapped from the kernel, not in the Go heap; the map is returned
// when the Memory is garbage collected.
//
// It is safe for concurrent use; the simulator runs single-threaded but the
// TCP transport accesses a Memory from multiple goroutines.
type Memory struct{ overlay }

var _ Device = (*Memory)(nil)

// New returns a zeroed Memory of the given size in bytes. Size is rounded
// up to a whole number of cache lines.
func New(size int) *Memory {
	if size <= 0 {
		panic("nvm: size must be positive")
	}
	size = roundUp(size)
	m := &Memory{}
	m.init(size)
	return m
}

// Drain is the SFENCE equivalent; see Device.Drain.
func (m *Memory) Drain() {}

// Crash simulates a power failure. Each dirty line independently survives
// (was evicted to media before the failure) with probability survival,
// drawn from a PRNG seeded with seed so crashes are reproducible; all other
// dirty lines revert to their last flushed contents. After Crash the
// overlay is empty, as caches are after a reboot.
//
// survival = 0 models "nothing unflushed survives"; survival = 1 models
// "everything already made it to media". Values in between produce the
// partial, torn states the paper's consistency machinery must tolerate.
func (m *Memory) Crash(seed uint64, survival float64) { m.crash(seed, survival) }
