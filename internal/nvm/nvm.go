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
// and eviction are per-line, and Write8 provides the 8-byte atomic store
// used for metadata.
package nvm

// LineSize is the cache-line size in bytes: the granularity of flushes and
// of data loss at a crash.
const LineSize = 64

// AtomicUnit is the failure-atomicity unit of NVMM in bytes.
const AtomicUnit = 8

// Device is the interface storage engines program against. *Memory is the
// canonical in-process implementation; *FileBacked adds real durability.
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
	// 8-byte aligned) in the volatile domain.
	Write8(off int, v uint64)
	// Read8 performs an 8-byte load from the coherent view.
	Read8(off int) uint64
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
// crash model.
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
	m.init(make([]byte, size), make([]byte, size))
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
