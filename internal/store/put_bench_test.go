// Write hot-path benchmarks: the PUT allocation path (lookup + log
// alloc + metadata persist + publish) must be allocation-free, both
// per-op (Put) and in the run-to-completion batch form (PutBatch, one
// lock acquisition per group), on the simulator's kind of clock and on
// the wall clock tcpkv runs on. The alloc counts here are regression
// gates — CI greps for "0 allocs/op".
package store_test

import (
	"fmt"
	"testing"

	"efactory/internal/crc"
	"efactory/internal/store"
)

// putsPerStore bounds how many PUTs one bench store absorbs before the
// log would fill (cleaning is off in benchStore); the benchmarks rebuild
// the store with the timer stopped when the bound is reached.
const putsPerStore = 16384

// benchPutKeys builds a reusable key set plus the CRC of the shared
// benchmark value.
func benchPutKeys(n, vlen int) (keys [][]byte, sum uint32, _ int) {
	keys = make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("obj-%04d", i))
	}
	val := make([]byte, vlen)
	for i := range val {
		val[i] = 'v'
	}
	return keys, crc.Checksum(val), vlen
}

// BenchmarkEnginePut overwrites a fixed key set one Put at a time: the
// allocate-in-log + persist-metadata + publish path, which must not
// touch the heap, on each of benchClocks.
func BenchmarkEnginePut(b *testing.B) {
	for _, c := range benchClocks {
		b.Run(c.name, func(b *testing.B) { benchEnginePut(b, c.wall) })
	}
}

func benchEnginePut(b *testing.B, wall bool) {
	keys, sum, vlen := benchPutKeys(256, 256)
	var (
		st  *store.Store
		eng *store.Engine
	)
	fresh := func() {
		b.StopTimer()
		if st != nil {
			st.Stop()
		}
		st, _ = benchStore(b, wall)
		eng = st.Shard(0)
		b.StartTimer()
	}
	fresh()
	defer st.Stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%putsPerStore == 0 {
			fresh()
		}
		pr := eng.Put(nil, keys[i%len(keys)], vlen, sum)
		if pr.Status != store.StatusOK {
			b.Fatalf("put %d: %v", i, pr.Status)
		}
	}
}

// BenchmarkEnginePutBatch performs the same work through PutBatch with
// caller-owned op and result scratch: one lock acquisition per
// batchWidth allocations. Reported per PUT, not per batch.
func BenchmarkEnginePutBatch(b *testing.B) {
	for _, c := range benchClocks {
		b.Run(c.name, func(b *testing.B) { benchEnginePutBatch(b, c.wall) })
	}
}

func benchEnginePutBatch(b *testing.B, wall bool) {
	const batchWidth = 64
	keys, sum, vlen := benchPutKeys(256, 256)
	ops := make([]store.PutOp, batchWidth)
	res := make([]store.PutResult, 0, batchWidth)
	var (
		st  *store.Store
		eng *store.Engine
	)
	fresh := func() {
		b.StopTimer()
		if st != nil {
			st.Stop()
		}
		st, _ = benchStore(b, wall)
		eng = st.Shard(0)
		b.StartTimer()
	}
	fresh()
	defer st.Stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batchWidth {
		if i > 0 && i%putsPerStore == 0 {
			fresh()
		}
		for k := range ops {
			ops[k] = store.PutOp{Key: keys[(i+k)%len(keys)], VLen: vlen, Crc: sum}
		}
		res = eng.PutBatch(nil, ops, res[:0])
		for k := range res {
			if res[k].Status != store.StatusOK {
				b.Fatalf("put %d: %v", i+k, res[k].Status)
			}
		}
	}
}
