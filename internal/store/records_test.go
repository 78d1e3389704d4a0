package store

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"efactory/internal/crc"
	"efactory/internal/kv"
)

// randomRecords builds a record set of every shape a frame carries:
// tombstones, cut sequences, multi-version chains, txn IDs, and empty and
// kv.MaxObjectSize values.
func randomRecords(rng *rand.Rand) []ExportKey {
	recs := make([]ExportKey, rng.Intn(6))
	for i := range recs {
		ek := &recs[i]
		ek.Key = make([]byte, 1+rng.Intn(40))
		rng.Read(ek.Key)
		ek.CutSeq = uint64(rng.Intn(3)) * rng.Uint64()
		if rng.Intn(4) == 0 {
			ek.Tombstone = true
			continue
		}
		for j, n := 0, rng.Intn(5); j < n; j++ {
			var val []byte
			switch rng.Intn(8) {
			case 0: // empty
			case 1:
				val = make([]byte, kv.MaxObjectSize)
			default:
				val = make([]byte, rng.Intn(2048))
			}
			rng.Read(val)
			v := ExportVersion{Seq: rng.Uint64(), CreatedAt: rng.Uint64(), CRC: rng.Uint32(),
				Flags: uint8(rng.Intn(256)), Value: val}
			if rng.Intn(2) == 0 {
				v.TxnID = rng.Uint64()
			}
			ek.Versions = append(ek.Versions, v)
		}
	}
	return recs
}

// sameRecords compares record sets field by field; a nil and an empty
// key, value or chain are the same record.
func sameRecords(a, b []ExportKey) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := &a[i], &b[i]
		if !bytes.Equal(x.Key, y.Key) || x.Tombstone != y.Tombstone || x.CutSeq != y.CutSeq ||
			len(x.Versions) != len(y.Versions) {
			return false
		}
		for j := range x.Versions {
			v, w := x.Versions[j], y.Versions[j]
			if v.Seq != w.Seq || v.CreatedAt != w.CreatedAt || v.CRC != w.CRC || v.Flags != w.Flags ||
				v.TxnID != w.TxnID || !bytes.Equal(v.Value, w.Value) {
				return false
			}
		}
	}
	return true
}

func TestRecordsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var (
		buf  []byte
		recs []ExportKey
	)
	for i := 0; i < 100; i++ {
		in := randomRecords(rng)
		buf = AppendRecords(buf[:0], in)
		var err error
		if recs, err = DecodeRecordsInto(buf, recs); err != nil {
			t.Fatalf("set %d: decode: %v", i, err)
		}
		if !sameRecords(in, recs) {
			t.Fatalf("set %d: round trip changed the records", i)
		}
	}
}

func TestRecordsRefuseUnknownFormat(t *testing.T) {
	b := AppendRecords(nil, []ExportKey{{Key: []byte("k"), Tombstone: true}})
	for _, f := range []byte{0, recordFormat + 1, '[', 0xff} {
		b[0] = f
		if _, err := DecodeRecordsInto(b, nil); err == nil {
			t.Errorf("format byte %#x decoded", f)
		}
	}
}

func TestRecordsRefuseTruncation(t *testing.T) {
	b := AppendRecords(nil, randomRecordsOf(3))
	for i := 0; i < len(b); i++ {
		if _, err := DecodeRecordsInto(b[:i], nil); err == nil {
			t.Fatalf("a frame cut to %d of %d bytes decoded", i, len(b))
		}
	}
}

func TestRecordsRefuseTrailingBytes(t *testing.T) {
	b := AppendRecords(nil, randomRecordsOf(2))
	if _, err := DecodeRecordsInto(append(b, 0), nil); err == nil {
		t.Fatal("a frame with a trailing byte decoded")
	}
}

// TestRecordsRefuseHostileCounts: a record or version count larger than
// the bytes left could hold is refused before any allocation is sized
// from it. (The one record slot the version-count frame honestly needs
// comes from the caller's slice.)
func TestRecordsRefuseHostileCounts(t *testing.T) {
	scratch := make([]ExportKey, 0, 1)
	recordCount := AppendRecords(nil, []ExportKey{{Key: []byte("k"), Tombstone: true}})
	binary.LittleEndian.PutUint32(recordCount[1:], 1<<31)
	versionCount := AppendRecords(nil, []ExportKey{{Key: []byte("k")}})
	binary.LittleEndian.PutUint32(versionCount[frameHeaderSize+12:], 1<<31)
	for name, b := range map[string][]byte{"record count": recordCount, "version count": versionCount} {
		var err error
		allocs := testing.AllocsPerRun(10, func() { _, err = DecodeRecordsInto(b, scratch) })
		if err == nil {
			t.Errorf("%s: decoded", name)
		}
		if allocs != 0 {
			t.Errorf("%s: %.0f allocs before the refusal, want 0", name, allocs)
		}
	}
}

// randomRecordsOf returns n random records with values cut to 64 bytes,
// a frame small enough to cut at every offset.
func randomRecordsOf(n int) []ExportKey {
	rng := rand.New(rand.NewSource(int64(n)))
	for {
		if recs := randomRecords(rng); len(recs) >= n {
			return shortValues(recs[:n])
		}
	}
}

func shortValues(recs []ExportKey) []ExportKey {
	for i := range recs {
		for j := range recs[i].Versions {
			v := &recs[i].Versions[j]
			v.Value = v.Value[:min(len(v.Value), 64)]
		}
	}
	return recs
}

// TestImportAppendsOnlyNewerVersions: a chain imported over a resident
// durable head appends only the versions above it, so a compensating
// record or a re-copy of a long chain costs the backup one object.
func TestImportAppendsOnlyNewerVersions(t *testing.T) {
	e, _, _ := exportTestEngine(t)
	key := []byte("k")
	chain := ExportKey{Key: key}
	for seq := uint64(1); seq <= 5; seq++ {
		v := bytes.Repeat([]byte{byte(seq)}, 64)
		chain.Versions = append(chain.Versions, ExportVersion{
			Seq: seq, CRC: crc.Checksum(v), Flags: kv.FlagValid | kv.FlagDurable, Value: v,
		})
	}
	resident := chain
	resident.Versions = chain.Versions[:4]
	if s := e.ImportKey(nil, resident); s != StatusOK {
		t.Fatalf("import of seqs 1-4: %v", s)
	}
	used := func() int { return e.Pool(0).Used() + e.Pool(1).Used() }
	before := used()
	if s := e.ImportKey(nil, chain); s != StatusOK {
		t.Fatalf("import of seqs 1-5: %v", s)
	}
	if grew, want := used()-before, kv.ObjectSize(len(key), 64); grew != want {
		t.Fatalf("the pool grew %d bytes, want one object (%d)", grew, want)
	}
	if gr := e.Get(nil, key); gr.Status != StatusOK || gr.Seq != 5 {
		t.Fatalf("Get = %+v, want seq 5", gr)
	}
	if got, ok := e.ExportOne(key); !ok || !sameRecords([]ExportKey{got}, []ExportKey{chain}) {
		t.Fatalf("re-export %+v, want the five-version chain", got)
	}
}

// FuzzDecodeRecords: whatever the bytes, decoding must not panic, and a
// frame that decodes must re-encode to the same bytes and decode again to
// the same records.
func FuzzDecodeRecords(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 8; i++ {
		f.Add(AppendRecords(nil, shortValues(randomRecords(rng))))
	}
	f.Add([]byte{})
	f.Add([]byte(`[{"key":"aw=="}]`))
	f.Fuzz(func(t *testing.T, b []byte) {
		recs, err := DecodeRecordsInto(b, nil)
		if err != nil {
			return
		}
		again := AppendRecords(nil, recs)
		if !bytes.Equal(again, b) {
			t.Fatalf("re-encoding changed the frame:\n%x\n%x", b, again)
		}
		recs2, err := DecodeRecordsInto(again, nil)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !sameRecords(recs, recs2) {
			t.Fatal("re-decode changed the records")
		}
	})
}

// mirrorRecord is one mirror append of the cluster-rf2 benchmark: a
// 32-byte key, one durable 1 KiB version.
func mirrorRecord() []ExportKey {
	v := bytes.Repeat([]byte{0xab}, 1024)
	return []ExportKey{{Key: bytes.Repeat([]byte{'k'}, 32), Versions: []ExportVersion{{
		Seq: 9, CreatedAt: 1 << 40, CRC: crc.Checksum(v), Flags: kv.FlagValid | kv.FlagDurable, Value: v,
	}}}}
}

func BenchmarkAppendRecords(b *testing.B) {
	recs := mirrorRecord()
	buf := AppendRecords(nil, recs)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendRecords(buf[:0], recs)
	}
}

func BenchmarkDecodeRecordsInto(b *testing.B) {
	frame := AppendRecords(nil, mirrorRecord())
	recs, err := DecodeRecordsInto(frame, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if recs, err = DecodeRecordsInto(frame, recs); err != nil {
			b.Fatal(err)
		}
	}
}
