package store

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"efactory/internal/crc"
	"efactory/internal/kv"
	"efactory/internal/nvm"
)

// exportTestEngine builds a fresh single-shard engine for export tests.
func exportTestEngine(t *testing.T) (*Engine, *nvm.Memory, Config) {
	t.Helper()
	cfg := Config{Buckets: 256, PoolSize: 64 << 10, VerifyTimeout: time.Second}
	dev := nvm.New(cfg.Layout().DeviceSize())
	st, _, err := New(dev, cfg, Deps{})
	if err != nil {
		t.Fatal(err)
	}
	return st.Shard(0), dev, cfg
}

// putVal allocates, writes, and (optionally) settles one value.
func putVal(t *testing.T, e *Engine, key, val []byte, settle bool) {
	t.Helper()
	pr := e.Put(nil, key, len(val), crc.Checksum(val))
	if pr.Status != StatusOK {
		t.Fatalf("put %q: status %v", key, pr.Status)
	}
	if pr.Seq == 0 {
		t.Fatalf("put %q: PutResult.Seq not populated", key)
	}
	e.Pool(pr.Pool).WriteValue(pr.Off, len(key), val)
	if settle {
		if gr := e.Get(nil, key); gr.Status != StatusOK {
			t.Fatalf("get %q after put: status %v", key, gr.Status)
		}
	}
}

// chainOf walks a key's version chain newest-first, returning raw
// headers and values — the bit-exactness witness.
func chainOf(t *testing.T, e *Engine, key []byte) (hds []kv.Header, vals [][]byte) {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	_, en, found := e.table.Lookup(kv.HashKey(key))
	if !found || en.Tombstone() {
		return nil, nil
	}
	pi, off, _, ok := e.head(en)
	if !ok {
		return nil, nil
	}
	for {
		hd := e.pools[pi].Header(off)
		if hd.Magic != kv.Magic {
			break
		}
		hds = append(hds, hd)
		vals = append(vals, e.pools[pi].ReadValue(off, hd.KLen, hd.VLen))
		var okPre bool
		pi, off, _, okPre = kv.UnpackVPtr(hd.PrePtr)
		if !okPre {
			break
		}
	}
	return hds, vals
}

func entryOf(t *testing.T, e *Engine, key []byte) (kv.Entry, bool) {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	_, en, found := e.table.Lookup(kv.HashKey(key))
	return en, found
}

// TestExportImportRoundTripBitExact migrates a shard's worth of state —
// multi-version chains, a tombstone, a delete+re-put cut sequence, a
// not-yet-durable tail version, and a torn value — into a fresh engine
// and requires sequence numbers, creation stamps, CRCs, flag bytes, and
// value bytes to survive unchanged, then pins the pair against recovery:
// after a crash both engines must recover to the same surviving state.
func TestExportImportRoundTripBitExact(t *testing.T) {
	src, sdev, cfg := exportTestEngine(t)

	// key-multi: three settled versions (a real chain).
	multi := [][]byte{
		bytes.Repeat([]byte{0x11}, 40),
		bytes.Repeat([]byte{0x22}, 56),
		bytes.Repeat([]byte{0x33}, 24),
	}
	for _, v := range multi {
		putVal(t, src, []byte("key-multi"), v, true)
	}
	// key-gone: settled, then deleted (exports as a tombstone).
	putVal(t, src, []byte("key-gone"), bytes.Repeat([]byte{0x44}, 32), true)
	if s := src.Del(nil, []byte("key-gone")); s != StatusOK {
		t.Fatalf("del: %v", s)
	}
	// key-phoenix: settled, deleted, re-put — the entry carries a cut
	// sequence that must survive the move.
	putVal(t, src, []byte("key-phoenix"), bytes.Repeat([]byte{0x55}, 48), true)
	if s := src.Del(nil, []byte("key-phoenix")); s != StatusOK {
		t.Fatalf("del: %v", s)
	}
	phoenixVal := bytes.Repeat([]byte{0x66}, 48)
	putVal(t, src, []byte("key-phoenix"), phoenixVal, true)
	// key-pending: settled v1, then a v2 whose value landed but was never
	// verified — valid, not yet durable.
	putVal(t, src, []byte("key-pending"), bytes.Repeat([]byte{0x77}, 40), true)
	putVal(t, src, []byte("key-pending"), bytes.Repeat([]byte{0x88}, 40), false)
	// key-torn: settled v1, then an allocation whose value never arrived —
	// the CRC mismatch must travel so the target rolls back identically.
	tornV1 := bytes.Repeat([]byte{0x99}, 40)
	putVal(t, src, []byte("key-torn"), tornV1, true)
	if pr := src.Put(nil, []byte("key-torn"), 40, crc.Checksum(bytes.Repeat([]byte{0xaa}, 40))); pr.Status != StatusOK {
		t.Fatalf("torn alloc: %v", pr.Status)
	}

	var exported []ExportKey
	src.ExportMatching(nil, func(ek ExportKey) bool {
		exported = append(exported, ek)
		return true
	})
	if len(exported) != 5 {
		t.Fatalf("exported %d keys, want 5", len(exported))
	}

	dst, ddev, _ := exportTestEngine(t)
	for _, ek := range exported {
		if s := dst.ImportKey(nil, ek); s != StatusOK {
			t.Fatalf("import %q: %v", ek.Key, s)
		}
	}

	// Bit-exact chain comparison BEFORE any reads disturb flags on the
	// destination.
	for _, key := range []string{"key-multi", "key-phoenix", "key-pending", "key-torn"} {
		sh, sv := chainOf(t, src, []byte(key))
		dh, dv := chainOf(t, dst, []byte(key))
		if len(sh) != len(dh) {
			t.Fatalf("%s: chain length %d vs %d", key, len(sh), len(dh))
		}
		for i := range sh {
			if sh[i].Seq != dh[i].Seq || sh[i].CreatedAt != dh[i].CreatedAt ||
				sh[i].CRC != dh[i].CRC || sh[i].Flags != dh[i].Flags ||
				sh[i].KLen != dh[i].KLen || sh[i].VLen != dh[i].VLen {
				t.Fatalf("%s: version %d header diverged:\nsrc %+v\ndst %+v", key, i, sh[i], dh[i])
			}
			if !bytes.Equal(sv[i], dv[i]) {
				t.Fatalf("%s: version %d value diverged", key, i)
			}
		}
	}
	// Tombstone state: on a fresh destination the import is a no-op
	// (absence is indistinguishable from deleted) — the observable
	// contract is that the key reads as gone.
	if gr := dst.Get(nil, []byte("key-gone")); gr.Status != StatusNotFound {
		t.Fatalf("key-gone on dst: status %v, want NotFound", gr.Status)
	}
	sEn, _ := entryOf(t, src, []byte("key-phoenix"))
	dEn, found := entryOf(t, dst, []byte("key-phoenix"))
	if !found || dEn.CutSeq() != sEn.CutSeq() || dEn.CutSeq() == 0 {
		t.Fatalf("key-phoenix cut sequence: src %d dst %d (found=%v)", sEn.CutSeq(), dEn.CutSeq(), found)
	}

	// Both engines now crash; recovery must keep the same keys with the
	// same surviving values on both sides.
	sdev.Crash(0xfee1, 0)
	ddev.Crash(0xfee1, 0)
	sst, _, err := New(sdev, cfg, Deps{})
	if err != nil {
		t.Fatal(err)
	}
	dst2, _, err := New(ddev, cfg, Deps{})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"key-multi", "key-gone", "key-phoenix", "key-pending", "key-torn"} {
		sg := sst.Shard(0).Get(nil, []byte(key))
		dg := dst2.Shard(0).Get(nil, []byte(key))
		if sg.Status != dg.Status {
			t.Fatalf("%s after recovery: src status %v, dst status %v", key, sg.Status, dg.Status)
		}
		if sg.Status != StatusOK {
			continue
		}
		shd := sst.Shard(0).Pool(sg.Pool).Header(sg.Off)
		dhd := dst2.Shard(0).Pool(dg.Pool).Header(dg.Off)
		if shd.Seq != dhd.Seq || shd.CRC != dhd.CRC {
			t.Fatalf("%s after recovery: version diverged (seq %d/%d crc %x/%x)",
				key, shd.Seq, dhd.Seq, shd.CRC, dhd.CRC)
		}
		svv := sst.Shard(0).Pool(sg.Pool).ReadValue(sg.Off, shd.KLen, shd.VLen)
		dvv := dst2.Shard(0).Pool(dg.Pool).ReadValue(dg.Off, dhd.KLen, dhd.VLen)
		if !bytes.Equal(svv, dvv) {
			t.Fatalf("%s after recovery: value diverged", key)
		}
	}
	// The torn tail must have been discarded on BOTH sides (rolled back to
	// v1), proving the CRC mismatch traveled.
	gr := dst2.Shard(0).Get(nil, []byte("key-torn"))
	if gr.Status != StatusOK {
		t.Fatalf("key-torn lost entirely on dst: %v", gr.Status)
	}
	hd := dst2.Shard(0).Pool(gr.Pool).Header(gr.Off)
	if got := dst2.Shard(0).Pool(gr.Pool).ReadValue(gr.Off, hd.KLen, hd.VLen); !bytes.Equal(got, tornV1) {
		t.Fatalf("key-torn recovered to %x, want rolled-back v1", got)
	}
}

// TestImportIdempotentAndMonotone re-imports and imports stale states;
// the engine must keep exactly the newest state.
func TestImportIdempotentAndMonotone(t *testing.T) {
	src, _, _ := exportTestEngine(t)
	v1 := bytes.Repeat([]byte{0x01}, 32)
	v2 := bytes.Repeat([]byte{0x02}, 32)
	putVal(t, src, []byte("k"), v1, true)
	var snap1 ExportKey
	if ek, ok := src.ExportOne([]byte("k")); ok {
		snap1 = ek
	} else {
		t.Fatal("ExportOne found nothing")
	}
	putVal(t, src, []byte("k"), v2, true)
	snap2, _ := src.ExportOne([]byte("k"))

	dst, _, _ := exportTestEngine(t)
	for _, ek := range []ExportKey{snap1, snap2, snap2, snap1} { // old, new, dup, stale
		if s := dst.ImportKey(nil, ek); s != StatusOK {
			t.Fatalf("import: %v", s)
		}
	}
	gr := dst.Get(nil, []byte("k"))
	if gr.Status != StatusOK {
		t.Fatalf("get: %v", gr.Status)
	}
	hd := dst.Pool(gr.Pool).Header(gr.Off)
	if got := dst.Pool(gr.Pool).ReadValue(gr.Off, hd.KLen, hd.VLen); !bytes.Equal(got, v2) {
		t.Fatalf("got %x, want newest v2 despite stale re-imports", got)
	}
	// A tombstone import deletes; a second one is a no-op.
	tomb := ExportKey{Key: []byte("k"), Tombstone: true}
	for i := 0; i < 2; i++ {
		if s := dst.ImportKey(nil, tomb); s != StatusOK {
			t.Fatalf("tombstone import %d: %v", i, s)
		}
	}
	if gr := dst.Get(nil, []byte("k")); gr.Status != StatusNotFound {
		t.Fatalf("get after tombstone import: %v, want NotFound", gr.Status)
	}
	// Tombstone of an absent key is a clean no-op.
	if s := dst.ImportKey(nil, ExportKey{Key: []byte("never"), Tombstone: true}); s != StatusOK {
		t.Fatalf("absent tombstone import: %v", s)
	}
}

// TestExportFilterAndPurge drives the PG-predicate path: only accepted
// hashes export, and PurgeMatching clears exactly those entries.
func TestExportFilterAndPurge(t *testing.T) {
	e, _, _ := exportTestEngine(t)
	accept := func(h uint64) bool { return h%2 == 0 }
	wantExported := 0
	for i := 0; i < 32; i++ {
		key := []byte(fmt.Sprintf("key-%02d", i))
		putVal(t, e, key, bytes.Repeat([]byte{byte(i)}, 24), true)
		if accept(kv.HashKey(key)) {
			wantExported++
		}
	}
	got := 0
	e.ExportMatching(accept, func(ek ExportKey) bool {
		if !accept(kv.HashKey(ek.Key)) {
			t.Fatalf("exported unaccepted key %q", ek.Key)
		}
		got++
		return true
	})
	if got != wantExported {
		t.Fatalf("exported %d keys, want %d", got, wantExported)
	}
	if purged := e.PurgeMatching(accept); purged != wantExported {
		t.Fatalf("purged %d entries, want %d", purged, wantExported)
	}
	for i := 0; i < 32; i++ {
		key := []byte(fmt.Sprintf("key-%02d", i))
		gr := e.Get(nil, key)
		if accept(kv.HashKey(key)) && gr.Status != StatusNotFound {
			t.Fatalf("purged key %q still readable: %v", key, gr.Status)
		}
		if !accept(kv.HashKey(key)) && gr.Status != StatusOK {
			t.Fatalf("unpurged key %q lost: %v", key, gr.Status)
		}
	}
	st := e.Stats()
	if st.KeysExported == 0 || st.KeysPurged != wantExported {
		t.Fatalf("stats: %+v", st)
	}
}
