package kv

import "testing"

// FuzzDecodeHeader ensures arbitrary header bytes never panic the decoder
// and round-trip when re-encoded.
func FuzzDecodeHeader(f *testing.F) {
	f.Add(EncodeHeader(&Header{PrePtr: NilPtr, VLen: 5, KLen: 3, Magic: Magic}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < HeaderSize {
			return
		}
		h := DecodeHeader(data)
		if h.KLen < 0 || h.VLen < 0 {
			// Negative lengths can only come from >2^31 encodings on
			// 32-bit ints; decoders upstream must reject via Magic and
			// bounds checks, which Scan does. Nothing to assert here.
			return
		}
		got := DecodeHeader(EncodeHeader(&h))
		if got != h {
			t.Fatalf("round trip mismatch: %+v vs %+v", h, got)
		}
	})
}

// FuzzDecodeEntry does the same for hash entries.
func FuzzDecodeEntry(f *testing.F) {
	f.Add(make([]byte, EntrySize))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < EntrySize {
			return
		}
		e := DecodeEntry(data)
		_ = e.Current()
		_ = e.Other()
		_ = e.Tombstone()
		_, _, _ = UnpackLoc(e.Current())
	})
}
