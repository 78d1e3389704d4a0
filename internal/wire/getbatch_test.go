package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

func TestGetOpsRoundTrip(t *testing.T) {
	ops := []GetOp{
		{Slot: 17, Key: []byte("alpha")},
		{Slot: NoSlot, Key: []byte("")},
		{Slot: 0, Key: bytes.Repeat([]byte{'k'}, 300)},
	}
	got, err := DecodeGetOpsInto(AppendGetOps(nil, ops), nil)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(ops) {
		t.Fatalf("decoded %d ops, want %d", len(got), len(ops))
	}
	for i, op := range ops {
		g := got[i]
		if g.Slot != op.Slot || !bytes.Equal(g.Key, op.Key) {
			t.Errorf("op %d: got %+v, want %+v", i, g, op)
		}
	}
}

func TestGetOpsEmptyBatch(t *testing.T) {
	got, err := DecodeGetOpsInto(AppendGetOps(nil, nil), nil)
	if err != nil {
		t.Fatalf("decode empty: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("decoded %d ops from an empty batch", len(got))
	}
}

func TestGetOpsTruncated(t *testing.T) {
	blob := AppendGetOps(nil, []GetOp{{Slot: 3, Key: []byte("victim")}})
	for cut := 0; cut < len(blob); cut++ {
		if _, err := DecodeGetOpsInto(blob[:cut], nil); !errors.Is(err, ErrShort) {
			t.Fatalf("truncated at %d: err = %v, want ErrShort", cut, err)
		}
	}
}

func TestGetGrantsRoundTrip(t *testing.T) {
	gs := []GetGrant{
		{Status: StOK, Flags: GrantDurable, RKey: 4, Slot: 9, Len: 320, KLen: 5, Off: 1 << 40, Seq: 77},
		{Status: StNotFound},
		{Status: StOK, RKey: 0xffffffff, Slot: NoSlot, Len: 0xffffffff, KLen: 0, Off: 0, Seq: ^uint64(0)},
	}
	got, err := DecodeGetGrantsInto(AppendGetGrants(nil, gs, false), nil, false)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(gs) {
		t.Fatalf("decoded %d grants, want %d", len(got), len(gs))
	}
	for i := range gs {
		if !sameGrant(got[i], gs[i]) {
			t.Errorf("grant %d: got %+v, want %+v", i, got[i], gs[i])
		}
	}
	if !got[0].Durable() || got[1].Durable() {
		t.Fatalf("durable flags mangled: %+v", got)
	}
}

// sameGrant compares two grants field by field, the value by its bytes
// and by whether it is there at all.
func sameGrant(a, b GetGrant) bool {
	return a.Status == b.Status && a.Flags == b.Flags && a.RKey == b.RKey && a.Slot == b.Slot &&
		a.Len == b.Len && a.KLen == b.KLen && a.Off == b.Off && a.Seq == b.Seq &&
		bytes.Equal(a.Value, b.Value) && (a.Value == nil) == (b.Value == nil)
}

func TestGetGrantsTruncated(t *testing.T) {
	blob := AppendGetGrants(nil, []GetGrant{{Status: StOK, RKey: 1, Slot: 2, Len: 3, KLen: 4, Off: 5, Seq: 6}}, false)
	for cut := 0; cut < len(blob); cut++ {
		if _, err := DecodeGetGrantsInto(blob[:cut], nil, false); !errors.Is(err, ErrShort) {
			t.Fatalf("truncated at %d: err = %v, want ErrShort", cut, err)
		}
	}
}

// inlineGrants is an inline-layout TGetResults payload: a value, a bare
// grant, an empty value and a miss.
var inlineGrants = []GetGrant{
	{Status: StOK, Flags: GrantDurable | GrantValue, RKey: 2, Slot: 7, Len: 128, KLen: 5, Off: 64, Seq: 3, Value: []byte("value-one")},
	{Status: StOK, Flags: GrantDurable, RKey: 3, Slot: 8, Len: 4096, KLen: 5, Off: 128, Seq: 4},
	{Status: StOK, Flags: GrantDurable | GrantValue, RKey: 2, Slot: 9, Len: 64, KLen: 5, Off: 192, Seq: 5, Value: []byte{}},
	{Status: StNotFound},
}

// TestGetGrantsInlineRoundTrip: the inline layout carries each flagged
// grant's value after the array, an empty one included, and leaves a
// bare grant's Value nil. The grant-only layout of the same grants
// carries no value bytes.
func TestGetGrantsInlineRoundTrip(t *testing.T) {
	blob := AppendGetGrants(nil, inlineGrants, true)
	if len(blob) != GetGrantsSize(inlineGrants, true) || len(blob) != 4+len(inlineGrants)*(getGrantSize+getGrantVLen)+len("value-one") {
		t.Fatalf("inline payload is %d bytes", len(blob))
	}
	got, err := DecodeGetGrantsInto(blob, nil, true)
	if err != nil || len(got) != len(inlineGrants) {
		t.Fatalf("decode: %d grants, %v", len(got), err)
	}
	for i := range inlineGrants {
		if !sameGrant(got[i], inlineGrants[i]) {
			t.Errorf("grant %d: got %+v, want %+v", i, got[i], inlineGrants[i])
		}
	}
	if bare := AppendGetGrants(nil, inlineGrants, false); len(bare) != 4+len(inlineGrants)*getGrantSize {
		t.Errorf("grant-only payload is %d bytes, want no values", len(bare))
	}
}

// TestGetGrantsInlineMalformed: an inline payload cut anywhere, a value
// length past the payload, and bytes after the last value are ErrShort —
// never a value read from the wrong bytes.
func TestGetGrantsInlineMalformed(t *testing.T) {
	blob := AppendGetGrants(nil, inlineGrants, true)
	for cut := 0; cut < len(blob); cut++ {
		if _, err := DecodeGetGrantsInto(blob[:cut], nil, true); !errors.Is(err, ErrShort) {
			t.Fatalf("truncated at %d: err = %v, want ErrShort", cut, err)
		}
	}
	if _, err := DecodeGetGrantsInto(append(append([]byte(nil), blob...), 0), nil, true); !errors.Is(err, ErrShort) {
		t.Errorf("a byte past the last value: err = %v, want ErrShort", err)
	}
	long := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint32(long[4+getGrantSize:], uint32(len("value-one")+1))
	if _, err := DecodeGetGrantsInto(long, nil, true); !errors.Is(err, ErrShort) {
		t.Errorf("a value length past the payload: err = %v, want ErrShort", err)
	}
}

func TestGetGrantsMisalignedCount(t *testing.T) {
	// A response whose count field claims more grants than the payload
	// carries must fail cleanly: an index-misaligned error array would
	// otherwise map results onto the wrong keys.
	blob := AppendGetGrants(nil, []GetGrant{{Status: StOK}, {Status: StNotFound}}, false)
	binary.LittleEndian.PutUint32(blob, 3)
	if _, err := DecodeGetGrantsInto(blob, nil, false); !errors.Is(err, ErrShort) {
		t.Fatalf("inflated count: err = %v, want ErrShort", err)
	}
	// A smaller count than encoded is accepted but must decode exactly
	// count grants — trailing bytes are the caller's concern.
	binary.LittleEndian.PutUint32(blob, 1)
	gs, err := DecodeGetGrantsInto(blob, nil, false)
	if err != nil {
		t.Fatalf("deflated count: %v", err)
	}
	if len(gs) != 1 || gs[0].Status != StOK {
		t.Fatalf("deflated count decoded %+v", gs)
	}
}

func TestGetOpsMisalignedCount(t *testing.T) {
	blob := AppendGetOps(nil, []GetOp{{Slot: 1, Key: []byte("a")}, {Slot: 2, Key: []byte("b")}})
	binary.LittleEndian.PutUint32(blob, 5)
	if _, err := DecodeGetOpsInto(blob, nil); !errors.Is(err, ErrShort) {
		t.Fatalf("inflated count: err = %v, want ErrShort", err)
	}
}

func TestGetBatchTypeValuesStable(t *testing.T) {
	// Appended-only wire values: TGetBatch/TGetResults must sit after the
	// PR-4 batch types for cross-version compatibility.
	if TPutBatch != 22 || TPutBatchResp != 23 || TGetBatch != 24 || TGetResults != 25 {
		t.Fatalf("wire type values shifted: TPutBatch=%d TPutBatchResp=%d TGetBatch=%d TGetResults=%d",
			TPutBatch, TPutBatchResp, TGetBatch, TGetResults)
	}
}

// FuzzWire drives every batch payload codec with arbitrary bytes: none may
// panic or over-allocate, and anything accepted must survive a re-encode.
func FuzzWire(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendGetOps(nil, []GetOp{{Slot: 1, Key: []byte("k")}, {Slot: NoSlot, Key: []byte("q")}}))
	f.Add(AppendGetGrants(nil, []GetGrant{{Status: StOK, Flags: GrantDurable, RKey: 2, Slot: 3, Len: 4, KLen: 1, Off: 5, Seq: 6}}, false))
	f.Add(AppendGetGrants(nil, inlineGrants, true))
	f.Add(AppendGetGrants(nil, inlineGrants[1:2], true)) // a bare grant only
	f.Add(AppendPutOps(nil, []PutOp{{Crc: 9, VLen: 48, Key: []byte("p")}}, false))
	f.Add(AppendPutOps(nil, []PutOp{{Crc: 9, Key: []byte("p"), Value: []byte("inline")}, {Key: []byte("q")}}, true))
	f.Add(AppendPutGrants(nil, []PutGrant{{Status: StOK, RKey: 1, Off: 2, Len: 3}}))
	f.Add(AppendTxnOps(nil, []TxnOp{{Crc: 5, Key: []byte("t"), Value: []byte("tv")}, {Key: []byte("u")}}))
	f.Add(AppendTxnResults(nil, []TxnResult{{Status: StOK, Seq: 8, Value: []byte("r")}, {Status: StNotFound}}))
	f.Add(AppendTxnOps(nil, nil)) // a zero count, which every payload decoder accepts
	f.Fuzz(func(t *testing.T, data []byte) {
		if ops, err := DecodeGetOpsInto(data, nil); err == nil {
			again, err := DecodeGetOpsInto(AppendGetOps(nil, ops), nil)
			if err != nil || len(again) != len(ops) {
				t.Fatalf("get ops re-decode: %v (%d vs %d)", err, len(again), len(ops))
			}
			for i := range ops {
				if again[i].Slot != ops[i].Slot || !bytes.Equal(again[i].Key, ops[i].Key) {
					t.Fatalf("get op %d round trip mismatch", i)
				}
			}
		}
		for _, inline := range []bool{false, true} {
			gs, err := DecodeGetGrantsInto(data, nil, inline)
			if err != nil {
				continue
			}
			again, err := DecodeGetGrantsInto(AppendGetGrants(nil, gs, inline), nil, inline)
			if err != nil || len(again) != len(gs) {
				t.Fatalf("get grants (inline %v) re-decode: %v", inline, err)
			}
			for i := range gs {
				if !sameGrant(again[i], gs[i]) {
					t.Fatalf("get grant %d (inline %v) round trip mismatch", i, inline)
				}
			}
		}
		for _, inline := range []bool{false, true} {
			ops, err := DecodePutOpsInto(data, nil, inline)
			if err != nil {
				continue
			}
			again, err := DecodePutOpsInto(AppendPutOps(nil, ops, inline), nil, inline)
			if err != nil || len(again) != len(ops) {
				t.Fatalf("put ops (inline %v) re-decode: %v (%d vs %d)", inline, err, len(again), len(ops))
			}
			for i := range ops {
				if again[i].Crc != ops[i].Crc || again[i].VLen != ops[i].VLen ||
					!bytes.Equal(again[i].Key, ops[i].Key) || !bytes.Equal(again[i].Value, ops[i].Value) {
					t.Fatalf("put op %d (inline %v) round trip mismatch", i, inline)
				}
			}
		}
		if gs, err := DecodePutGrantsInto(data, nil); err == nil {
			if _, err := DecodePutGrantsInto(AppendPutGrants(nil, gs), nil); err != nil {
				t.Fatalf("put grants re-decode: %v", err)
			}
		}
		if ops, err := DecodeTxnOpsInto(data, nil); err == nil {
			again, err := DecodeTxnOpsInto(AppendTxnOps(nil, ops), nil)
			if err != nil || len(again) != len(ops) {
				t.Fatalf("txn ops re-decode: %v (%d vs %d)", err, len(again), len(ops))
			}
			for i := range ops {
				if again[i].Crc != ops[i].Crc || !bytes.Equal(again[i].Key, ops[i].Key) || !bytes.Equal(again[i].Value, ops[i].Value) {
					t.Fatalf("txn op %d round trip mismatch", i)
				}
			}
		}
		if rs, err := DecodeTxnResultsInto(data, nil); err == nil {
			again, err := DecodeTxnResultsInto(AppendTxnResults(nil, rs), nil)
			if err != nil || len(again) != len(rs) {
				t.Fatalf("txn results re-decode: %v", err)
			}
			for i := range rs {
				if again[i].Status != rs[i].Status || again[i].Seq != rs[i].Seq || !bytes.Equal(again[i].Value, rs[i].Value) {
					t.Fatalf("txn result %d round trip mismatch", i)
				}
			}
		}
	})
}
