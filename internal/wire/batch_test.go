package wire

import (
	"bytes"
	"errors"
	"testing"
)

func TestPutOpsRoundTrip(t *testing.T) {
	ops := []PutOp{
		{Crc: 0xdeadbeef, VLen: 256, Key: []byte("alpha")},
		{Crc: 1, VLen: 0, Key: []byte("")},
		{Crc: 0xffffffff, VLen: 1 << 20, Key: bytes.Repeat([]byte{'k'}, 300)},
	}
	got, err := DecodePutOpsInto(AppendPutOps(nil, ops, false), nil, false)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(ops) {
		t.Fatalf("decoded %d ops, want %d", len(got), len(ops))
	}
	for i, op := range ops {
		g := got[i]
		if g.Crc != op.Crc || g.VLen != op.VLen || !bytes.Equal(g.Key, op.Key) {
			t.Errorf("op %d: got %+v, want %+v", i, g, op)
		}
	}
}

// TestPutOpsInlineRoundTrip: in the inline layout each op's value rides
// behind its key, and the decoder refuses a payload cut anywhere short.
func TestPutOpsInlineRoundTrip(t *testing.T) {
	ops := []PutOp{
		{Crc: 7, Key: []byte("alpha"), Value: []byte("first value")},
		{Crc: 8, Key: []byte("b")},
		{Crc: 9, Key: bytes.Repeat([]byte{'k'}, 300), Value: bytes.Repeat([]byte{'v'}, 1000)},
	}
	blob := AppendPutOps(nil, ops, true)
	if len(blob) != PutOpsSize(ops, true) {
		t.Fatalf("encoded %d bytes, PutOpsSize says %d", len(blob), PutOpsSize(ops, true))
	}
	got, err := DecodePutOpsInto(blob, nil, true)
	if err != nil || len(got) != len(ops) {
		t.Fatalf("decode: %d ops, %v", len(got), err)
	}
	for i, op := range ops {
		g := got[i]
		if g.Crc != op.Crc || g.VLen != len(op.Value) || !bytes.Equal(g.Key, op.Key) || !bytes.Equal(g.Value, op.Value) {
			t.Errorf("op %d: got %+v, want %+v", i, g, op)
		}
	}
	for cut := 0; cut < len(blob); cut++ {
		if _, err := DecodePutOpsInto(blob[:cut], nil, true); !errors.Is(err, ErrShort) {
			t.Fatalf("truncated at %d: err = %v, want ErrShort", cut, err)
		}
	}
}

func TestPutOpsEmptyBatch(t *testing.T) {
	got, err := DecodePutOpsInto(AppendPutOps(nil, nil, false), nil, false)
	if err != nil {
		t.Fatalf("decode empty: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("decoded %d ops from an empty batch", len(got))
	}
}

func TestPutOpsTruncated(t *testing.T) {
	blob := AppendPutOps(nil, []PutOp{{Crc: 7, VLen: 48, Key: []byte("victim")}}, false)
	for cut := 0; cut < len(blob); cut++ {
		if _, err := DecodePutOpsInto(blob[:cut], nil, false); !errors.Is(err, ErrShort) {
			t.Fatalf("truncated at %d: err = %v, want ErrShort", cut, err)
		}
	}
}

func TestPutGrantsRoundTrip(t *testing.T) {
	gs := []PutGrant{
		{Status: StOK, RKey: 4, Off: 1 << 40, Len: 320},
		{Status: StFull},
		{Status: StOK, RKey: 0xffffffff, Off: 0, Len: 0xffffffff},
	}
	got, err := DecodePutGrantsInto(AppendPutGrants(nil, gs), nil)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(gs) {
		t.Fatalf("decoded %d grants, want %d", len(got), len(gs))
	}
	for i := range gs {
		if got[i] != gs[i] {
			t.Errorf("grant %d: got %+v, want %+v", i, got[i], gs[i])
		}
	}
}

func TestPutGrantsTruncated(t *testing.T) {
	blob := AppendPutGrants(nil, []PutGrant{{Status: StOK, RKey: 1, Off: 2, Len: 3}})
	for cut := 0; cut < len(blob); cut++ {
		if _, err := DecodePutGrantsInto(blob[:cut], nil); !errors.Is(err, ErrShort) {
			t.Fatalf("truncated at %d: err = %v, want ErrShort", cut, err)
		}
	}
}
