package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

func TestTxnOpsRoundTrip(t *testing.T) {
	ops := []TxnOp{
		{Crc: 0xdead, Key: []byte("a"), Value: []byte("value-a")},
		{Crc: 0, Key: []byte("longer-key"), Value: nil},
		{Crc: 7, Key: []byte("b"), Value: bytes.Repeat([]byte{0xab}, 900)},
	}
	got, err := DecodeTxnOpsInto(AppendTxnOps(nil, ops), nil)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(ops) {
		t.Fatalf("got %d ops, want %d", len(got), len(ops))
	}
	for i := range ops {
		if got[i].Crc != ops[i].Crc || !bytes.Equal(got[i].Key, ops[i].Key) || !bytes.Equal(got[i].Value, ops[i].Value) {
			t.Fatalf("op %d round trip mismatch: %+v vs %+v", i, got[i], ops[i])
		}
	}
}

func TestTxnOpsTruncated(t *testing.T) {
	blob := AppendTxnOps(nil, []TxnOp{{Crc: 1, Key: []byte("key"), Value: []byte("value")}})
	for cut := 0; cut < len(blob); cut++ {
		if _, err := DecodeTxnOpsInto(blob[:cut], nil); !errors.Is(err, ErrShort) {
			t.Fatalf("cut at %d: err = %v, want ErrShort", cut, err)
		}
	}
}

func TestTxnOpsMisalignedCount(t *testing.T) {
	blob := AppendTxnOps(nil, []TxnOp{{Key: []byte("a"), Value: []byte("v")}})
	binary.LittleEndian.PutUint32(blob, 9)
	if _, err := DecodeTxnOpsInto(blob, nil); !errors.Is(err, ErrShort) {
		t.Fatalf("inflated count: err = %v, want ErrShort", err)
	}
}

func TestTxnResultsRoundTrip(t *testing.T) {
	rs := []TxnResult{
		{Status: StOK, Seq: 42, Value: []byte("hello")},
		{Status: StNotFound},
		{Status: StOK, Seq: 1 << 40, Value: bytes.Repeat([]byte{7}, 2048)},
	}
	got, err := DecodeTxnResultsInto(AppendTxnResults(nil, rs), nil)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(rs) {
		t.Fatalf("got %d results, want %d", len(got), len(rs))
	}
	for i := range rs {
		if got[i].Status != rs[i].Status || got[i].Seq != rs[i].Seq || !bytes.Equal(got[i].Value, rs[i].Value) {
			t.Fatalf("result %d round trip mismatch", i)
		}
	}
}

func TestTxnResultsTruncated(t *testing.T) {
	blob := AppendTxnResults(nil, []TxnResult{{Status: StOK, Seq: 3, Value: []byte("val")}})
	for cut := 0; cut < len(blob); cut++ {
		if _, err := DecodeTxnResultsInto(blob[:cut], nil); !errors.Is(err, ErrShort) {
			t.Fatalf("cut at %d: err = %v, want ErrShort", cut, err)
		}
	}
}

func TestTxnTypeValuesStable(t *testing.T) {
	// Appended-only wire values: the transactional types sit after the
	// replication types for cross-version compatibility.
	if TTxnCommit != 44 || TTxnCommitResp != 45 || TTxnRead != 46 || TTxnReadResp != 47 {
		t.Fatalf("wire type values shifted: TTxnCommit=%d TTxnCommitResp=%d TTxnRead=%d TTxnReadResp=%d",
			TTxnCommit, TTxnCommitResp, TTxnRead, TTxnReadResp)
	}
}
