package tcpkv

import (
	"testing"

	"efactory/internal/crc"
	"efactory/internal/nvm"
	"efactory/internal/wire"
)

// TestMalformedInlinePutRefused: an inline value whose length is not the
// one declared, and an inline batch cut short or whose values do not sum
// to its header's Len, are answered StError before anything is
// allocated.
func TestMalformedInlinePutRefused(t *testing.T) {
	cfg := smallConfig()
	srv, addr := startServer(t, nvm.New(cfg.DeviceSize()), cfg)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	keys := [][]byte{[]byte("inline-a"), []byte("inline-b")}
	vals := [][]byte{[]byte("value-a"), []byte("value-bb")}
	batch := wire.AppendPutOps(nil, putOps(keys, vals), true)
	total := uint64(len(vals[0]) + len(vals[1]))
	before := srv.Stats().Puts
	for _, tc := range []struct {
		name string
		m    wire.Msg
	}{
		{"TPut value shorter than Len", wire.Msg{Type: wire.TPut, Len: 8, Key: keys[0], Value: []byte("short")}},
		{"TPut value longer than Len", wire.Msg{Type: wire.TPut, Len: 2, Key: keys[0], Value: []byte("long")}},
		{"truncated inline TPutBatch", wire.Msg{Type: wire.TPutBatch, Len: total, Value: batch[:len(batch)-3]}},
		{"inline TPutBatch over its Len", wire.Msg{Type: wire.TPutBatch, Len: total - 1, Value: batch}},
	} {
		resp, err := cl.rpc(tc.m)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if resp.Status != wire.StError {
			t.Errorf("%s: status %d, want StError", tc.name, resp.Status)
		}
	}
	if after := srv.Stats().Puts; after != before {
		t.Errorf("refused requests allocated: Puts %d -> %d", before, after)
	}
}

// putOps builds the wire ops of a PutBatch of keys/vals.
func putOps(keys, vals [][]byte) []wire.PutOp {
	ops := make([]wire.PutOp, len(keys))
	for i := range keys {
		ops[i] = wire.PutOp{Crc: crc.Checksum(vals[i]), VLen: len(vals[i]), Key: keys[i], Value: vals[i]}
	}
	return ops
}
