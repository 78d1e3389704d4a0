package tcpkv

import (
	"bytes"
	"testing"

	"efactory/internal/client"
	"efactory/internal/crc"
	"efactory/internal/kv"
	"efactory/internal/nvm"
	"efactory/internal/wire"
)

// TestAllocThenWriteStillServed: a client that does not inline — one
// that predates the budget — still PUTs the paper's way against a server
// that announces one. An allocation-only TPut or TPutBatch is granted,
// the value follows as a one-sided WRITE to the grant, and it reads back.
func TestAllocThenWriteStillServed(t *testing.T) {
	cfg := smallConfig()
	_, addr := startServer(t, nvm.New(cfg.DeviceSize()), cfg)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	keys := [][]byte{[]byte("old-put"), []byte("old-batch-a"), []byte("old-batch-b")}
	vals := [][]byte{bytes.Repeat([]byte{1}, 300), bytes.Repeat([]byte{2}, 40), bytes.Repeat([]byte{3}, 700)}

	resp, err := cl.rpc(wire.Msg{Type: wire.TPut, Crc: crc.Checksum(vals[0]), Len: uint64(len(vals[0])), Key: keys[0]})
	if err != nil || resp.Status != wire.StOK {
		t.Fatalf("allocation-only TPut: status %d, %v", resp.Status, err)
	}
	grants := []wire.PutGrant{{Status: resp.Status, RKey: resp.RKey, Off: resp.Off, Len: uint32(resp.Len)}}
	resp, err = cl.rpc(wire.Msg{Type: wire.TPutBatch, Value: wire.AppendPutOps(nil, putOps(keys[1:], vals[1:]), false)})
	if err != nil || resp.Status != wire.StOK {
		t.Fatalf("allocation-only TPutBatch: status %d, %v", resp.Status, err)
	}
	batch, err := wire.DecodePutGrantsInto(resp.Value, nil)
	if grants = append(grants, batch...); err != nil || len(grants) != len(keys) {
		t.Fatalf("%d grants for %d ops: %v", len(grants), len(keys), err)
	}
	reqs := make([]client.Req, len(keys))
	for i, g := range grants {
		if g.Status != wire.StOK {
			t.Fatalf("op %d: status %d", i, g.Status)
		}
		reqs[i] = client.Req{Buf: vals[i], RKey: g.RKey, Off: g.Off + uint64(kv.ValueOffset(len(keys[i])))}
	}
	if err := cl.osBurst(opWrite, reqs); err != nil {
		t.Fatal(err)
	}
	for i, key := range keys {
		if reqs[i].NAK {
			t.Fatalf("WRITE of %q refused", key)
		}
		if got, err := cl.Get(key); err != nil || !bytes.Equal(got, vals[i]) {
			t.Errorf("Get(%q) after alloc-then-WRITE: %d bytes, %v", key, len(got), err)
		}
	}
}

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
