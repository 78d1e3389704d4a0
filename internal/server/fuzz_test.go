package server

import (
	"bytes"
	"testing"

	"efactory/internal/store"
	"efactory/internal/wire"
)

// FuzzHandle is where network bytes become engine state: any frame
// wire.Decode accepts goes through Core.Handle on a small two-shard store
// holding a few durable keys. Whatever the frame says, the Core must not
// panic, must answer with the request's response type, must grant nothing
// unless the status is StOK, and must grant only locations inside the
// owning shard's two pool regions — the client's one-sided follow-up goes
// wherever the grant points.
func FuzzHandle(f *testing.F) {
	frame := func(m wire.Msg) []byte { return m.Encode() }
	k := [][]byte{[]byte("fuzz-a"), []byte("fuzz-b"), []byte("fuzz-c")}
	// One valid frame per request type.
	f.Add(frame(wire.Msg{Type: wire.TPut, Key: k[0], Len: 64, Crc: 7}))
	f.Add(frame(wire.Msg{Type: wire.TPutBatch, Value: wire.EncodePutOps([]wire.PutOp{{Crc: 1, VLen: 32, Key: k[0]}, {Crc: 2, VLen: 48, Key: []byte("new")}})}))
	f.Add(frame(wire.Msg{Type: wire.TGet, Key: k[1]}))
	f.Add(frame(wire.Msg{Type: wire.TGetBatch, Value: getOps(k, noSlot)}))
	f.Add(frame(wire.Msg{Type: wire.TDel, Key: k[2]}))
	f.Add(frame(wire.Msg{Type: wire.TTxnCommit, Value: txnOps(k[:2], 24)}))
	f.Add(frame(wire.Msg{Type: wire.TTxnRead, Value: getOps(k, noSlot)}))
	// Truncated op lists, an over-cap count, out-of-range slot hints, and
	// lengths no log can hold.
	pb := wire.EncodePutOps([]wire.PutOp{{VLen: 8, Key: k[0]}, {VLen: 8, Key: k[1]}})
	f.Add(frame(wire.Msg{Type: wire.TPutBatch, Value: pb[:len(pb)-2]}))
	tb := txnOps(k, 16)
	f.Add(frame(wire.Msg{Type: wire.TTxnCommit, Value: tb[:len(tb)-5]}))
	f.Add(frame(wire.Msg{Type: wire.TGetBatch, Value: []byte{0xff, 0xff, 0xff, 0x7f}}))
	f.Add(frame(wire.Msg{Type: wire.TGetBatch, Value: getOps(keys(0, testMaxOps+1), noSlot)}))
	f.Add(frame(wire.Msg{Type: wire.TTxnRead, Value: getOps(keys(0, testMaxOps+1), noSlot)}))
	f.Add(frame(wire.Msg{Type: wire.TGetBatch, Value: getOps(k, func(i int) uint32 { return []uint32{1 << 31, 64, 0}[i] })}))
	f.Add(frame(wire.Msg{Type: wire.TPut, Key: k[0], Len: 1 << 63}))
	f.Add(frame(wire.Msg{Type: wire.TPut, Key: k[0], Len: 1<<24 - 1}))
	f.Add(frame(wire.Msg{Type: wire.TPut, Len: 8}))
	f.Add(frame(wire.Msg{Type: wire.TPutBatch, Value: wire.EncodePutOps([]wire.PutOp{{VLen: 1<<32 - 1, Key: k[0]}})}))
	f.Add(frame(wire.Msg{Type: wire.TTxnCommit, Value: wire.EncodeTxnOps(nil)}))
	f.Add(frame(wire.Msg{Type: wire.THello}))

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := wire.Decode(data)
		if err != nil {
			return
		}
		r := newReplica(t, 2, store.Deps{})
		for _, key := range k {
			r.seed(t, key, bytes.Repeat(key, 10))
		}
		pools := [][2]uint32{{11, 12}, {21, 22}}
		resp, ok := New(r.tm, pools, testMaxOps, nil).Handle(nil, req, nil)
		if !ok {
			return
		}
		if resp.Type != req.Type+1 {
			t.Fatalf("request type %d answered with type %d", req.Type, resp.Type)
		}
		// inPool checks one granted location against the pools of key's shard.
		inPool := func(key []byte, rkey uint32, off, n uint64) {
			p := pools[r.st.ShardFor(key)]
			if (rkey != p[0] && rkey != p[1]) || n == 0 || off > testPool || n > testPool-off {
				t.Fatalf("grant (rkey %d, off %d, len %d) for %q outside its shard's pools %v", rkey, off, n, key, p)
			}
		}
		if resp.Status != wire.StOK {
			granted := resp.RKey != 0 || resp.Off != 0 || resp.Len != 0 || resp.KLen != 0
			if req.Type != wire.TTxnCommit { // a failed commit still carries its per-op statuses
				granted = granted || resp.Value != nil
			}
			if granted {
				t.Fatalf("status %d reply grants something: %+v", resp.Status, resp)
			}
			return
		}
		switch req.Type {
		case wire.TPut, wire.TGet:
			inPool(req.Key, resp.RKey, resp.Off, resp.Len)
		case wire.TPutBatch:
			ops, _ := wire.DecodePutOps(req.Value)
			gs, err := wire.DecodePutGrants(resp.Value)
			if err != nil || len(gs) != len(ops) {
				t.Fatalf("%d ops answered with %d grants (%v)", len(ops), len(gs), err)
			}
			for i, g := range gs {
				if g.Status == wire.StOK {
					inPool(ops[i].Key, g.RKey, g.Off, uint64(g.Len))
				} else if g != (wire.PutGrant{Status: g.Status}) {
					t.Fatalf("status %d put grant carries a location: %+v", g.Status, g)
				}
			}
		case wire.TGetBatch:
			ops, _ := wire.DecodeGetOps(req.Value)
			gs, err := wire.DecodeGetGrants(resp.Value)
			if err != nil || len(gs) != len(ops) {
				t.Fatalf("%d ops answered with %d grants (%v)", len(ops), len(gs), err)
			}
			for i, g := range gs {
				if g.Status == wire.StOK {
					inPool(ops[i].Key, g.RKey, g.Off, uint64(g.Len))
				} else if g != (wire.GetGrant{Status: g.Status}) {
					t.Fatalf("status %d get grant carries a location: %+v", g.Status, g)
				}
			}
		}
	})
}
