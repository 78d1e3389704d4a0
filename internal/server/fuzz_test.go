package server

import (
	"bytes"
	"testing"

	"efactory/internal/store"
	"efactory/internal/wire"
)

// FuzzHandle is where network bytes become engine state: any frame
// wire.Decode accepts goes through Core.Handle on a small two-shard store
// holding a few durable keys, behind a fuzzBudget-byte inline budget.
// Whatever the frame says, the Core must not panic, must answer with the
// request's response type, must grant nothing unless the status is StOK,
// and must grant only locations inside the owning shard's two pool
// regions — the client's one-sided follow-up goes wherever the grant
// points. A value a read reply carries must be its key's, and the values
// must fit the budget the request asked for and the Core's.
func FuzzHandle(f *testing.F) {
	const fuzzBudget = 96
	frame := func(m wire.Msg) []byte { return m.Encode() }
	k := [][]byte{[]byte("fuzz-a"), []byte("fuzz-b"), []byte("fuzz-c")}
	// One valid frame per request type.
	f.Add(frame(wire.Msg{Type: wire.TPut, Key: k[0], Len: 64, Crc: 7}))
	f.Add(frame(wire.Msg{Type: wire.TPutBatch, Value: wire.AppendPutOps(nil, []wire.PutOp{{Crc: 1, VLen: 32, Key: k[0]}, {Crc: 2, VLen: 48, Key: []byte("new")}}, false)}))
	f.Add(frame(wire.Msg{Type: wire.TGet, Key: k[1]}))
	f.Add(frame(wire.Msg{Type: wire.TGetBatch, Value: getOps(k, noSlot)}))
	f.Add(frame(wire.Msg{Type: wire.TDel, Key: k[2]}))
	f.Add(frame(wire.Msg{Type: wire.TTxnCommit, Value: txnOps(k[:2], 24)}))
	f.Add(frame(wire.Msg{Type: wire.TTxnRead, Value: getOps(k, noSlot)}))
	// Truncated op lists, an over-cap count, out-of-range slot hints, and
	// lengths no log can hold.
	pb := wire.AppendPutOps(nil, []wire.PutOp{{VLen: 8, Key: k[0]}, {VLen: 8, Key: k[1]}}, false)
	f.Add(frame(wire.Msg{Type: wire.TPutBatch, Value: pb[:len(pb)-2]}))
	tb := txnOps(k, 16)
	f.Add(frame(wire.Msg{Type: wire.TTxnCommit, Value: tb[:len(tb)-5]}))
	f.Add(frame(wire.Msg{Type: wire.TGetBatch, Value: []byte{0xff, 0xff, 0xff, 0x7f}}))
	f.Add(frame(wire.Msg{Type: wire.TGetBatch, Value: getOps(keys(0, DefaultMaxOps+1), noSlot)}))
	f.Add(frame(wire.Msg{Type: wire.TTxnRead, Value: getOps(keys(0, DefaultMaxOps+1), noSlot)}))
	f.Add(frame(wire.Msg{Type: wire.TGetBatch, Value: getOps(k, func(i int) uint32 { return []uint32{1 << 31, 64, 0}[i] })}))
	f.Add(frame(wire.Msg{Type: wire.TPut, Key: k[0], Len: 1 << 63}))
	f.Add(frame(wire.Msg{Type: wire.TPut, Key: k[0], Len: 1<<24 - 1}))
	f.Add(frame(wire.Msg{Type: wire.TPut, Len: 8}))
	f.Add(frame(wire.Msg{Type: wire.TPutBatch, Value: wire.AppendPutOps(nil, []wire.PutOp{{VLen: 1<<32 - 1, Key: k[0]}}, false)}))
	f.Add(frame(wire.Msg{Type: wire.TTxnCommit, Value: wire.AppendTxnOps(nil, nil)}))
	f.Add(frame(wire.Msg{Type: wire.THello}))
	// Inline values: well formed, a length that is not the declared one, a
	// batch cut short, a batch whose values do not sum to its Len.
	f.Add(frame(wire.Msg{Type: wire.TPut, Key: k[0], Len: 5, Crc: 7, Value: []byte("value")}))
	f.Add(frame(wire.Msg{Type: wire.TPut, Key: k[0], Len: 9, Value: []byte("value")}))
	ib := wire.AppendPutOps(nil, []wire.PutOp{{Crc: 1, Key: k[0], Value: []byte("inline-a")}, {Crc: 2, Key: []byte("new"), Value: []byte("b")}}, true)
	f.Add(frame(wire.Msg{Type: wire.TPutBatch, Len: 9, Value: ib}))
	f.Add(frame(wire.Msg{Type: wire.TPutBatch, Len: 9, Value: ib[:len(ib)-1]}))
	f.Add(frame(wire.Msg{Type: wire.TPutBatch, Len: 10, Value: ib}))
	// Reads asking for values: within both budgets, over the Core's, and
	// a batch whose values overrun the ask part way.
	f.Add(frame(wire.Msg{Type: wire.TGet, Key: k[1], Len: 1 << 10}))
	f.Add(frame(wire.Msg{Type: wire.TGet, Key: k[1], Len: 1}))
	f.Add(frame(wire.Msg{Type: wire.TGetBatch, Len: 1 << 10, Value: getOps(k, noSlot)}))
	f.Add(frame(wire.Msg{Type: wire.TGetBatch, Len: 70, Value: getOps(k, noSlot)}))

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
		resp, ok := New(r.st, pools, nil, fuzzBudget).Handle(nil, req, nil)
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
			if resp.RKey != 0 || resp.Off != 0 || resp.Len != 0 || resp.KLen != 0 || resp.Value != nil {
				t.Fatalf("status %d reply grants something: %+v", resp.Status, resp)
			}
			return
		}
		// carried checks a value a read reply carries for key.
		budget := min(req.Len, fuzzBudget)
		carried := func(key, val []byte) {
			if !bytes.Equal(val, bytes.Repeat(key, 10)) {
				t.Fatalf("value %q carried for %q", val, key)
			}
			if uint64(len(val)) > budget {
				t.Fatalf("%d-byte value carried under a %d-byte budget", len(val), budget)
			}
			budget -= uint64(len(val))
		}
		switch req.Type {
		case wire.TPut:
			inPool(req.Key, resp.RKey, resp.Off, resp.Len)
		case wire.TGet:
			inPool(req.Key, resp.RKey, resp.Off, resp.Len)
			if resp.Note&wire.NoteValue != 0 {
				carried(req.Key, resp.Value)
			} else if resp.Value != nil {
				t.Fatalf("bare TGet grant carries %d bytes", len(resp.Value))
			}
		case wire.TPutBatch:
			ops, _ := wire.DecodePutOpsInto(req.Value, nil, req.Len != 0)
			gs, err := wire.DecodePutGrantsInto(resp.Value, nil)
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
			ops, _ := wire.DecodeGetOpsInto(req.Value, nil)
			if resp.Len != min(req.Len, fuzzBudget) {
				t.Fatalf("ask of %d bytes answered with a budget of %d", req.Len, resp.Len)
			}
			gs, err := wire.DecodeGetGrantsInto(resp.Value, nil, resp.Len != 0)
			if err != nil || len(gs) != len(ops) {
				t.Fatalf("%d ops answered with %d grants (%v)", len(ops), len(gs), err)
			}
			for i, g := range gs {
				switch {
				case g.Status == wire.StOK:
					inPool(ops[i].Key, g.RKey, g.Off, uint64(g.Len))
					if g.Value != nil {
						carried(ops[i].Key, g.Value)
					}
				case g.Flags != 0 || g.RKey != 0 || g.Slot != 0 || g.Len != 0 || g.KLen != 0 || g.Off != 0 || g.Seq != 0 || g.Value != nil:
					t.Fatalf("status %d get grant carries a location: %+v", g.Status, g)
				}
			}
		}
	})
}
