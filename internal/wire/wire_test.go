package wire

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(typ, status, note uint8, token, rkey, crcv uint32, off, length uint64, klen32 uint32, key, value []byte) bool {
		m := Msg{
			Type: typ, Status: status, Note: note, Token: token, RKey: rkey, Crc: crcv,
			Off: off, Len: length, KLen: klen32, Key: key, Value: value,
		}
		got, err := Decode(m.Encode())
		if err != nil {
			return false
		}
		// NoteTraced is owned by the codec: Encode sets it iff a trace
		// trailer is present, so a stray bit in the input never survives.
		return got.Type == m.Type && got.Status == m.Status && got.Note == m.Note&^NoteTraced && got.Token == m.Token &&
			got.RKey == m.RKey && got.Crc == m.Crc && got.Off == m.Off &&
			got.Len == m.Len && got.KLen == m.KLen &&
			bytes.Equal(got.Key, m.Key) && bytes.Equal(got.Value, m.Value)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeShort(t *testing.T) {
	if _, err := Decode([]byte{1, 2, 3}); !errors.Is(err, ErrShort) {
		t.Fatalf("err = %v", err)
	}
}

func TestDecodeTruncatedPayload(t *testing.T) {
	m := Msg{Type: TPut, Key: []byte("key"), Value: []byte("value")}
	b := m.Encode()
	if _, err := Decode(b[:len(b)-2]); !errors.Is(err, ErrShort) {
		t.Fatalf("err = %v", err)
	}
}

func TestStatsAndMetricsRoundTrip(t *testing.T) {
	// The stats/metrics RPCs carry JSON blobs in Value; the pairs must
	// survive encoding and keep their appended-only type values stable.
	cases := []struct {
		req, resp uint8
		blob      string
	}{
		{TStats, TStatsResp, `{"Puts":12,"Gets":34}`},
		{TShardStats, TShardStatsResp, `[{"Puts":1},{"Puts":2}]`},
		{TMetrics, TMetricsResp, `{"ops":["put","get"],"shards":[{}]}`},
	}
	for _, c := range cases {
		req := Msg{Type: c.req}
		got, err := Decode(req.Encode())
		if err != nil {
			t.Fatalf("type %d: %v", c.req, err)
		}
		if got.Type != c.req || got.Value != nil {
			t.Fatalf("type %d: request round trip mangled: %+v", c.req, got)
		}
		resp := Msg{Type: c.resp, Status: StOK, Value: []byte(c.blob)}
		got, err = Decode(resp.Encode())
		if err != nil {
			t.Fatalf("type %d: %v", c.resp, err)
		}
		if got.Type != c.resp || got.Status != StOK || string(got.Value) != c.blob {
			t.Fatalf("type %d: response round trip mangled: %+v", c.resp, got)
		}
	}
}

func TestAppendedTypeValuesStable(t *testing.T) {
	// The wire protocol evolves by appending types; these values are
	// load-bearing for cross-version compatibility.
	if TShardStats != 18 || TShardStatsResp != 19 || TMetrics != 20 || TMetricsResp != 21 {
		t.Fatalf("wire type values shifted: TShardStats=%d TShardStatsResp=%d TMetrics=%d TMetricsResp=%d",
			TShardStats, TShardStatsResp, TMetrics, TMetricsResp)
	}
	if TPutBatch != 22 || TGetResults != 25 {
		t.Fatalf("wire type values shifted: TPutBatch=%d TGetResults=%d", TPutBatch, TGetResults)
	}
	if TClusterMap != 26 || TClusterMapSet != 28 || TJoin != 30 || TMigrate != 32 || TMigIngestResp != 35 {
		t.Fatalf("wire type values shifted: TClusterMap=%d TClusterMapSet=%d TJoin=%d TMigrate=%d TMigIngestResp=%d",
			TClusterMap, TClusterMapSet, TJoin, TMigrate, TMigIngestResp)
	}
	if StWrongEpoch != 4 {
		t.Fatalf("StWrongEpoch shifted: %d", StWrongEpoch)
	}
}

func TestEpochRidesInTokenWithoutLayoutChange(t *testing.T) {
	// The cluster epoch travels in the existing Token field: the header
	// layout (and so every encoded length, which the simulator's virtual
	// clock depends on) must not change between an unclustered and a
	// clustered request.
	plain := Msg{Type: TGet, Key: []byte("k")}
	routed := Msg{Type: TGet, Key: []byte("k"), Token: 7}
	if len(plain.Encode()) != len(routed.Encode()) {
		t.Fatal("carrying an epoch changed the encoded length")
	}
	got, err := Decode(routed.Encode())
	if err != nil || got.Token != 7 {
		t.Fatalf("epoch lost in transit: %+v err=%v", got, err)
	}
	rej := Msg{Type: TGetResp, Status: StWrongEpoch, Token: 9}
	got, err = Decode(rej.Encode())
	if err != nil || got.Status != StWrongEpoch || got.Token != 9 {
		t.Fatalf("wrong-epoch response mangled: %+v err=%v", got, err)
	}
}

func TestEmptyPayloadsDecodeNil(t *testing.T) {
	m := Msg{Type: TGetResp, Status: StOK}
	got, err := Decode(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Key != nil || got.Value != nil {
		t.Fatal("empty payloads should decode as nil")
	}
}

func TestAppendEncodeMatchesEncode(t *testing.T) {
	msgs := []Msg{
		{Type: TPut, Token: 7, Crc: 0xdead, Len: 64, Key: []byte("k1"), Value: []byte("payload")},
		{Type: TGetResp, Status: StOK, RKey: 9, Off: 1 << 20, Len: 96, KLen: 2},
		{Type: TPut, Trace: 0x1234567890, Key: []byte("traced")},
		{Type: TDelResp},
	}
	scratch := make([]byte, 0, 256)
	for _, m := range msgs {
		want := m.Encode()
		if got := m.EncodedSize(); got != len(want) {
			t.Fatalf("EncodedSize=%d, want %d", got, len(want))
		}
		scratch = scratch[:0]
		scratch = m.AppendEncode(scratch)
		if string(scratch) != string(want) {
			t.Fatalf("AppendEncode differs from Encode for type %d", m.Type)
		}
		// Appending after existing bytes must leave the prefix intact.
		pre := append([]byte{}, "prefix"...)
		out := m.AppendEncode(pre)
		if string(out[:6]) != "prefix" || string(out[6:]) != string(want) {
			t.Fatalf("AppendEncode with prefix corrupted the buffer")
		}
	}
}

func TestDecodeIntoReusesBacking(t *testing.T) {
	ops := []PutOp{{Crc: 1, VLen: 10, Key: []byte("a")}, {Crc: 2, VLen: 20, Key: []byte("bb")}}
	payload := AppendPutOps(nil, ops, false)
	scratch := make([]PutOp, 0, 8)
	out, err := DecodePutOpsInto(payload, scratch, false)
	if err != nil || len(out) != 2 || &out[0] != &scratch[:1][0] {
		t.Fatalf("DecodePutOpsInto must fill the provided backing: %v %d", err, len(out))
	}
	// Second decode reuses the same backing from [:0].
	out2, err := DecodePutOpsInto(payload, out, false)
	if err != nil || &out2[0] != &out[:1][0] {
		t.Fatalf("repeat DecodePutOpsInto must not reallocate")
	}
	grants := []PutGrant{{Status: StOK, Off: 7}}
	gp := AppendPutGrants(nil, grants)
	gscratch := make([]PutGrant, 0, 4)
	gout, err := DecodePutGrantsInto(gp, gscratch)
	if err != nil || len(gout) != 1 || gout[0].Off != 7 {
		t.Fatalf("DecodePutGrantsInto: %v %+v", err, gout)
	}
	ggp := AppendGetGrants(nil, []GetGrant{{Status: StOK, Seq: 9}}, false)
	ggout, err := DecodeGetGrantsInto(ggp, make([]GetGrant, 0, 4), false)
	if err != nil || len(ggout) != 1 || ggout[0].Seq != 9 {
		t.Fatalf("DecodeGetGrantsInto: %v %+v", err, ggout)
	}
	gosOut, err := DecodeGetOpsInto(AppendGetOps(nil, []GetOp{{Slot: 3, Key: []byte("k")}}), make([]GetOp, 0, 4))
	if err != nil || len(gosOut) != 1 || gosOut[0].Slot != 3 {
		t.Fatalf("DecodeGetOpsInto: %v %+v", err, gosOut)
	}
}
