package tcpkv

import (
	"fmt"
	"testing"

	"efactory/internal/crc"
	"efactory/internal/kv"
	"efactory/internal/nvm"
	"efactory/internal/store"
	"efactory/internal/wire"
)

// record builds an exported key whose versions carry seqs (oldest first),
// each durable with a matching CRC.
func record(key string, cut uint64, seqs ...uint64) store.ExportKey {
	ek := store.ExportKey{Key: []byte(key), CutSeq: cut}
	for _, seq := range seqs {
		v := []byte(fmt.Sprintf("%s@%d", key, seq))
		ek.Versions = append(ek.Versions, store.ExportVersion{
			Seq: seq, CRC: crc.Checksum(v), Flags: kv.FlagValid | kv.FlagDurable, Value: v,
		})
	}
	return ek
}

func frame(recs ...store.ExportKey) []byte { return store.AppendRecords(nil, recs) }

// ingestCases are the record frames every ingest check runs: the shapes
// an exporter produces, then one of each shape it never does.
func ingestCases() []struct {
	name string
	blob []byte
	want uint8
} {
	oversized := record("huge", 0, 1)
	oversized.Versions[0].Value = make([]byte, kv.MaxObjectSize)
	tomb := store.ExportKey{Key: []byte("gone"), Tombstone: true, CutSeq: 4}
	tombWithVersions := record("gone", 4, 5)
	tombWithVersions.Tombstone = true
	unknownFormat := frame(record("f", 0, 1))
	unknownFormat[0]++
	return []struct {
		name string
		blob []byte
		want uint8
	}{
		{"mirror record", frame(record("m", 0, 7)), wire.StOK},
		{"snapshot batch", frame(record("a", 0, 1, 2, 3), record("b", 2, 2, 9), tomb), wire.StOK},
		{"tombstone", frame(tomb), wire.StOK},
		{"version over the object-size limit", frame(oversized), wire.StError},
		{"empty key", frame(record("", 0, 1)), wire.StError},
		{"repeated seq", frame(record("r", 0, 3, 3)), wire.StError},
		{"descending seqs", frame(record("d", 0, 4, 2)), wire.StError},
		{"version below the cut", frame(record("c", 5, 4, 6)), wire.StError},
		{"tombstone carrying versions", frame(tombWithVersions), wire.StError},
		{"one bad record refuses the whole frame", frame(record("ok", 0, 1), record("", 0, 1)), wire.StError},
		{"unknown format byte", unknownFormat, wire.StError},
		{"JSON frame from an old peer", []byte(`[{"key":"b2xk","versions":[{"seq":7,"at":1,"crc":0,"flags":3,"value":"dg=="}]}]`), wire.StError},
	}
}

func newIngestServer(t testing.TB, poolSize int) *Server {
	t.Helper()
	cfg := smallConfig()
	cfg.PoolSize = poolSize
	srv, err := NewServer(nvm.New(cfg.DeviceSize()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestIngestRefusesMalformedRecords: record frames from a peer are
// hostile input. A frame an exporter could have produced is imported; a
// frame holding any record no exporter produces is refused whole with
// StError before anything is imported — in particular a version too large
// for a version pointer, which the import would otherwise panic on.
func TestIngestRefusesMalformedRecords(t *testing.T) {
	srv := newIngestServer(t, 20<<20)
	for _, tc := range ingestCases() {
		before := srv.Stats().KeysImported
		resp := srv.handleReplAppend(wire.Msg{Type: wire.TReplAppend, Value: tc.blob})
		if resp.Status != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.Status, tc.want)
		}
		if imported := srv.Stats().KeysImported - before; tc.want != wire.StOK && imported != 0 {
			t.Errorf("%s: refused frame imported %d keys", tc.name, imported)
		}
	}
	if _, ok := srv.st.Shard(srv.st.ShardFor([]byte("ok"))).ExportOne([]byte("ok")); ok {
		t.Error("a record of a refused frame was imported")
	}
}

// FuzzIngest feeds record-frame payloads to the append handler of an
// unserved server: whatever the bytes, ingest must not panic, and a frame
// it refuses must import nothing.
func FuzzIngest(f *testing.F) {
	for _, tc := range ingestCases() {
		f.Add(tc.blob)
	}
	srv := newIngestServer(f, 1<<20)
	f.Fuzz(func(t *testing.T, blob []byte) {
		before := srv.Stats().KeysImported
		resp := srv.handleReplAppend(wire.Msg{Type: wire.TReplAppend, Value: blob})
		if resp.Status == wire.StError && srv.Stats().KeysImported != before {
			t.Fatalf("refused frame imported %d keys", srv.Stats().KeysImported-before)
		}
	})
}
