package store

import (
	"fmt"
	"testing"
	"time"

	"efactory/internal/crc"
	"efactory/internal/kv"
	"efactory/internal/nvm"
)

// TestFailedWriteReleasesFreshSlot: every path that claims a table slot
// and then fails for a full pool or a full table gives back a slot the
// key did not hold and counts it in SlotsReleased, or failing writes of
// distinct keys would consume buckets until the table reports full. A
// slot the key already held stays.
func TestFailedWriteReleasesFreshSlot(t *testing.T) {
	val := make([]byte, 40)
	obj := kv.ObjectSize(len("fill-0"), len(val)) // every key here is 5-8 bytes: one size
	put := func(key string) func(*Store) Status {
		return func(st *Store) Status {
			return st.Shard(0).Put(nil, []byte(key), len(val), crc.Checksum(val)).Status
		}
	}
	commit := func(keys ...string) func(*Store) Status {
		return func(st *Store) Status {
			var ks, vs [][]byte
			for _, k := range keys {
				ks, vs = append(ks, []byte(k)), append(vs, val)
			}
			_, s := st.Commit(nil, ks, vs)
			return s
		}
	}
	for _, tc := range []struct {
		name     string
		buckets  int
		pool     int // bytes per data pool
		fill     int // keys put before the failing write
		write    func(*Store) Status
		released int
	}{
		{"Put, pool full", 8, 2 * obj, 2, put("new-0"), 1},
		{"Put of a held key, pool full", 8, 2 * obj, 2, put("fill-0"), 0},
		{"Put, table full", 2, 4 * obj, 2, put("new-0"), 0},
		{"PutBatch, pool full", 8, 2 * obj, 2, func(st *Store) Status {
			ops := []PutOp{{Key: []byte("new-0"), VLen: len(val)}, {Key: []byte("new-1"), VLen: len(val)}}
			for _, r := range st.Shard(0).PutBatch(nil, ops, nil) {
				if r.Status != StatusFull {
					return r.Status
				}
			}
			return StatusFull
		}, 2},
		// The first op claims the last free bucket, the second finds none.
		{"Commit, table full", 4, 8 * obj, 3, commit("new-0", "new-1"), 1},
		// The staged op takes the pool's last object, so the record fails.
		{"Commit, record pool full", 8, 3 * obj, 2, commit("new-0"), 1},
		{"ImportKey, pool full", 8, 2 * obj, 2, func(st *Store) Status {
			return st.Shard(0).ImportKey(nil, ExportKey{Key: []byte("new-0"), Versions: []ExportVersion{{
				Seq: 100, CRC: crc.Checksum(val), Flags: kv.FlagValid | kv.FlagDurable, Value: val}}})
		}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Shards: 1, Buckets: tc.buckets, PoolSize: tc.pool, VerifyTimeout: time.Second}
			st, _, err := New(nvm.New(cfg.DeviceSize()), cfg, Deps{})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Stop()
			for i := 0; i < tc.fill; i++ {
				if s := put(fmt.Sprintf("fill-%d", i))(st); s != StatusOK {
					t.Fatalf("fill put %d: status %v", i, s)
				}
			}
			eng := st.Shard(0)
			occupied, released := eng.Table().Occupied(), eng.Stats().SlotsReleased
			if s := tc.write(st); s != StatusFull {
				t.Fatalf("write: status %v, want StatusFull", s)
			}
			if got := eng.Table().Occupied(); got != occupied {
				t.Errorf("occupied slots %d -> %d: the failed write leaked a slot", occupied, got)
			}
			if got := eng.Stats().SlotsReleased - released; got != tc.released {
				t.Errorf("SlotsReleased moved by %d, want %d", got, tc.released)
			}
		})
	}
}
