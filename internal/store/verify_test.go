// The verify step from every site: GET, the background verifier at run
// widths one and four, VerifyKeySettled and the cleaner must reach the same
// flags on the same version, and charge what they cost.
package store_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"efactory/internal/crc"
	"efactory/internal/kv"
	"efactory/internal/nvm"
	"efactory/internal/store"
)

// TestVerifySitesAgree runs each verify site over one version of k in each
// state and checks the version's live and persisted validity and
// durability bits. A refused mirror must leave the version valid,
// unflagged and not invalidated everywhere, even past VerifyTimeout.
func TestVerifySitesAgree(t *testing.T) {
	const key, val = "k", "the value"
	states := []struct {
		name                   string
		land, expire, refuse   bool
		wantValid, wantDurable bool
	}{
		{"landed", true, false, false, true, true},
		{"torn inside the window", false, false, false, true, false},
		{"torn past the window", false, true, false, false, false},
		{"landed, mirror refuses", true, true, true, true, false},
	}
	sites := []struct {
		name string
		run  func(r *headRig, pool int)
	}{
		{"Get", func(r *headRig, _ int) { r.eng.Get(nil, []byte(key)) }},
		{"BGStep", func(r *headRig, pool int) { r.eng.BGStep(nil, pool) }},
		{"BGBatch(4)", func(r *headRig, pool int) { r.eng.BGBatch(nil, pool, 4) }},
		{"VerifyKeySettled", func(r *headRig, _ int) { r.eng.VerifyKeySettled(nil, []byte(key)) }},
		{"cleaner", func(r *headRig, _ int) {
			if !r.st.StartCleaning() {
				t.Fatal("cleaning did not start")
			}
			r.co.step()
		}},
	}
	for _, s := range states {
		for _, site := range sites {
			t.Run(s.name+"/"+site.name, func(t *testing.T) {
				refuse := s.refuse
				r := newHeadRig(t, false, func(d *store.Deps) {
					d.Mirror = func(_ any, _ []store.ExportKey, ok []bool) {
						for i := range ok {
							ok[i] = !refuse
						}
					}
				})
				pr := r.eng.Put(nil, []byte(key), len(val), crc.Checksum([]byte(val)))
				pool := r.eng.Pool(pr.Pool)
				if s.land {
					r.dev.Write(pool.Base()+int(pr.Off)+kv.ValueOffset(len(key)), []byte(val))
				}
				if s.expire {
					r.expire()
				}
				site.run(r, pr.Pool)

				var raw [kv.HeaderSize]byte
				r.dev.ReadPersisted(pool.Base()+int(pr.Off), raw[:])
				live, persisted := pool.Header(pr.Off), kv.DecodeHeader(raw[:])
				for _, hd := range []struct {
					name string
					kv.Header
				}{{"live", live}, {"persisted", persisted}} {
					if hd.Valid() != s.wantValid || hd.Durable() != s.wantDurable {
						t.Errorf("%s flags %#x: valid %v durable %v, want %v %v",
							hd.name, hd.Flags, hd.Valid(), hd.Durable(), s.wantValid, s.wantDurable)
					}
				}
				refuse = false
				r.finish()
			})
		}
	}
}

// countSink is a clock that records every charge by op.
type countSink struct {
	now     uint64
	charges map[store.Op][]int // op -> byte counts, in charge order
}

func (s *countSink) Now() uint64 { return s.now }

func (s *countSink) Charge(h any, op store.Op, n int) {
	s.now++
	s.charges[op] = append(s.charges[op], n)
}

// TestVerifyKeySettledChargesLikeGet: the txn commit's settle pass verifies
// and persists the head on the committing request's path, so it costs what
// a GET's on-demand verify costs — one CRC over the value and one flush of
// the object — and not nothing.
func TestVerifyKeySettledChargesLikeGet(t *testing.T) {
	cfg := store.Config{Shards: 1, Buckets: 64, PoolSize: 64 << 10, VerifyTimeout: time.Millisecond}
	sink := &countSink{charges: map[store.Op][]int{}}
	dev := nvm.New(cfg.DeviceSize())
	st, _, err := store.New(dev, cfg, store.Deps{Sink: sink, NewLock: func() sync.Locker { return nopLocker{} }})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	eng := st.Shard(0)
	key, val := []byte("k"), []byte("a value worth a CRC")
	pr := eng.Put(nil, key, len(val), crc.Checksum(val))
	dev.Write(eng.Pool(pr.Pool).Base()+int(pr.Off)+kv.ValueOffset(len(key)), val)

	clear(sink.charges)
	if !eng.VerifyKeySettled(nil, key) {
		t.Fatal("a landed head did not settle")
	}
	want := fmt.Sprint(map[store.Op][]int{store.OpCRC: {len(val)}, store.OpFlush: {pr.Len}})
	if got := fmt.Sprint(sink.charges); got != want {
		t.Errorf("VerifyKeySettled charged %s, want %s", got, want)
	}
	if hd := eng.Pool(pr.Pool).Header(pr.Off); !hd.Durable() {
		t.Error("the settled head is not flagged durable")
	}
}
