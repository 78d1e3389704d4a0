package main

import (
	"fmt"
	"time"

	"efactory/internal/crc"
	"efactory/internal/kv"
	"efactory/internal/nvm"
	"efactory/internal/stats"
	"efactory/internal/store"
	"efactory/internal/tcpkv"
	"efactory/internal/wire"
)

// The ladder replays a prefix of the workload's own op stream through one
// layer at a time, calling each layer's public functions directly, and
// times the calls with spans. Cheap calls are timed in blocks, since a
// clock read costs about as much as one of them.
const (
	ladderOps       = 8192 // prefix replayed through crc, nvm, kv, store and wire
	ladderServedOps = 2048 // prefix replayed through the three served rungs (plain, routed, replicated)
	ladderBlock     = 256  // calls per span on the cheapest rungs
	bgEvery         = 64   // store rung: drain the verifier every this many ops, as the server's ticker would
)

// ladderOut is what the rungs measured beyond their spans.
type ladderOut struct {
	wireBytesPerOp  float64
	callUS          float64 // median single client call, one plain client
	batchedUSPerKey float64 // median batched call on the same server ÷ keys per call
	routedUS        float64 // median routed call, one unreplicated clustered instance
	writeMeanRF1US  float64
	writeMeanRF2US  float64
	putShare        float64 // share of puts in the prefix, the weight of put-only rungs
	calls           int     // ops replayed on each served rung
}

// prefixOf flattens the first n key-ops of a round's client-0 streams: a
// batched workload contributes puts from phase W and gets from phase R in
// equal parts.
func prefixOf(phases []stream, n int) stream {
	var out stream
	per := n / len(phases)
	for _, st := range phases {
		out = append(out, st[:min(per, len(st))]...)
	}
	return out
}

// touched lists the distinct keys of a prefix, in first-use order.
func touched(st stream) []int {
	seen := make(map[int]bool)
	var out []int
	for _, o := range st {
		if !seen[o.key()] {
			seen[o.key()] = true
			out = append(out, o.key())
		}
	}
	return out
}

func runLadder(s spec, keys [][]byte, phases []stream, scale float64, rec *Recorder) (ladderOut, error) {
	var out ladderOut
	flat := prefixOf(phases, max(int(ladderOps*scale), 2*batchKeys))
	served := prefixOf(phases, max(int(ladderServedOps*scale), 2*batchKeys))
	puts := 0
	for _, o := range flat {
		if o.isPut() {
			puts++
		}
	}
	out.putShare = float64(puts) / float64(len(flat))
	value := fillFor(0, s.vlen)

	rungCRC(flat, value, rec)
	rungNVM(s, flat, rec)
	rungKV(s, keys, flat, rec)
	if err := rungStore(s, keys, flat, value, rec); err != nil {
		return out, fmt.Errorf("store rung: %w", err)
	}
	out.wireBytesPerOp = rungWire(s, keys, flat, rec)

	// Served rungs: the same prefix against a plain server, a clustered
	// unreplicated one and a replicated pair, one client each: the rung's
	// index is its Replicas setting. Pools are sized for the prefix, so none
	// of them cleans.
	rs := s
	rs.clients, rs.batched, rs.cleans = 1, false, false
	rs.poolSize = max(32<<20, 4*len(served)*kv.ObjectSize(keyLen, s.vlen))
	load := touched(served)
	for replicas, name := range []string{"plain", "routed", "replicated"} {
		rs.replicas = replicas
		e, err := setUp(rs, keys, load, nil)
		if err != nil {
			return out, fmt.Errorf("%s rung: %w", name, err)
		}
		results, _, _ := e.phase([]stream{served}, rec, "ladder."+name)
		res := results[0]
		if res.firstErr == nil && name == "plain" {
			out.batchedUSPerKey, res.firstErr = batchedPass(e, served, rec)
		}
		if name == "routed" {
			rungRoute(e, keys, served, rec)
		}
		if err := e.close(); err != nil && res.firstErr == nil {
			res.firstErr = err
		}
		if res.firstErr != nil {
			return out, fmt.Errorf("%s rung: %w", name, res.firstErr)
		}
		writeMean := us(res.write.Mean())
		res.read.Merge(&res.write)
		switch call := us(res.read.Median()); name {
		case "plain":
			out.callUS = call
		case "routed":
			out.routedUS, out.writeMeanRF1US = call, writeMean
		case "replicated":
			out.writeMeanRF2US = writeMean
		}
	}
	out.calls = len(served)
	return out, nil
}

// rungCRC checksums the value of every put the prefix carries.
func rungCRC(flat stream, value []byte, rec *Recorder) {
	root := rec.Open("ladder.crc", 0, -1)
	var sink uint32
	n, t0 := 0, time.Now()
	for i, o := range flat {
		if o.isPut() {
			sink ^= crc.Checksum(value)
			n++
		}
		if n == ladderBlock || (i == len(flat)-1 && n > 0) {
			t1 := time.Now()
			rec.Add("crc.Checksum", root, int64(i), t0, t1, n)
			n, t0 = 0, t1
		}
	}
	crcSink = sink
	rec.Close(root, len(flat))
}

var crcSink uint32 // keeps the checksum calls from being optimised away

// rungNVM writes and flushes, then reads, one object-sized buffer per op
// on an in-memory device, cycling through it.
func rungNVM(s spec, flat stream, rec *Recorder) {
	obj := kv.ObjectSize(keyLen, s.vlen)
	const devSize = 32 << 20
	dev := nvm.New(devSize)
	buf := make([]byte, obj)
	slots := devSize / obj
	root := rec.Open("ladder.nvm", 0, -1)
	const block = 64
	for pass, name := range []string{"nvm.Write+Flush", "nvm.Read"} {
		for i := 0; i < len(flat); i += block {
			n := min(block, len(flat)-i)
			t0 := time.Now()
			for j := i; j < i+n; j++ {
				off := (j % slots) * obj
				if pass == 0 {
					dev.Write(off, buf)
					dev.Flush(off, obj)
				} else {
					dev.Read(off, buf)
				}
			}
			rec.Add(name, root, int64(i), t0, time.Now(), n)
		}
	}
	rec.Close(root, 2*len(flat))
}

// rungKV times the index lookup (HashKey + Table.FindSlot) of every op's
// key in a table of the workload's size, and one header round trip
// (WriteHeader + ReadHeader + SetFlags) per op.
func rungKV(s spec, keys [][]byte, flat stream, rec *Recorder) {
	tableBytes := kv.TableBytes(s.buckets)
	const hdrRegion = 1 << 20
	dev := nvm.New(tableBytes + hdrRegion)
	table := kv.NewTable(dev, 0, s.buckets)
	root := rec.Open("ladder.kv", 0, -1)
	var sink int
	for i := 0; i < len(flat); i += ladderBlock {
		n := min(ladderBlock, len(flat)-i)
		t0 := time.Now()
		for _, o := range flat[i : i+n] {
			idx, _, _ := table.FindSlot(kv.HashKey(keys[o.key()]))
			sink += idx
		}
		t1 := time.Now()
		rec.Add("kv.lookup", root, int64(i), t0, t1, n)
		for j := i; j < i+n; j++ {
			off := uint64(j % (hdrRegion / kv.HeaderSize) * kv.HeaderSize)
			h := kv.Header{Seq: uint64(j), KLen: keyLen, VLen: s.vlen, Flags: kv.FlagValid, Magic: kv.Magic}
			kv.WriteHeader(dev, tableBytes, off, &h)
			got := kv.ReadHeader(dev, tableBytes, off)
			kv.SetFlags(dev, tableBytes, off, got.Flags|kv.FlagDurable)
		}
		rec.Add("kv.header", root, int64(i), t1, time.Now(), n)
	}
	kvSink = sink
	rec.Close(root, len(flat))
}

var kvSink int

// bgDrain runs the engine's verifier to the end of both logs the way
// tcpkv's background goroutine does at the default BGBatch, and returns
// how many objects it passed.
func bgDrain(eng *store.Engine, width int) int {
	visits := func() int {
		st := eng.Stats()
		return st.BGVerified + st.BGSkipped + st.BGStale + st.BGInvalidated
	}
	before := visits()
	for progressed := true; progressed; {
		progressed = false
		for pi := 0; pi < 2; pi++ {
			if width > 1 {
				for eng.BGBatch(nil, pi, eng.AdaptiveBGBatch(width)) > 0 {
					progressed = true
				}
			} else {
				for eng.BGStep(nil, pi) {
					progressed = true
				}
			}
		}
	}
	return visits() - before
}

// rungStore replays the prefix through an in-process engine with no
// transport: Put plus the value copy a one-sided write lands, Get plus
// the value read, the verifier drained every bgEvery ops, and then the
// same ops as 64-key PutBatch / GetBatch groups.
func rungStore(s spec, keys [][]byte, flat stream, value []byte, rec *Recorder) error {
	def := tcpkv.DefaultConfig()
	cfg := store.Config{
		Buckets:       s.buckets,
		PoolSize:      max(32<<20, 4*len(flat)*kv.ObjectSize(keyLen, s.vlen)),
		VerifyTimeout: def.VerifyTimeout,
	}
	st, _, err := store.New(nvm.New(cfg.DeviceSize()), cfg, store.Deps{})
	if err != nil {
		return err
	}
	defer st.Stop()
	eng := st.Shard(0)
	sum := crc.Checksum(value)
	put := func(key []byte) error {
		r := eng.Put(nil, key, len(value), sum)
		if r.Status != store.StatusOK {
			return fmt.Errorf("put status %d", r.Status)
		}
		eng.Pool(r.Pool).WriteValue(r.Off, len(key), value)
		return nil
	}
	for _, k := range touched(flat) {
		if err := put(keys[k]); err != nil {
			return err
		}
	}
	bgDrain(eng, def.BGBatch)

	root := rec.Open("ladder.store", 0, -1)
	var scratch []byte
	prev := time.Now()
	for i, o := range flat {
		key, name := keys[o.key()], "store.Get"
		if o.isPut() {
			name = "store.Put"
			if err := put(key); err != nil {
				return err
			}
		} else {
			g := eng.Get(nil, key)
			if g.Status != store.StatusOK {
				return fmt.Errorf("get status %d", g.Status)
			}
			scratch = eng.Pool(g.Pool).ReadValueInto(scratch, g.Off, g.KLen, len(value))
		}
		now := time.Now()
		rec.Add(name, root, int64(i), prev, now, 1)
		prev = now
		if i%bgEvery == bgEvery-1 {
			n := bgDrain(eng, def.BGBatch)
			now = time.Now()
			rec.Add("store.BG", root, int64(i), prev, now, n)
			prev = now
		}
	}

	var pops []store.PutOp
	var pres []store.PutResult
	var gkeys [][]byte
	for i := 0; i+batchKeys <= len(flat); i += batchKeys {
		pops, gkeys = pops[:0], gkeys[:0]
		for _, o := range flat[i : i+batchKeys] {
			if o.isPut() {
				pops = append(pops, store.PutOp{Key: keys[o.key()], VLen: len(value), Crc: sum})
			} else {
				gkeys = append(gkeys, keys[o.key()])
			}
		}
		t0 := time.Now()
		if len(pops) > 0 {
			pres = eng.PutBatch(nil, pops, pres)
			for j, r := range pres {
				if r.Status != store.StatusOK {
					return fmt.Errorf("put batch status %d", r.Status)
				}
				eng.Pool(r.Pool).WriteValue(r.Off, len(pops[j].Key), value)
			}
		}
		t1 := time.Now()
		rec.Add("store.PutBatch", root, int64(i), t0, t1, len(pops))
		if len(gkeys) > 0 {
			for _, g := range eng.GetBatch(nil, gkeys, nil) {
				if g.Status != store.StatusOK {
					return fmt.Errorf("get batch status %d", g.Status)
				}
				scratch = eng.Pool(g.Pool).ReadValueInto(scratch, g.Off, g.KLen, len(value))
			}
		}
		rec.Add("store.GetBatch", root, int64(i), t1, time.Now(), len(gkeys))
		bgDrain(eng, def.BGBatch)
	}
	rec.Close(root, len(flat))
	return nil
}

// rungWire encodes and decodes the request and response message each op
// would send on the RPC path (TPut/TPutResp, TGet/TGetResp) and returns
// the encoded bytes per op. One-sided frames are not wire messages, so a
// Get served by the pure one-sided path pays none of this.
func rungWire(s spec, keys [][]byte, flat stream, rec *Recorder) float64 {
	root := rec.Open("ladder.wire", 0, -1)
	var buf []byte
	bytes := 0
	for i := 0; i < len(flat); i += ladderBlock {
		n := min(ladderBlock, len(flat)-i)
		t0 := time.Now()
		for _, o := range flat[i : i+n] {
			req := wire.Msg{Type: wire.TGet, Key: keys[o.key()]}
			resp := wire.Msg{Type: wire.TGetResp, RKey: 2, Off: 4096, Len: uint64(kv.ObjectSize(keyLen, s.vlen)), KLen: keyLen}
			if o.isPut() {
				req = wire.Msg{Type: wire.TPut, Crc: 0xfeed, Len: uint64(s.vlen), Key: keys[o.key()]}
				resp.Type = wire.TPutResp
			}
			for _, m := range []*wire.Msg{&req, &resp} {
				buf = m.AppendEncode(buf[:0])
				bytes += len(buf)
				if _, err := wire.Decode(buf); err != nil {
					panic(err) // a message this package just encoded
				}
			}
		}
		rec.Add("wire.codec", root, int64(i), t0, time.Now(), n)
	}
	rec.Close(root, len(flat))
	return float64(bytes) / float64(len(flat))
}

// batchedPass re-issues the prefix on the plain rung's server as 64-key
// PutBatchInto calls, a drain, and 64-key GetBatch calls, and returns the
// median call time per key: the amortisation check beside the single-op
// median.
func batchedPass(e *env, served stream, rec *Recorder) (float64, error) {
	var w, r stream
	for _, o := range served {
		if o.isPut() {
			w = append(w, o)
		} else {
			r = append(r, o)
		}
	}
	e.s.batched = true
	for i := 1; i < batchKeys; i++ {
		e.bufs[0] = append(e.bufs[0], fillFor(0, e.s.vlen))
	}
	var lats stats.Recorder
	for _, st := range []stream{w, r} {
		st = st[:len(st)/batchKeys*batchKeys]
		if len(st) == 0 {
			continue
		}
		if err := e.drain(); err != nil {
			return 0, err
		}
		res, _, _ := e.phase([]stream{st}, rec, "ladder.batched")
		if res[0].firstErr != nil {
			return 0, res[0].firstErr
		}
		lats.Merge(&res[0].read)
		lats.Merge(&res[0].write)
	}
	return us(lats.Median()) / batchKeys, nil
}

// rungRoute times the routed client's per-key placement decision: the PG
// hash and map lookup of cluster.Map.InstanceForKey.
func rungRoute(e *env, keys [][]byte, served stream, rec *Recorder) {
	m := e.insts[0].srv.ClusterMap()
	root := rec.Open("ladder.route", 0, -1)
	for i := 0; i < len(served); i += ladderBlock {
		n := min(ladderBlock, len(served)-i)
		t0 := time.Now()
		for _, o := range served[i : i+n] {
			if _, _, ok := m.InstanceForKey(keys[o.key()]); !ok {
				panic("cluster map owns no instance for a key")
			}
		}
		rec.Add("cluster.route", root, int64(i), t0, time.Now(), n)
	}
	rec.Close(root, len(served))
}
