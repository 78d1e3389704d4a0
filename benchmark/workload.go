package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math/rand/v2"

	"efactory/internal/crc"
	"efactory/internal/ycsb"
)

const (
	keyLen    = 32
	batchKeys = 64  // keys per PutBatchInto / GetBatch call
	loaderID  = 255 // client id stamped on preloaded values
	chunks    = 10  // equal op-count chunks per client and round: the run's own noise gauge
)

// spec is one workload. Counts are fixed: a run's length is an op count,
// derived from -seconds through callsPerSec, so both sides of a later
// comparison do identical work however fast they are.
type spec struct {
	name, why string
	clients   int
	keys      int     // key space; every key is preloaded
	vlen      int     // value bytes
	getFrac   float64 // share of Gets in a single-op stream
	batched   bool    // PutBatchInto calls (phase W), drain, then GetBatch calls (phase R)
	rounds    int     // set-ups per timed run, each followed by its share of the measured ops
	// callsPerSec is the measured client calls per client per second of
	// -seconds, sized so the measured phases take about -seconds on the
	// 2-core reference box.
	callsPerSec float64
	buckets     int
	poolSize    int
	replicas    int  // 2 = primary + backup, routed client
	cleans      bool // log cleaning must run (true) or must never run (false)
	shrunk      bool // -scale is not 1: pools no longer match the op counts, so cleaning is not asserted
}

// The four workloads. Pool sizes are chosen so that cleaning either never
// starts or runs many times; both are asserted after the run.
var specs = []spec{
	{
		name: "ycsb-b-256", why: "95% Get / 5% Put of 256 B values by 2 clients: per-message cost (wire, transport, one-sided read pairs) does nearly all the work, crc/nvm/cleaning almost none",
		clients: 2, rounds: 3, keys: 100_000, vlen: 256, getFrac: 0.95, callsPerSec: 17_000,
		buckets: 262144, poolSize: 128 << 20,
	},
	{
		name: "update-4k", why: "100% Put of 4 KiB values over 5k keys into stock 64 MiB pools: bytes dominate, so crc, nvm write+flush, the verifier and the two-stage cleaner do most of the work",
		clients: 1, rounds: 3, keys: 5_000, vlen: 4096, getFrac: 0, callsPerSec: 9_000,
		buckets: 16384, poolSize: 64 << 20, cleans: true,
	},
	{
		name: "batch-64", why: "64-key PutBatchInto calls, a drain, then 64-key GetBatch calls: batching amortises the transport, so per-key kv/store work should dominate and per-message cost vanish",
		clients: 1, rounds: 3, keys: 100_000, vlen: 256, batched: true, callsPerSec: 760,
		buckets: 262144, poolSize: 512 << 20,
	},
	{
		name: "cluster-rf2", why: "50% Get / 50% Put of 1 KiB values through DialCluster at Replicas 2: routing and the per-object mirror stream do most of the work; the other three must show zero mirror appends",
		clients: 1, rounds: 5, keys: 20_000, vlen: 1024, getFrac: 0.5, callsPerSec: 5_000,
		buckets: 65536, poolSize: 128 << 20, replicas: 2,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// scaled shrinks key space, table, pools and op counts for the smoke
// test; the driver and BENCHMARK.json always run at scale 1.
func (s spec) scaled(scale float64) spec {
	if scale == 1 {
		return s
	}
	s.keys = max(batchKeys, int(float64(s.keys)*scale))
	s.buckets = max(1024, int(float64(s.buckets)*scale))
	s.poolSize = max(16<<20, int(float64(s.poolSize)*scale))
	s.callsPerSec *= scale
	s.shrunk = true
	return s
}

// callsPerRound is the fixed number of measured client calls each client
// makes in one round. Batched workloads split it evenly between phases.
func (s spec) callsPerRound(seconds float64) int {
	n := int(s.callsPerSec*seconds) / s.rounds
	n -= n % (2 * chunks) // whole chunks in each phase
	return max(n, 2*chunks)
}

// keysPerCall is how many keys one client call carries.
func (s spec) keysPerCall() int {
	if s.batched {
		return batchKeys
	}
	return 1
}

// An op is a key index with the op kind in the low bit.
type op uint32

func (o op) key() int    { return int(o >> 1) }
func (o op) isPut() bool { return o&1 == 1 }

// stream is one client's pre-generated work for one phase of one round:
// calls × keysPerCall ops, in issue order.
type stream []op

// genStream draws n ops for (seed, round, client, phase) from the
// scrambled-Zipfian chooser. Everything the measured phase needs is
// drawn here, before any timing.
func genStream(zipf *ycsb.Zipfian, seed uint64, round, client, phase, n int, putFrac float64) stream {
	rng := rand.New(rand.NewPCG(seed, uint64(round)<<16|uint64(client)<<8|uint64(phase)))
	out := make(stream, n)
	for i := range out {
		o := op(zipf.Next(rng)) << 1
		if rng.Float64() < putFrac {
			o |= 1
		}
		out[i] = o
	}
	return out
}

func (st stream) hashInto(h hash.Hash) {
	var b [4]byte
	for _, o := range st {
		binary.LittleEndian.PutUint32(b[:], uint32(o))
		h.Write(b[:])
	}
}

// plan is every stream of a run, generated up front so that its hash can
// be printed before anything is timed.
type plan struct {
	warm   [][]stream   // [round][client]: warm-up ops, 10% of the measured count
	phases [][][]stream // [round][client][phase]
	sha    string
}

func makePlan(s spec, seed uint64, seconds float64, nrounds int) plan {
	zipf := ycsb.NewScrambledZipfian(uint64(s.keys))
	calls := s.callsPerRound(seconds)
	var p plan
	h := sha256.New()
	for r := 0; r < nrounds; r++ {
		var warm []stream
		var phases [][]stream
		for c := 0; c < s.clients; c++ {
			var ph []stream
			if s.batched {
				ph = []stream{
					genStream(zipf, seed, r, c, 1, calls/2*batchKeys, 1),
					genStream(zipf, seed, r, c, 2, calls/2*batchKeys, 0),
				}
			} else {
				ph = []stream{genStream(zipf, seed, r, c, 1, calls, 1-s.getFrac)}
			}
			w := genStream(zipf, seed, r, c, 0, max(calls/10, 1)*s.keysPerCall(), 1-s.getFrac)
			w.hashInto(h)
			for _, st := range ph {
				st.hashInto(h)
			}
			warm = append(warm, w)
			phases = append(phases, ph)
		}
		p.warm = append(p.warm, warm)
		p.phases = append(p.phases, phases)
	}
	p.sha = fmt.Sprintf("%x", h.Sum(nil))
	return p
}

// Values are self-describing: key index, writer id and the writer's
// counter in a checksummed 20-byte head, then a fill that is fixed per
// writer. A value read back is valid only if it is byte-for-byte one that
// some writer wrote for that key.
const headLen = 20

func fillFor(writer, vlen int) []byte {
	b := make([]byte, vlen)
	for i := range b {
		b[i] = byte(writer*31 + i*7 + i>>8)
	}
	return b
}

// stamp writes the head for (key, writer, counter) into buf, whose tail
// already holds the writer's fill.
func stamp(buf []byte, key, writer int, counter uint64) {
	binary.LittleEndian.PutUint32(buf[0:], uint32(key))
	binary.LittleEndian.PutUint32(buf[4:], uint32(writer))
	binary.LittleEndian.PutUint64(buf[8:], counter)
	binary.LittleEndian.PutUint32(buf[16:], crc.Checksum(buf[:16]))
}

// checker validates values against what each writer last had
// acknowledged. acked[w][k] is writer w's counter of its last acked write
// to key k (0 = none); each writer updates only its own row, and rows are
// read across writers only after every client has stopped.
type checker struct {
	vlen  int
	fills map[int][]byte
	acked [][]uint64
}

func newChecker(s spec) *checker {
	ck := &checker{vlen: s.vlen, fills: map[int][]byte{loaderID: fillFor(loaderID, s.vlen)}}
	for c := 0; c < s.clients; c++ {
		ck.fills[c] = fillFor(c, s.vlen)
		ck.acked = append(ck.acked, make([]uint64, s.keys))
	}
	return ck
}

// parse checks that v is a well-formed value for key and returns who
// wrote it and that writer's counter.
func (ck *checker) parse(key int, v []byte) (writer int, counter uint64, err error) {
	if len(v) != ck.vlen {
		return 0, 0, fmt.Errorf("key %d: value is %d bytes, want %d", key, len(v), ck.vlen)
	}
	if binary.LittleEndian.Uint32(v[16:]) != crc.Checksum(v[:16]) {
		return 0, 0, fmt.Errorf("key %d: value head fails its checksum", key)
	}
	if got := int(binary.LittleEndian.Uint32(v[0:])); got != key {
		return 0, 0, fmt.Errorf("key %d: value belongs to key %d", key, got)
	}
	writer = int(binary.LittleEndian.Uint32(v[4:]))
	fill, ok := ck.fills[writer]
	if !ok || !bytes.Equal(v[headLen:], fill[headLen:]) {
		return 0, 0, fmt.Errorf("key %d: fill does not match writer %d", key, writer)
	}
	return writer, binary.LittleEndian.Uint64(v[8:]), nil
}

// inline validates a value client reader just read during the run. The
// reader's own writes are ordered with its reads, so its own value must
// be its latest, and a preloaded value means it never wrote the key.
// Another client's value cannot be ordered without synchronising the
// clients, so only its form is checked here; the read-back settles it.
func (ck *checker) inline(reader, key int, v []byte) error {
	writer, counter, err := ck.parse(key, v)
	if err != nil {
		return err
	}
	mine := ck.acked[reader][key]
	switch {
	case writer == reader && counter != mine:
		return fmt.Errorf("key %d: client %d read its write %d after write %d was acked", key, reader, counter, mine)
	case writer == loaderID && mine != 0:
		return fmt.Errorf("key %d: client %d read the preloaded value after its write %d was acked", key, reader, mine)
	}
	return nil
}

// final validates a value read after every client has stopped and the
// verifier has drained: it must be some writer's last acked write.
func (ck *checker) final(key int, v []byte) error {
	writer, counter, err := ck.parse(key, v)
	if err != nil {
		return err
	}
	if writer == loaderID {
		for c, row := range ck.acked {
			if row[key] != 0 {
				return fmt.Errorf("key %d: holds the preloaded value, client %d's acked write %d is lost", key, c, row[key])
			}
		}
		return nil
	}
	if want := ck.acked[writer][key]; counter != want {
		return fmt.Errorf("key %d: holds client %d's write %d, its last acked write is %d", key, writer, counter, want)
	}
	return nil
}
