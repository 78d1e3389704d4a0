package store

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"efactory/internal/crc"
	"efactory/internal/nvm"
)

// readCounter is the wall-clock sink with its clock reads counted.
type readCounter struct {
	CostSink
	reads int
}

func (c *readCounter) Now() uint64 { c.reads++; return c.CostSink.Now() }

// TestWallClockReads counts the wall-clock reads engine ops make when
// their sections are not sampled, on an engine built with the default
// Deps (the wall clock, sync.Mutex), and gates them: a Put makes at most
// 3 (its start, CreatedAt, its end), a Get at most 2, a PutBatch key at
// most 2 and a GetBatch key at most 1 (a batch's keys share their
// boundaries, so a batch makes one more read, its start), a verifier
// visit 0 unless a CRC mismatch needs the VerifyTimeout test (then 1),
// and a cleaner object 0 (a cleaning run makes 2, its start and end
// events). Each measured op first moves every section kind's counter
// just past a sample, so none of its sections is timed.
func TestWallClockReads(t *testing.T) {
	const keys, vlen = 30, 256 // < sectionSample sections of any kind per measured op
	cfg := Config{Shards: 1, Buckets: 1024, PoolSize: 1 << 20, VerifyTimeout: time.Hour}
	var cleaner func(h any)
	st, _, err := New(nvm.New(cfg.DeviceSize()), cfg, Deps{
		Spawn: func(_ string, fn func(h any)) { cleaner = fn },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	e := st.Shard(0)
	if !e.wall {
		t.Fatal("an engine with the default Deps is not on the wall clock")
	}
	clock := &readCounter{CostSink: e.sink}
	e.sink = clock
	reads := func(op func()) int {
		for i := range e.sections {
			e.sections[i] = 1
		}
		before := clock.reads
		op()
		return clock.reads - before
	}
	gate := func(what string, got, max int) {
		t.Helper()
		if got > max {
			t.Errorf("%s makes %d wall-clock reads, want at most %d", what, got, max)
		}
	}

	val := bytes.Repeat([]byte{'v'}, vlen)
	sum := crc.Checksum(val)
	key := func(i int) []byte { return []byte(fmt.Sprintf("obj-%04d", i)) }
	putReads := 0
	for i := 0; i < keys; i++ {
		n := reads(func() { e.PutInline(nil, key(i), val, sum) })
		gate("a Put", n, 3)
		putReads += n
	}
	ops := make([]PutOp, keys)
	ks := make([][]byte, keys)
	for i := range ops {
		ks[i] = key(i)
		ops[i] = PutOp{Key: ks[i], VLen: vlen, Crc: sum, Value: val}
	}
	putBatch := reads(func() { e.PutBatch(nil, ops, nil) })
	gate(fmt.Sprintf("a %d-key PutBatch", keys), putBatch, 1+2*keys)

	visits, visitReads := 0, 0
	for pi := 0; pi < 2; pi++ {
		for {
			moved := 0
			n := reads(func() { moved = e.BGBatch(nil, pi, 1) })
			if moved == 0 {
				break
			}
			gate("a verifier visit", n, 0)
			visits++
			visitReads += n
		}
	}
	if visits != 2*keys {
		t.Fatalf("the verifier visited %d objects, want %d", visits, 2*keys)
	}

	getReads := 0
	for i := 0; i < keys; i++ {
		n := reads(func() {
			if r := e.Get(nil, key(i)); r.Status != StatusOK || !r.Durable {
				t.Fatalf("get %d: status %v durable %v", i, r.Status, r.Durable)
			}
		})
		gate("a Get", n, 2)
		getReads += n
	}
	getBatch := reads(func() { e.GetBatch(nil, ks, nil) })
	gate(fmt.Sprintf("a %d-key GetBatch", keys), getBatch, 1+keys)

	if !e.StartCleaning() || cleaner == nil {
		t.Fatal("no cleaning run started")
	}
	cleanRun := reads(func() { cleaner(nil) })
	if s := e.Stats(); s.Cleanings != 1 || s.CleanMoved != keys || s.CleanDropped != keys {
		t.Fatalf("cleaning run: %d runs, %d moved, %d dropped; want 1, %d, %d",
			s.Cleanings, s.CleanMoved, s.CleanDropped, keys, keys)
	}
	gate(fmt.Sprintf("a cleaning run over %d objects", 2*keys), cleanRun, 2)

	// A value that never lands fails its CRC: the verifier reads the
	// clock once, to test VerifyTimeout, and leaves the version pending.
	e.Put(nil, []byte("torn"), vlen, sum)
	pi := e.CurrentPool()
	torn := reads(func() {
		if e.BGBatch(nil, pi, 1) != 0 {
			t.Fatal("the verifier passed over a torn version inside VerifyTimeout")
		}
	})
	if torn != 1 {
		t.Errorf("a verifier visit with a CRC mismatch makes %d wall-clock reads, want 1", torn)
	}

	t.Logf("wall-clock reads, unsampled: %.2f per Put, %.2f per PutBatch key, %.2f per Get, %.2f per GetBatch key, "+
		"%.2f per verifier visit (%.0f on a CRC mismatch), %.2f per cleaner object (%d per run)",
		float64(putReads)/keys, float64(putBatch)/keys, float64(getReads)/keys, float64(getBatch)/keys,
		float64(visitReads)/float64(visits), float64(torn), float64(cleanRun-2)/(2*keys), cleanRun)
}

// TestWallClockSectionSampling: on the wall clock a shard times the first
// section of each kind and every sectionSample-th after it, while every
// request keeps its whole-op latency.
func TestWallClockSectionSampling(t *testing.T) {
	cfg := Config{Shards: 1, Buckets: 1024, PoolSize: 1 << 20, VerifyTimeout: time.Hour}
	st, _, err := New(nvm.New(cfg.DeviceSize()), cfg, Deps{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	e := st.Shard(0)
	val := []byte("value")
	const puts = 2*sectionSample + 1
	for i := 0; i < puts; i++ {
		e.PutInline(nil, []byte(fmt.Sprintf("k%d", i)), val, crc.Checksum(val))
	}
	if got := st.Metrics().Hist(0, mopPut).Count(); got != puts {
		t.Errorf("put latency has %d samples after %d puts, want every one", got, puts)
	}
	if got := st.Metrics().Hist(0, int(OpAlloc)).Count(); got != 3 {
		t.Errorf("alloc section has %d samples after %d puts, want 3 (puts 1, %d and %d)",
			got, puts, sectionSample+1, 2*sectionSample+1)
	}
}
