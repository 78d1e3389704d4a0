package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
)

// refIndex is the obvious O(n) bucket search bucketIndex must agree with.
func refIndex(ns uint64) int {
	for i, b := range bucketBounds {
		if ns <= b {
			return i
		}
	}
	return NumBuckets - 1
}

func TestBucketIndexMatchesLinearSearch(t *testing.T) {
	cases := []uint64{0, 1, 63, 64, 65, 95, 96, 97, 127, 128, 129, 191, 192, 193, 1000, 4096, 1 << 20, 1<<37 - 1, 1 << 37, 3 << 36, 3<<36 + 1, 1 << 40, math.MaxUint64}
	for o := 0; o < 64; o++ {
		cases = append(cases, uint64(1)<<o, uint64(1)<<o+1, uint64(1)<<o-1)
	}
	for _, ns := range cases {
		if got, want := bucketIndex(ns), refIndex(ns); got != want {
			t.Errorf("bucketIndex(%d) = %d, want %d", ns, got, want)
		}
	}
}

func TestBoundsMonotonic(t *testing.T) {
	b := Bounds()
	if len(b) != numFinite {
		t.Fatalf("len(Bounds()) = %d", len(b))
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not increasing at %d: %d <= %d", i, b[i], b[i-1])
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 1000 samples uniform on [1µs, 10µs).
	for i := 0; i < 1000; i++ {
		h.Observe(uint64(1000 + i*9))
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d", s.Count)
	}
	med := s.Quantile(0.5)
	if med < 4000 || med > 7500 {
		t.Errorf("median = %.0f ns, want ~5500 within bucket resolution", med)
	}
	p99 := s.Quantile(0.99)
	if p99 < med {
		t.Errorf("p99 %.0f < median %.0f", p99, med)
	}
	if q0 := s.Quantile(0); q0 <= 0 || q0 > 2000 {
		t.Errorf("q0 = %.0f, want within the first occupied bucket", q0)
	}
	if q1 := s.Quantile(1); q1 < p99 {
		t.Errorf("q1 %.0f < p99 %.0f", q1, p99)
	}
	if mean := s.Mean(); mean < 4000 || mean > 7000 {
		t.Errorf("mean = %.0f, want ~5495", mean)
	}
}

func TestHistogramEmptyAndReset(t *testing.T) {
	var h Histogram
	if s := h.Snapshot(); s.Quantile(0.5) != 0 || s.Mean() != 0 {
		t.Fatal("empty histogram should quantile to 0")
	}
	h.Observe(500)
	h.Reset()
	if h.Count() != 0 {
		t.Fatalf("count after reset = %d", h.Count())
	}
}

func TestSnapshotMerge(t *testing.T) {
	var a, b Histogram
	a.Observe(100)
	a.Observe(200)
	b.Observe(1 << 30)
	sa, sb := a.Snapshot(), b.Snapshot()
	sa.Merge(sb)
	if sa.Count != 3 || sa.SumNS != 300+1<<30 {
		t.Fatalf("merged count=%d sum=%d", sa.Count, sa.SumNS)
	}
	var total uint64
	for _, c := range sa.Counts {
		total += c
	}
	if total != 3 {
		t.Fatalf("merged bucket total = %d", total)
	}
	// Merging into a zero-valued snapshot must work too.
	var zero HistSnapshot
	zero.Merge(sb)
	if zero.Count != 1 {
		t.Fatalf("merge into zero: count = %d", zero.Count)
	}
}

func TestRingWrapsAndDumpsOldestFirst(t *testing.T) {
	r := NewRing[Event](4)
	for i := 0; i < 7; i++ {
		r.Append(Event{TimeNS: uint64(i), Shard: i, Op: "put", Outcome: "invalidated"})
	}
	if r.Total() != 7 {
		t.Fatalf("total = %d", r.Total())
	}
	d := r.Dump()
	if len(d) != 4 {
		t.Fatalf("dump len = %d", len(d))
	}
	for i, e := range d {
		if e.TimeNS != uint64(3+i) {
			t.Fatalf("dump[%d].TimeNS = %d, want %d", i, e.TimeNS, 3+i)
		}
	}
}

func newTestRegistry() *Registry {
	r := New("efactory", 2, []string{"put", "get"}, 16)
	r.Observe(0, 0, 1500)
	r.Observe(0, 0, 2500)
	r.Observe(1, 1, 800)
	r.AddGauge("efactory_durability_lag_bytes", "unverified backlog", map[string]string{"shard": "0"}, func() float64 { return 4096 })
	r.AddGauge("efactory_durability_lag_bytes", "unverified backlog", map[string]string{"shard": "1"}, func() float64 { return 512 })
	r.AddCounter("efactory_ops_total", "ops", map[string]string{"shard": "0", "op": "put"}, func() float64 { return 2 })
	r.Trace(Event{TimeNS: 1, Shard: 0, Op: "get", Outcome: "rolled_back", KeyHash: 42, Seq: 7})
	return r
}

func TestRegistrySnapshotRoundTrip(t *testing.T) {
	s := newTestRegistry().Snapshot()
	blob, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var got Snapshot
	if err := json.Unmarshal(blob, &got); err != nil {
		t.Fatal(err)
	}
	if got.MergedOp("put").Count != 2 {
		t.Fatalf("merged put count = %d", got.MergedOp("put").Count)
	}
	if got.MergedOp("get").Count != 1 {
		t.Fatalf("merged get count = %d", got.MergedOp("get").Count)
	}
	if v, ok := got.GaugeValue("efactory_durability_lag_bytes"); !ok || v != 4608 {
		t.Fatalf("gauge sum = %v, %v", v, ok)
	}
	if got.TraceTotal != 1 {
		t.Fatalf("trace total = %d", got.TraceTotal)
	}
}

func TestWritePrometheus(t *testing.T) {
	var sb strings.Builder
	if err := newTestRegistry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE efactory_op_latency_ns histogram",
		`efactory_op_latency_ns_bucket{shard="0",op="put",le="+Inf"} 2`,
		`efactory_op_latency_ns_count{shard="0",op="put"} 2`,
		`efactory_op_latency_ns_sum{shard="0",op="put"} 4000`,
		`efactory_op_latency_ns_count{shard="1",op="get"} 1`,
		"# TYPE efactory_durability_lag_bytes gauge",
		`efactory_durability_lag_bytes{shard="0"} 4096`,
		`efactory_durability_lag_bytes{shard="1"} 512`,
		"# TYPE efactory_ops_total counter",
		`efactory_ops_total{op="put",shard="0"} 2`,
		"efactory_trace_events_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}
	// The gauge family header must appear exactly once despite two series.
	if n := strings.Count(out, "# TYPE efactory_durability_lag_bytes gauge"); n != 1 {
		t.Errorf("gauge TYPE header appears %d times", n)
	}
	// Cumulative bucket counts must be non-decreasing.
	var prev uint64
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, `efactory_op_latency_ns_bucket{shard="0",op="put"`) {
			continue
		}
		var cum uint64
		if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &cum); err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if cum < prev {
			t.Fatalf("bucket counts decreased: %d after %d", cum, prev)
		}
		prev = cum
	}
}
