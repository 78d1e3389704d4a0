// Package obs is the engine-wide telemetry layer: per-shard, per-op
// latency histograms, callback gauges, monotonic counters, and a bounded
// trace ring, rendered as a Prometheus text endpoint, an expvar-style JSON
// snapshot, or a wire-transportable Snapshot value.
//
// The package is transport- and engine-neutral: it never imports the
// storage engine. The engine feeds it durations measured on its CostSink
// clock, so the same instrumentation records virtual time under the
// discrete-event simulator and wall-clock time under the TCP server.
// Observe is lock-free (atomic adds on fixed buckets); gauges and counters
// are closures evaluated only at scrape/snapshot time, so steady-state
// cost on the hot path is exactly one bucket increment plus two atomic
// adds per observation.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Registry holds one subsystem's metrics: a [shards][ops] histogram
// matrix, registered gauges/counters, and the trace ring.
type Registry struct {
	prefix  string
	opNames []string
	shards  int
	hists   []Histogram // flat [shard*len(opNames) + op]
	ring    *Ring[Event]

	instance atomic.Pointer[string] // stamped onto ring events (nil = unclustered)
	epoch    atomic.Uint64          // cluster-map epoch stamped onto ring events

	mu       sync.Mutex // guards metric registration only
	gauges   []metric
	counters []metric
}

// metric is one registered gauge or counter: a name, a fixed label set,
// and a closure evaluated at scrape time.
type metric struct {
	name   string
	help   string
	labels map[string]string
	fn     func() float64
}

// New builds a registry for shards shards and the given op names, with a
// trace ring retaining ringCap events. prefix namespaces every rendered
// metric (e.g. "efactory").
func New(prefix string, shards int, opNames []string, ringCap int) *Registry {
	if shards <= 0 {
		shards = 1
	}
	return &Registry{
		prefix:  prefix,
		opNames: opNames,
		shards:  shards,
		hists:   make([]Histogram, shards*len(opNames)),
		ring:    NewRing[Event](ringCap),
	}
}

// Shards returns the shard count the registry was built for.
func (r *Registry) Shards() int { return r.shards }

// OpNames returns the op-name table (index == op).
func (r *Registry) OpNames() []string { return r.opNames }

// Ring returns the trace ring.
func (r *Registry) Ring() *Ring[Event] { return r.ring }

// Hist returns the histogram for (shard, op).
func (r *Registry) Hist(shard, op int) *Histogram {
	return &r.hists[shard*len(r.opNames)+op]
}

// Observe records one latency sample in nanoseconds for (shard, op).
func (r *Registry) Observe(shard, op int, ns uint64) {
	r.hists[shard*len(r.opNames)+op].Observe(ns)
}

// SetInstance names the deployment this registry observes. Every ring
// event appended afterwards carries the name, so rings dumped from
// different cluster instances stay attributable after they are merged.
func (r *Registry) SetInstance(name string) { r.instance.Store(&name) }

// SetEpoch records the current cluster-map epoch; subsequent ring events
// carry it. Call on every map install so events straddling a migration
// are attributable to the map they were served under.
func (r *Registry) SetEpoch(epoch uint64) { r.epoch.Store(epoch) }

// Trace appends a structured trace event, stamping the registry's
// instance name and cluster epoch onto it (when set and the event does
// not already carry its own).
func (r *Registry) Trace(e Event) {
	if e.Instance == "" {
		if p := r.instance.Load(); p != nil {
			e.Instance = *p
		}
	}
	if e.Epoch == 0 {
		e.Epoch = r.epoch.Load()
	}
	r.ring.Append(e)
}

// AddGauge registers a gauge evaluated at scrape/snapshot time. labels may
// be nil; the map is retained, not copied.
func (r *Registry) AddGauge(name, help string, labels map[string]string, fn func() float64) {
	r.mu.Lock()
	r.gauges = append(r.gauges, metric{name: name, help: help, labels: labels, fn: fn})
	r.mu.Unlock()
}

// AddCounter registers a monotonically non-decreasing counter evaluated at
// scrape/snapshot time.
func (r *Registry) AddCounter(name, help string, labels map[string]string, fn func() float64) {
	r.mu.Lock()
	r.counters = append(r.counters, metric{name: name, help: help, labels: labels, fn: fn})
	r.mu.Unlock()
}

// MetricValue is one evaluated gauge or counter.
type MetricValue struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
}

// Snapshot is a point-in-time, JSON-encodable copy of the whole registry,
// suitable for the TMetrics wire RPC and /debug/vars. Ops lists the op
// names; Shards[s][op] holds that shard's histogram for ops with at least
// one sample.
type Snapshot struct {
	BucketsNS  []uint64                  `json:"buckets_ns"`
	Ops        []string                  `json:"ops"`
	Shards     []map[string]HistSnapshot `json:"shards"`
	Gauges     []MetricValue             `json:"gauges"`
	Counters   []MetricValue             `json:"counters"`
	TraceTotal uint64                    `json:"trace_total"`
}

// Snapshot evaluates every gauge and counter and copies every histogram.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		BucketsNS:  Bounds(),
		Ops:        r.opNames,
		Shards:     make([]map[string]HistSnapshot, r.shards),
		TraceTotal: r.ring.Total(),
	}
	for sh := 0; sh < r.shards; sh++ {
		m := make(map[string]HistSnapshot)
		for op, name := range r.opNames {
			h := r.Hist(sh, op)
			if h.Count() > 0 {
				m[name] = h.Snapshot()
			}
		}
		s.Shards[sh] = m
	}
	r.mu.Lock()
	gauges, counters := r.gauges, r.counters
	r.mu.Unlock()
	for _, g := range gauges {
		s.Gauges = append(s.Gauges, MetricValue{Name: g.name, Labels: g.labels, Value: g.fn()})
	}
	for _, c := range counters {
		s.Counters = append(s.Counters, MetricValue{Name: c.name, Labels: c.labels, Value: c.fn()})
	}
	return s
}

// MergedOp folds one op's histogram across every shard of a snapshot.
func (s Snapshot) MergedOp(op string) HistSnapshot {
	var out HistSnapshot
	for _, sh := range s.Shards {
		if h, ok := sh[op]; ok {
			out.Merge(h)
		}
	}
	return out
}

// MergeSnapshots folds snapshots from several instances into one view:
// shard histogram maps are concatenated (shard indices become per-source
// rows, so MergedOp folds across every instance), gauges and counters
// are concatenated (GaugeValue/CounterValue already sum duplicates), and
// trace totals add. Ops and bucket geometry are taken from the first
// snapshot with any; mixed geometries are the caller's bug.
func MergeSnapshots(ss ...Snapshot) Snapshot {
	var out Snapshot
	for _, s := range ss {
		if out.Ops == nil && s.Ops != nil {
			out.Ops = s.Ops
			out.BucketsNS = s.BucketsNS
		}
		out.Shards = append(out.Shards, s.Shards...)
		out.Gauges = append(out.Gauges, s.Gauges...)
		out.Counters = append(out.Counters, s.Counters...)
		out.TraceTotal += s.TraceTotal
	}
	return out
}

// GaugeValue returns the sum of every gauge named name (summing across
// shard labels) and whether at least one was found.
func (s Snapshot) GaugeValue(name string) (float64, bool) {
	var total float64
	found := false
	for _, g := range s.Gauges {
		if g.Name == name {
			total += g.Value
			found = true
		}
	}
	return total, found
}

// CounterValue returns the sum of every counter named name whose labels
// include all of match (summing across shard labels and any labels not
// constrained by match), and whether at least one was found. A nil match
// sums every registration of the name.
func (s Snapshot) CounterValue(name string, match map[string]string) (float64, bool) {
	var total float64
	found := false
	for _, c := range s.Counters {
		if c.Name != name {
			continue
		}
		ok := true
		for k, v := range match {
			if c.Labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			total += c.Value
			found = true
		}
	}
	return total, found
}

// sortedLabelKeys renders deterministically.
func sortedLabelKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
