package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// Self time is a span's duration minus the part of it its children cover:
// overlapping children count once, and a child is clipped to its parent.
func TestSelfTimeIsDurationMinusChildCover(t *testing.T) {
	r := NewRecorder(8)
	at := func(ns int64) time.Time { return r.epoch.Add(time.Duration(ns)) }
	root := r.Add("root", 0, -1, at(0), at(100), 0)
	a := r.Add("a", root, 0, at(10), at(40), 1)
	r.Add("b", root, 1, at(30), at(60), 1)  // overlaps a for 10 ns
	r.Add("c", root, 2, at(90), at(120), 1) // runs 20 ns past its parent
	r.Add("a1", a, 0, at(10), at(25), 1)    // grandchild: covers a, not root
	lone := r.Add("lone", 0, -1, at(0), at(7), 0)

	self := SelfTimes(r.Spans())
	for id, want := range map[uint64]int64{
		root: 100 - (50 + 10), // [10,60) and [90,100)
		a:    30 - 15,
		lone: 7,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d ns, want %d", id, self[id], want)
		}
	}
}

func TestForkedRecordersShareIDsAndNilRecordsNothing(t *testing.T) {
	r := NewRecorder(4)
	f := r.Fork(4)
	p := r.Open("phase", 0, -1)
	c := f.Add("call", p, 0, time.Now(), time.Now(), 1)
	r.Merge(f)
	r.Close(p, 1)
	if p == c || len(r.Spans()) != 2 || r.Spans()[0].Count != 1 {
		t.Fatalf("ids %d %d, spans %+v", p, c, r.Spans())
	}
	var off *Recorder
	if off.Fork(1) != nil || off.Open("x", 0, 0) != 0 || off.Add("x", 0, 0, time.Now(), time.Now(), 1) != 0 || off.Spans() != nil {
		t.Fatal("a nil recorder must record nothing")
	}
}

// The spread of a set of runs is judged with Python's
// statistics.quantiles(values, n=4); these are its outputs.
func TestQuartilesMatchPythonStatistics(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 12, 11, 15, 9, 14, 13, 10.5, 12.5, 11.5})
	if math.Abs(q1-10.375) > 1e-9 || math.Abs(q3-13.25) > 1e-9 {
		t.Errorf("ten values: q1 %v q3 %v, want 10.375 13.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q3 != 3 {
		t.Errorf("three values: q1 %v q3 %v, want 1 3", q1, q3)
	}
}

// BENCHMARK.json repeats the workload and metric tables for the driver;
// it must say what the program emits.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jm `json:"end_to_end"`
		PerLayer   []jm `json:"per_layer"`
		RunSeconds int  `json:"run_seconds"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(specs))
	}
	for i, w := range doc.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: %q differs from the program's %q", i, w.Name, specs[i].name)
		}
	}
	same := func(kind string, got []jm, want []metricDef) {
		var w []jm
		for _, d := range want {
			w = append(w, jm{d.name, d.unit, d.better, d.bound})
		}
		if !reflect.DeepEqual(got, w) {
			t.Errorf("%s metrics differ:\n json    %+v\n program %+v", kind, got, w)
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	if float64(doc.RunSeconds) != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %v", doc.RunSeconds, defaultSeconds)
	}
}

func TestSameSeedSameOpsDifferentSeedDifferentOps(t *testing.T) {
	for _, s := range specs {
		s = s.scaled(0.005)
		a, b, c := makePlan(s, 1, 12, s.rounds), makePlan(s, 1, 12, s.rounds), makePlan(s, 2, 12, s.rounds)
		if a.sha != b.sha || a.sha == c.sha {
			t.Errorf("%s: ops_sha256 seed 1 %s, seed 1 again %s, seed 2 %s", s.name, a.sha, b.sha, c.sha)
		}
	}
}

// The smoke run: every workload finishes in both modes at a tiny scale
// with correct outputs, emits every metric of its table exactly once
// under a well-formed name, writes its spans, and the ladder identity
// call_us_1c = rungs_us + transport_self_us holds.
func TestSmokeAllWorkloadsBothModes(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers and runs every workload")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	dir := t.TempDir()
	opt := options{seed: 1, seconds: defaultSeconds, scale: 0.005, traceOut: filepath.Join(dir, "spans-{workload}.jsonl")}
	for _, s := range specs {
		for _, traced := range []bool{false, true} {
			rep, err := run(s, traced, opt)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", s.name, traced, err)
			}
			if !rep.correct() || rep.attempted == 0 {
				t.Errorf("%s traced=%v: attempted %d failed %d problems %v", s.name, traced, rep.attempted, rep.failed, rep.problems)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(rep.metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics emitted, table has %d", s.name, traced, len(rep.metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := rep.metrics[d.name]
				if !ok || !name.MatchString(d.name) || math.IsNaN(v.v) || math.IsInf(v.v, 0) {
					t.Errorf("%s: metric %q emitted=%v value=%v", s.name, d.name, ok, v.v)
				}
				if !traced && v.v <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, must never be 0", s.name, d.name, v.v)
				}
			}
			if !traced {
				continue
			}
			m := rep.metrics
			if got := m["tcpkv.rungs_us"].v + m["tcpkv.transport_self_us"].v; math.Abs(got-m["tcpkv.call_us_1c"].v) > 1e-9 {
				t.Errorf("%s: rungs + transport self = %v, call_us_1c = %v", s.name, got, m["tcpkv.call_us_1c"].v)
			}
			if s.replicas < 2 && m["repl.appends_per_put"].v != 0 {
				t.Errorf("%s: %v mirror appends per put on an unreplicated workload", s.name, m["repl.appends_per_put"].v)
			}
			if st, err := os.Stat(filepath.Join(dir, "spans-"+s.name+".jsonl")); err != nil || st.Size() == 0 {
				t.Errorf("%s: spans file missing or empty: %v", s.name, err)
			}
		}
	}
}
