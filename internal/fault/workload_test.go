package fault

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"efactory/internal/client"
)

// TestWorkloadIsPure: the schedule is a function of the Config alone.
func TestWorkloadIsPure(t *testing.T) {
	cfg := Config{Seed: 3, Ops: 150, GetBatch: true, Txn: true}
	if a, b := Workload(cfg), Workload(cfg); !reflect.DeepEqual(a, b) {
		t.Fatal("two Workload calls on one Config drew different schedules")
	}
	if a, b := Workload(cfg), Workload(Config{Seed: 4, Ops: 150, GetBatch: true, Txn: true}); reflect.DeepEqual(a, b) {
		t.Fatal("the seed does not reach the schedule")
	}
}

// TestWorkloadDigest pins the schedule draw for draw. The digests were
// taken from the six inline loops Workload replaced (recorded at their
// op sites, parent of the PR that introduced it), so they also prove the
// extraction changed nothing: the store/sim boundary counts and
// TestTCPTortureMidCleaningShutdown's seed-1 repro hang off this stream.
// Reordering two draws, or changing a draw's count for some kind, moves
// every digest.
func TestWorkloadDigest(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"plain", Config{Seed: 1}, "aefeefed2c839c2a109e80776f502f5430a929f77c9eb1c5f46fa49bd8554675"},
		{"getbatch", Config{Seed: 1, GetBatch: true}, "ca82203a46825f14c9bfcab3dbd79bd1b52988f7eb26dbd154f4ebdf49a3e0ca"},
		{"txn", Config{Seed: 1, Txn: true}, "23882cd8afbdbb6abb082fab224bde528bb7d7c2b05bf692e8c4f12f52f98202"},
		// Both legs on, fewer keys than TxnMaxOps: the commit-width clamp.
		{"both-3keys", Config{Seed: 7, Ops: 333, Keys: 3, GetBatch: true, Txn: true}, "046464686200da4f7a2d6a7bbd669548d44f90246473be205defc00546bb96dc"},
	} {
		h := sha256.New()
		for _, op := range Workload(tc.cfg) {
			fmt.Fprintf(h, "%d|%q|%q\n", op.Kind, op.Keys, op.Vals)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != tc.want {
			t.Errorf("%s: schedule digest %s, want %s", tc.name, got, tc.want)
		}
	}
}

// fakeTarget is a scripted Target: every op returns err, the target dies
// while its first op is in flight when dieInFlight is set, and reads serve
// the queued values (the last one repeating).
type fakeTarget struct {
	err         error
	dieInFlight bool
	dead        bool
	reads       []string
	issued      int
}

func (f *fakeTarget) Tick(int)   {}
func (f *fakeTarget) Dead() bool { return f.dead }

func (f *fakeTarget) op() error {
	f.issued++
	f.dead = f.dead || f.dieInFlight
	return f.err
}

func (f *fakeTarget) read(n int) ([][]byte, []error) {
	vals, errs := make([][]byte, n), make([]error, n)
	for i := range vals {
		vals[i], errs[i] = []byte(f.reads[0]), f.err
		if len(f.reads) > 1 {
			f.reads = f.reads[1:]
		}
	}
	return vals, errs
}

func (f *fakeTarget) Put(k, v []byte) error     { return f.op() }
func (f *fakeTarget) TornPut(k, v []byte) error { return f.op() }
func (f *fakeTarget) Delete(k []byte) error     { return f.op() }
func (f *fakeTarget) Get(k []byte) ([]byte, error) {
	f.op()
	vals, errs := f.read(1)
	return vals[0], errs[0]
}
func (f *fakeTarget) GetBatch(keys [][]byte) ([][]byte, []error) { f.op(); return f.read(len(keys)) }
func (f *fakeTarget) TxnRead(keys [][]byte) ([][]byte, []error)  { f.op(); return f.read(len(keys)) }
func (f *fakeTarget) TxnCommit(keys, vals [][]byte) (uint64, []error) {
	errs := make([]error, len(keys))
	for i := range errs {
		errs[i] = f.err
	}
	f.op()
	return 7, errs
}

// records renders what the driver wrote into o beyond the seeded first
// PUT of every key, in key order.
func records(o *Oracle) string {
	var out []string
	for _, k := range o.Keys() {
		h := o.keys[k]
		for _, ev := range h.events[1:] {
			kind := map[evKind]string{evPut: "put", evDurable: "seen", evDel: "del"}[ev.kind]
			if ev.kind == evPut && !ev.complete {
				kind = "torn"
			}
			out = append(out, strings.TrimSuffix(fmt.Sprintf("%s:%s=%s", k, kind, ev.value), "="))
		}
		for _, v := range h.pendingPut {
			out = append(out, fmt.Sprintf("%s:pending-put=%s", k, v))
		}
		if h.pendingDel {
			out = append(out, k+":pending-del")
		}
	}
	for _, g := range o.txns {
		out = append(out, fmt.Sprintf("txn%d:acked=%v", g.id, g.acked))
	}
	return strings.Join(out, " ")
}

// TestDriveAckedPendingRule pins the one rule, branch by branch: for each
// op kind and each way an op can end, exactly which oracle record the
// driver makes — and that nothing is issued or observed after death.
func TestDriveAckedPendingRule(t *testing.T) {
	ab := [][]byte{[]byte("a"), []byte("b")}
	kinds := []Op{
		{Kind: Put, Keys: ab[:1], Vals: [][]byte{[]byte("v")}},
		{Kind: TornPut, Keys: ab[:1], Vals: [][]byte{[]byte("v")}},
		{Kind: Get, Keys: ab[:1]},
		{Kind: GetBatch, Keys: ab},
		{Kind: Del, Keys: ab[:1]},
		{Kind: TxnCommit, Keys: ab, Vals: [][]byte{[]byte("va"), []byte("vb")}},
		{Kind: TxnRead, Keys: ab},
	}
	const (
		seenBoth    = "a:seen=seed b:seen=seed"
		txnAcked    = "a:put=va a:seen=va b:put=vb b:seen=vb txn7:acked=true"
		txnPending  = "a:pending-put=va b:pending-put=vb txn7:acked=false"
		pendingPutA = "a:pending-put=v"
	)
	boom := errors.New("boom")
	for _, sc := range []struct {
		name   string
		target fakeTarget
		want   [7]string // by Kind
	}{
		{"ok", fakeTarget{},
			[7]string{"a:put=v", "a:torn=v", "a:seen=seed", seenBoth, "a:del", txnAcked, seenBoth}},
		{"definite error", fakeTarget{err: boom},
			[7]string{}},
		{"died in flight", fakeTarget{err: boom, dieInFlight: true},
			[7]string{pendingPutA, pendingPutA, "", "", "a:pending-del", txnPending, ""}},
		{"died in flight, answered cleanly", fakeTarget{dieInFlight: true},
			[7]string{pendingPutA, pendingPutA, "", "", "a:pending-del", txnPending, ""}},
		{"died in flight, answered not-found", fakeTarget{err: fmt.Errorf("routed: %w", client.ErrNotFound), dieInFlight: true},
			[7]string{pendingPutA, pendingPutA, "", "", "", txnPending, ""}},
		{"dead before issue", fakeTarget{dead: true},
			[7]string{}},
	} {
		for _, op := range kinds {
			o := NewOracle()
			for _, k := range ab {
				o.PutAcked(k, []byte("seed"), true)
			}
			ft := sc.target
			ft.reads = []string{"seed"}
			ops, wantIssued := []Op{op}, 1
			if ft.dieInFlight || ft.dead {
				// A second op proves the driver stops at death.
				ops = append(ops, op)
				if ft.dead {
					wantIssued = 0
				}
			}
			if vs := Drive(&ft, o, ops, false); len(vs) != 0 {
				t.Errorf("%s/kind %d: live violations %v", sc.name, op.Kind, vs)
			}
			if ft.issued != wantIssued {
				t.Errorf("%s/kind %d: %d ops issued, want %d", sc.name, op.Kind, ft.issued, wantIssued)
			}
			want := sc.want[op.Kind]
			if got := records(o); got != want {
				t.Errorf("%s/kind %d: oracle records %q, want %q", sc.name, op.Kind, got, want)
			}
		}
	}
}

// TestDriveBatchObservation pins the sequentialBatch switch: a duplicate
// key served newer-then-older inside one batch is legal when the batch's
// reads are concurrent, and a regression when they resolve in order.
func TestDriveBatchObservation(t *testing.T) {
	k := []byte("k")
	script := []Op{
		{Kind: Put, Keys: [][]byte{k}, Vals: [][]byte{[]byte("v1")}},
		{Kind: Put, Keys: [][]byte{k}, Vals: [][]byte{[]byte("v2")}},
		{Kind: GetBatch, Keys: [][]byte{k, k}},
	}
	for _, sequential := range []bool{false, true} {
		vs := Drive(&fakeTarget{reads: []string{"v2", "v1"}}, NewOracle(), script, sequential)
		if got := len(vs) != 0; got != sequential {
			t.Errorf("sequentialBatch=%v: violations %v", sequential, vs)
		}
	}
}

// The planted-bug tests: the harness has to be able to FAIL. Each drives a
// target with one consistency bug through Drive + Check and requires a
// violation; the control shows the same script passes without the bug.
func TestPlantedBugsAreCaught(t *testing.T) {
	k := [][]byte{[]byte("k")}
	script := []Op{
		{Kind: Put, Keys: k, Vals: [][]byte{[]byte("v1")}},
		{Kind: Get, Keys: k},
		{Kind: Put, Keys: k, Vals: [][]byte{[]byte("v2")}},
		{Kind: Get, Keys: k},
		{Kind: Get, Keys: k},
	}
	recovered := func(v string) func(string) ([]byte, bool) {
		return func(string) ([]byte, bool) { return []byte(v), v != "" }
	}
	for _, tc := range []struct {
		name     string
		reads    []string // what the three GETs serve
		recovery string   // what "recovery" holds for k ("" = absent)
		want     string   // substring of the violation; "" = none
	}{
		{"control", []string{"v1", "v2", "v2"}, "v2", ""},
		{"serves an older value after a newer one", []string{"v1", "v2", "v1"}, "v2", "regressed"},
		{"loses an acked and observed value at recovery", []string{"v1", "v2", "v2"}, "", "observed-durable value lost"},
		{"recovers to a version older than the observed one", []string{"v1", "v2", "v2"}, "v1", "version regressed"},
	} {
		o := NewOracle()
		vs := Drive(&fakeTarget{reads: tc.reads}, o, script, false)
		vs = append(vs, o.Check(recovered(tc.recovery))...)
		switch {
		case tc.want == "" && len(vs) != 0:
			t.Errorf("%s: unexpected violations %v", tc.name, vs)
		case tc.want != "" && (len(vs) != 1 || !strings.Contains(vs[0], tc.want)):
			t.Errorf("%s: violations %v, want exactly one containing %q", tc.name, vs, tc.want)
		}
	}
}
