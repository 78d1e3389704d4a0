package trace

import (
	"strings"
	"testing"
)

func TestSamplingCadence(t *testing.T) {
	tr := NewTracer(1, 4, 0)
	var ids []uint64
	for i := 0; i < 16; i++ {
		if id := tr.Sample(); id != 0 {
			ids = append(ids, id)
		}
	}
	if len(ids) != 4 {
		t.Fatalf("1-in-4 sampling over 16 ticks yielded %d ids, want 4", len(ids))
	}
	seen := map[uint64]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate trace id %x", id)
		}
		seen[id] = true
	}
	if NewTracer(1, 0, 0).Sample() != 0 {
		t.Fatal("sampleEvery=0 must never sample")
	}
	var nilT *Tracer
	if nilT.Sample() != 0 || nilT.Mint() != 0 {
		t.Fatal("nil tracer must mint nothing")
	}
}

func TestMintBypassesCadence(t *testing.T) {
	tr := NewTracer(1, 0, 0)
	if tr.Mint() == 0 {
		t.Fatal("Mint on a non-sampling tracer returned 0")
	}
	if tr.Mint() == tr.Mint() {
		t.Fatal("Mint returned duplicate ids")
	}
}

func TestTracersMintDisjointIDs(t *testing.T) {
	a, b := NewTracer(1, 1, 0), NewTracer(2, 1, 0)
	if a.Sample() == b.Sample() {
		t.Fatal("two tracers minted the same id")
	}
}

func TestNilCtxIsInert(t *testing.T) {
	var c *Ctx
	if c != NewCtx(0) {
		t.Fatal("NewCtx(0) must be nil")
	}
	c.Root("r", 1, 2)
	c.Add("x", 1, 2)
	c.SetRoot(3, "ok", 4)
	c.Mark("error")
	c.Stamp("i", 1)
	if c.ID() != 0 || c.Spans() != nil {
		t.Fatal("nil ctx leaked state")
	}
}

func TestCtxSpanTree(t *testing.T) {
	c := NewCtx(7)
	root := c.Root("get", 100, 0)
	child := c.Add("entry_probe", 110, 150)
	c.SetRoot(200, "ok", 0xbeef)
	spans := c.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].ID != root || spans[0].EndNS != 200 || spans[0].Outcome != "ok" || spans[0].KeyHash != 0xbeef {
		t.Fatalf("root span not retro-filled: %+v", spans[0])
	}
	if spans[1].ID != child || spans[1].Parent != root {
		t.Fatalf("child span not parented to root: %+v", spans[1])
	}
	for _, s := range spans {
		if s.Trace != 7 {
			t.Fatalf("span missing trace id: %+v", s)
		}
	}
}

func TestStampFillsOnlyEmpty(t *testing.T) {
	c := NewCtx(1)
	c.Root("r", 0, 1)
	c.AddSpan(Span{Name: "engine", Instance: "shard-host", Epoch: 3, StartNS: 0, EndNS: 1})
	c.Stamp("a", 9)
	spans := c.Spans()
	if spans[0].Instance != "a" || spans[0].Epoch != 9 {
		t.Fatalf("unstamped span not filled: %+v", spans[0])
	}
	if spans[1].Instance != "shard-host" || spans[1].Epoch != 3 {
		t.Fatalf("stamped span overwritten: %+v", spans[1])
	}
}

func TestWrapUnwrap(t *testing.T) {
	type proc struct{ n int }
	p := &proc{1}
	if h := Wrap(p, nil); h != any(p) {
		t.Fatal("nil ctx must not wrap")
	}
	c := NewCtx(5)
	ph, tc := Unwrap(Wrap(p, c))
	if ph != any(p) || tc != c {
		t.Fatal("Unwrap lost the proc or ctx")
	}
	ph, tc = Unwrap(p)
	if ph != any(p) || tc != nil {
		t.Fatal("Unwrap of a bare handle changed it")
	}
}

// submit builds and submits one trace with the given root duration and
// mark, returning the tracer's retained count delta.
func submit(tr *Tracer, dur uint64, mark string) uint64 {
	before := tr.Retained()
	c := NewCtx(tr.Mint())
	c.Root("op", 0, dur)
	if mark != "" {
		c.Mark(mark)
	}
	tr.Submit(c, dur)
	return tr.Retained() - before
}

func TestTailRetentionRules(t *testing.T) {
	tr := NewTracer(1, 1, 1000)
	if submit(tr, 500, "") != 0 {
		t.Fatal("fast clean trace retained despite slow threshold")
	}
	if submit(tr, 1000, "") != 1 {
		t.Fatal("slow trace dropped")
	}
	for _, why := range []string{"error", "wrong_epoch", "migration"} {
		if submit(tr, 1, why) != 1 {
			t.Fatalf("marked (%s) fast trace dropped", why)
		}
	}
	all := NewTracer(1, 1, 0)
	if submit(all, 1, "") != 1 {
		t.Fatal("slowNS=0 must retain every sampled trace")
	}
	got := tr.Dump(0)
	if len(got) != 4 {
		t.Fatalf("dump returned %d traces, want 4", len(got))
	}
	wants := []string{"slow", "error", "wrong_epoch", "migration"}
	for i, tr := range got {
		if tr.Why != wants[i] {
			t.Fatalf("trace %d kept for %q, want %q", i, tr.Why, wants[i])
		}
	}
}

func TestRingBoundedAndOldestFirst(t *testing.T) {
	tr := NewTracer(1, 1, 0)
	var ids []uint64
	for i := 0; i < DefaultStoreCap+10; i++ {
		c := NewCtx(tr.Mint())
		c.Root("op", uint64(i), uint64(i)+1)
		ids = append(ids, c.TraceID)
		tr.Submit(c, 1)
	}
	got := tr.Dump(0)
	if len(got) != DefaultStoreCap {
		t.Fatalf("ring holds %d traces, want %d", len(got), DefaultStoreCap)
	}
	if got[0].ID != ids[10] || got[len(got)-1].ID != ids[len(ids)-1] {
		t.Fatal("ring did not evict oldest first")
	}
	if tr.Retained() != uint64(DefaultStoreCap+10) {
		t.Fatalf("retained total = %d", tr.Retained())
	}
	one := tr.Dump(ids[20])
	if len(one) != 1 || one[0].ID != ids[20] {
		t.Fatalf("id filter returned %d traces", len(one))
	}
}

func TestSpansForKey(t *testing.T) {
	tr := NewTracer(1, 1, 0)
	for i, kh := range []uint64{0xaa, 0xbb, 0xaa} {
		c := NewCtx(tr.Mint())
		c.Root("op", uint64(10*i), uint64(10*i)+5)
		c.SetRoot(0, "", kh)
		c.Add("child", uint64(10*i)+1, uint64(10*i)+2)
		tr.Submit(c, 5)
	}
	spans := tr.SpansForKey(0xaa)
	if len(spans) != 4 {
		t.Fatalf("got %d spans for key, want 4 (2 traces x 2 spans)", len(spans))
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].StartNS < spans[i-1].StartNS {
			t.Fatal("spans not sorted by start time")
		}
	}
	if tr.SpansForKey(0) != nil {
		t.Fatal("key hash 0 must match nothing")
	}
}

func TestTimelineRenders(t *testing.T) {
	c := NewCtx(0x42)
	c.Root("get", 1000, 2000)
	c.SetRoot(2000, "ok", 0xfeed)
	c.Add("entry_probe", 1100, 1200)
	out := Timeline(c.Spans())
	for _, want := range []string{"trace 42", "get", "entry_probe", "+0ns..+1000ns", "outcome=ok", "key=feed", "client"} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline missing %q:\n%s", want, out)
		}
	}
	if Timeline(nil) != "(no retained spans)" {
		t.Fatal("empty timeline placeholder changed")
	}
}
