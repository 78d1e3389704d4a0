package tcpkv

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"efactory/internal/cluster"
	"efactory/internal/nvm"
)

// TestRoutedGetBatchSingleTraceAcrossInstances is the cluster tracing
// acceptance test: a routed multi-GET whose keys live on two instances
// must produce ONE client trace whose ID is retained by BOTH servers —
// the ID rides each per-instance TGetBatch frame, every server opens its
// own root span under it, and the TTraceDump RPC surfaces the joined
// picture, with spans stamped by the instance that recorded them.
func TestRoutedGetBatchSingleTraceAcrossInstances(t *testing.T) {
	cfg := clusterTestConfig()
	srvA, addrA := startClusterServer(t, "a", 4, cfg)
	srvB, addrB := startClusterServer(t, "b", 0, cfg)
	joinInstance(t, addrA, srvB)
	if _, err := srvA.MigratePG(1, "b"); err != nil {
		t.Fatalf("migrate: %v", err)
	}

	cc, err := DialCluster(addrA, DefaultClusterClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	cc.EnableTracing(1, 0)

	// Pick keys until the batch spans both instances.
	var keys [][]byte
	haveA, haveB := 0, 0
	for i := 0; len(keys) < 8 || haveA == 0 || haveB == 0; i++ {
		if i > 4096 {
			t.Fatal("could not find keys for both instances")
		}
		k := []byte(fmt.Sprintf("span-key-%04d", i))
		if cluster.PGForKey(k, 4) == 1 {
			haveB++
		} else {
			haveA++
		}
		keys = append(keys, k)
	}
	for i, k := range keys {
		if err := cc.Put(k, []byte(fmt.Sprintf("val-%04d", i))); err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
	}
	// The stored keys may all be served one-sidedly. Two absent keys per
	// instance force each server round, and make it a TGetBatch however
	// many stored keys join it (a round of one key asks with TGet): a
	// clustered client must confirm absence with the key's owner.
	var absent [][]byte
	onB := map[bool]int{}
	for i := 0; len(absent) < 4; i++ {
		k := []byte(fmt.Sprintf("span-absent-%04d", i))
		if b := cluster.PGForKey(k, 4) == 1; onB[b] < 2 {
			onB[b]++
			absent = append(absent, k)
		}
	}
	_, errs := cc.GetBatch(append(keys, absent...))
	for i, err := range errs {
		if i < len(keys) && err != nil {
			t.Fatalf("getbatch key %s: %v", keys[i], err)
		}
		if i >= len(keys) && !errors.Is(err, ErrNotFound) {
			t.Fatalf("getbatch absent key %d: err = %v, want ErrNotFound", i-len(keys), err)
		}
	}

	// One client-side trace for the whole routed batch.
	var gbID uint64
	gbTraces := 0
	for _, tr := range cc.Tracer().Dump(0) {
		if len(tr.Spans) > 0 && tr.Spans[0].Name == "get_batch" {
			gbID = tr.ID
			gbTraces++
		}
	}
	if gbTraces != 1 {
		t.Fatalf("client retained %d get_batch traces, want 1", gbTraces)
	}

	// Both instances must have retained spans under the SAME trace ID,
	// each stamped with its own identity — fetched over the TTraceDump
	// RPC exactly as efactory-cli slow does.
	for name, addr := range map[string]string{"a": addrA, "b": addrB} {
		cl, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		trs, err := cl.TraceDump(gbID)
		cl.Close()
		if err != nil {
			t.Fatalf("trace dump from %s: %v", name, err)
		}
		if len(trs) == 0 {
			t.Fatalf("instance %s retained no spans for routed trace %x", name, gbID)
		}
		sawRoot := false
		for _, s := range trs[0].Spans {
			if s.Instance != name {
				t.Fatalf("instance %s span stamped %q: %+v", name, s.Instance, s)
			}
			if s.Name == "server_get_batch" {
				sawRoot = true
			}
		}
		if !sawRoot {
			t.Fatalf("instance %s has no server_get_batch root for trace %x: %+v", name, gbID, trs[0].Spans)
		}
	}
}

// TestServerTraceDumpEmptyWithoutTracing pins the untraced default: a
// client that never enabled tracing sends no trace IDs, so the server
// retains nothing.
func TestServerTraceDumpEmptyWithoutTracing(t *testing.T) {
	cfg := smallConfig()
	_, addr := startServer(t, nvm.New(cfg.DeviceSize()), cfg)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get([]byte("k")); err != nil {
		t.Fatal(err)
	}
	trs, err := cl.TraceDump(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(trs) != 0 {
		t.Fatalf("server retained %d traces from an untraced client", len(trs))
	}
}

// TestTracedRequestsTimeEverySection: on the wall clock the engine times
// one section in 64 of each kind, but every section of a traced request.
// A traced PUT records its alloc section, and a traced RPC GET (the
// verifier is parked, so the read verifies on demand) its lookup,
// get_scan, crc and flush sections, each as a span with a positive
// wall-clock duration; more than one sample period of requests runs.
func TestTracedRequestsTimeEverySection(t *testing.T) {
	cfg := smallConfig()
	cfg.disableBackground = true
	srv, addr := startServer(t, nvm.New(cfg.DeviceSize()), cfg)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.EnableTracing(1, 0)
	const keys = 100
	val := []byte("a traced value")
	for i := 0; i < keys; i++ {
		if err := cl.Put([]byte(fmt.Sprintf("traced-%03d", i)), val); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	for i := 0; i < keys; i++ {
		if _, err := cl.Get([]byte(fmt.Sprintf("traced-%03d", i))); err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
	}

	want := map[string][]string{
		"server_put": {"alloc"},
		"server_get": {"lookup", "get_scan", "crc", "flush"},
	}
	seen := map[string]int{}
	for _, tr := range srv.Tracer().Dump(0) {
		var root string
		got := map[string]bool{}
		for _, s := range tr.Spans {
			if strings.HasPrefix(s.Name, "server_") {
				root = s.Name
				continue
			}
			if s.EndNS <= s.StartNS {
				t.Fatalf("trace %x: %s span has no wall-clock duration: %+v", tr.ID, s.Name, s)
			}
			got[s.Name] = true
		}
		sections, ok := want[root]
		if !ok {
			continue
		}
		seen[root]++
		for _, name := range sections {
			if !got[name] {
				t.Fatalf("%s trace %x has no %s span: %+v", root, tr.ID, name, tr.Spans)
			}
		}
	}
	if seen["server_put"] != keys || seen["server_get"] != keys {
		t.Fatalf("server retained %d put and %d get traces, want %d each", seen["server_put"], seen["server_get"], keys)
	}
}
