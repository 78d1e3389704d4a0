package tcpkv

import (
	"bytes"
	"fmt"
	"testing"

	"efactory/internal/client"
	"efactory/internal/fault"
)

// TestRoutedClientRetriesOnlyByRerouting pins that the route loop is the
// routed client's only retry: with response frames dropped on the owning
// instance, every routed Put, Get and Delete still succeeds, and each
// recovery is a map refetch and a fresh connection from the route loop —
// no per-instance client ever retries an op or redials in place.
func TestRoutedClientRetriesOnlyByRerouting(t *testing.T) {
	cfg := clusterTestConfig()
	cfg.NetFaults = &fault.NetPlan{DropEvery: 7}
	_, addr := startClusterServer(t, "a", 8, cfg)
	var cc *ClusterClient
	var err error
	for attempt := 0; attempt < 5; attempt++ { // the bootstrap fetch may meet a drop
		if cc, err = DialCluster(addr, DefaultClusterClientConfig()); err == nil {
			break
		}
	}
	if err != nil {
		t.Fatalf("DialCluster never survived the drop schedule: %v", err)
	}
	defer cc.Close()
	refreshes := cc.MapRefreshes
	for i := 0; i < 30; i++ {
		k, v := []byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%02d", i))
		if err := cc.Put(k, v); err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
		got, err := cc.Get(k)
		if err != nil || !bytes.Equal(got, v) {
			t.Fatalf("get %s = %q, %v; want %q", k, got, err, v)
		}
		if err := cc.Delete(k); err != nil {
			t.Fatalf("delete %s: %v", k, err)
		}
	}
	for name, c := range cc.Clients() {
		if c.Retries != 0 || c.Reconnects != 0 {
			t.Fatalf("instance %s's client retried in place: retries=%d reconnects=%d", name, c.Retries, c.Reconnects)
		}
	}
	if cc.MapRefreshes == refreshes {
		t.Fatal("no op ever met a dropped frame: the route loop never refetched the map")
	}
}

// TestRoutedOpAllocs gates the routed client's per-op allocations, counted
// across every goroutine (client and server): routed Put, Get, and 8-key
// PutBatch and GetBatch of 1 KiB values against a one-instance, 8-PG,
// 2-shard cluster. Before the route loops merged these cost 2, 19, 4 and
// 20. The one loop keeps its bookkeeping in pooled scratch, so what is
// left is the op's own: a Get's object slab, and a batch's result slices
// plus its group's gathered keys, values and results. A lone pipelined
// call arms no timer (three objects, which Put and PutBatch paid until
// the caller took to reading its own reply under a read deadline).
func TestRoutedOpAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is load-sensitive under -short")
	}
	if raceEnabled {
		t.Skip("the race runtime's own bookkeeping allocates per op")
	}
	srv, addr := startClusterServer(t, "a", 8, clusterTestConfig())
	cc, err := DialCluster(addr, DefaultClusterClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	keys, vals := benchKVs(8, 1024)
	settle := func() {
		t.Helper()
		for _, err := range cc.PutBatch(keys, vals) {
			if err != nil {
				t.Fatal(err)
			}
		}
		waitDurable(t, srv)
		for i := 0; i < 2; i++ { // hint every key
			if _, errs := cc.GetBatch(keys); client.FirstErr(errs) != nil {
				t.Fatal(client.FirstErr(errs))
			}
		}
	}
	settle()
	i := 0
	gates := []struct {
		name    string
		ceiling float64
		op      func() error
	}{
		{"Get", 1, func() error { _, err := cc.Get(keys[i%len(keys)]); return err }},
		{"GetBatch", 6, func() error { _, errs := cc.GetBatch(keys); return client.FirstErr(errs) }},
		{"Put", 0, func() error { return cc.Put(keys[i%len(keys)], vals[i%len(keys)]) }},
		{"PutBatch", 4, func() error { return client.FirstErr(cc.PutBatch(keys, vals)) }},
	}
	for _, g := range gates {
		for w := 0; w < 16; w++ { // warm the pools this op draws on
			if err := g.op(); err != nil {
				t.Fatalf("warm %s: %v", g.name, err)
			}
		}
		avg := testing.AllocsPerRun(200, func() {
			i++
			if err := g.op(); err != nil {
				t.Fatalf("%s: %v", g.name, err)
			}
		})
		t.Logf("routed %s: %.0f allocs/op (ceiling %.0f)", g.name, avg, g.ceiling)
		if avg > g.ceiling {
			t.Errorf("routed %s allocates %.0f/op, ceiling %.0f", g.name, avg, g.ceiling)
		}
	}
}
