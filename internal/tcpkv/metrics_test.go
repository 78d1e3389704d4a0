package tcpkv

import (
	"bytes"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"efactory/internal/nvm"
	"efactory/internal/obs"
)

// applyTraffic drives enough PUT/GET traffic through a client that every
// foreground histogram and the durability-lag machinery have data.
func applyTraffic(t *testing.T, cl *Client, n int) {
	t.Helper()
	val := bytes.Repeat([]byte{0xab}, 200)
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("m-%d", i%64))
		if err := cl.Put(key, val); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		if _, err := cl.Get(key); err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
	}
	// A DELETE always takes the RPC path, so the lookup section gets a
	// sample even when every GET above resolved purely one-sided (the
	// verifier can outpace a slow client, e.g. under the race detector).
	if err := cl.Put([]byte("m-del"), val); err != nil {
		t.Fatalf("put m-del: %v", err)
	}
	if err := cl.Delete([]byte("m-del")); err != nil {
		t.Fatalf("del m-del: %v", err)
	}
}

func TestMetricsRPC(t *testing.T) {
	cfg := smallConfig()
	cfg.Shards = 2
	srv, addr := startServer(t, nvm.New(cfg.DeviceSize()), cfg)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	applyTraffic(t, cl, 200)

	snap, err := cl.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Shards) != 2 {
		t.Fatalf("shards = %d, want 2", len(snap.Shards))
	}
	put := snap.MergedOp("put")
	if put.Count == 0 {
		t.Fatal("no put samples in wire snapshot")
	}
	// Over TCP the sink clock is the wall clock: whole-request latency
	// must be positive and ordered across quantiles.
	if !(put.Quantile(0.5) > 0 && put.Quantile(0.99) >= put.Quantile(0.5)) {
		t.Fatalf("put quantiles not sane: p50=%v p99=%v", put.Quantile(0.5), put.Quantile(0.99))
	}
	// GETs served over the RPC path time lookup sections too.
	if snap.MergedOp("lookup").Count == 0 {
		t.Fatal("no lookup samples in wire snapshot")
	}
	if _, ok := snap.GaugeValue("efactory_pool_occupancy"); !ok {
		t.Fatal("pool occupancy gauge missing")
	}
	if v, ok := snap.GaugeValue("efactory_pool_used_bytes"); !ok || v <= 0 {
		t.Fatalf("pool used bytes gauge = %v, %v", v, ok)
	}

	// The server-side registry agrees with what came over the wire.
	local := srv.Metrics().Snapshot()
	if local.MergedOp("put").Count < put.Count {
		t.Fatalf("server has fewer put samples (%d) than the wire snapshot (%d)",
			local.MergedOp("put").Count, put.Count)
	}
}

func TestMetricsHTTPEndpoint(t *testing.T) {
	cfg := smallConfig()
	cfg.disableBackground = true // park the verifier so durability lag stays visible
	srv, addr := startServer(t, nvm.New(cfg.DeviceSize()), cfg)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	applyTraffic(t, cl, 100)

	hs := httptest.NewServer(obs.Handler(srv.Metrics()))
	defer hs.Close()

	get := func(path string) string {
		resp, err := hs.Client().Get(hs.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	body := get("/metrics")
	for _, want := range []string{
		`efactory_op_latency_ns_bucket{shard="0",op="put",le="+Inf"}`,
		`efactory_op_latency_ns_count{shard="0",op="put"}`,
		`efactory_op_latency_ns_count{shard="0",op="lookup"}`,
		"efactory_durability_lag_bytes", "efactory_pool_occupancy",
		"efactory_ops_total",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
	// With the verifier parked, every written byte is unverified backlog.
	var lag float64
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, `efactory_durability_lag_bytes{shard="0"}`) {
			fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%g", &lag)
		}
	}
	if lag <= 0 {
		t.Fatalf("durability lag gauge = %g, want > 0 with the verifier parked", lag)
	}

	vars := get("/debug/vars")
	if !strings.Contains(vars, `"buckets_ns"`) || !strings.Contains(vars, `"put"`) {
		t.Fatalf("/debug/vars payload unexpected: %.120s", vars)
	}
	trace := get("/debug/trace")
	if !strings.Contains(trace, "[") {
		t.Fatalf("/debug/trace payload unexpected: %.120s", trace)
	}
}
