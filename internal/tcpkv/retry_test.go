package tcpkv

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"efactory/internal/fault"
	"efactory/internal/nvm"
)

// TestDroppedFramesSurfaceWithoutRetry pins the negative control: with
// response-frame drops injected and no retry policy, ops fail with a
// transient transport error (not a protocol outcome).
func TestDroppedFramesSurfaceWithoutRetry(t *testing.T) {
	cfg := smallConfig()
	cfg.NetFaults = &fault.NetPlan{DropEvery: 1, PartialFrame: true} // every response lost
	_, addr := startServer(t, nvm.New(cfg.DeviceSize()), cfg)
	cl, err := Dial(addr)
	if err == nil {
		// The handshake itself may survive only if its frame was not the
		// dropped one; with DropEvery=1 it never is, so Dial should fail.
		cl.Close()
		t.Fatal("Dial succeeded though every response frame is dropped")
	}
	if !transient(err) {
		t.Fatalf("expected a transient transport error, got %v", err)
	}
}

// TestClientRetriesThroughDrops is the satellite's core check: with every
// third response frame dropped (leaking a truncated prefix, so the client
// sees torn frames, not clean EOFs), a retrying client completes a full
// PUT/GET/DEL workload correctly.
func TestClientRetriesThroughDrops(t *testing.T) {
	cfg := smallConfig()
	cfg.NetFaults = &fault.NetPlan{DropEvery: 3, PartialFrame: true}
	_, addr := startServer(t, nvm.New(cfg.DeviceSize()), cfg)

	// Dial itself needs luck with DropEvery=3: retry it like an op.
	var cl *Client
	var err error
	for attempt := 0; attempt < 5; attempt++ {
		cl, err = Dial(addr)
		if err == nil {
			break
		}
	}
	if err != nil {
		t.Fatalf("dial never survived the drop schedule: %v", err)
	}
	defer cl.Close()
	cl.SetRetryPolicy(RetryPolicy{
		Attempts:   6,
		Backoff:    500 * time.Microsecond,
		MaxBackoff: 4 * time.Millisecond,
		Timeout:    2 * time.Second,
	})

	for i := 0; i < 25; i++ {
		key := []byte(fmt.Sprintf("retry-%02d", i))
		val := []byte(fmt.Sprintf("value-%02d", i))
		if err := cl.Put(key, val); err != nil {
			t.Fatalf("put %s: %v", key, err)
		}
		got, err := cl.Get(key)
		if err != nil {
			t.Fatalf("get %s: %v", key, err)
		}
		if string(got) != string(val) {
			t.Fatalf("get %s: got %q want %q", key, got, val)
		}
	}
	for i := 0; i < 25; i += 3 {
		key := []byte(fmt.Sprintf("retry-%02d", i))
		if err := cl.Delete(key); err != nil {
			t.Fatalf("delete %s: %v", key, err)
		}
		if _, err := cl.Get(key); !errors.Is(err, ErrNotFound) {
			t.Fatalf("get after delete %s: %v", key, err)
		}
	}
	if cl.Retries == 0 || cl.Reconnects == 0 {
		t.Fatalf("fault schedule never exercised the retry path: retries=%d reconnects=%d", cl.Retries, cl.Reconnects)
	}
}

// TestClientTimeoutRecoversFromStalledRead: every third one-sided read
// stalls longer than the per-attempt deadline; the client must time out,
// reconnect, and complete on a non-stalled attempt. (The period is
// coprime with the two reads a hybrid GET issues, so the stall drifts
// across attempts instead of pinning the same read every time.)
func TestClientTimeoutRecoversFromStalledRead(t *testing.T) {
	cfg := smallConfig()
	cfg.NetFaults = &fault.NetPlan{StallEvery: 3, StallFor: 150 * time.Millisecond}
	_, addr := startServer(t, nvm.New(cfg.DeviceSize()), cfg)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetRetryPolicy(RetryPolicy{
		Attempts: 8,
		Backoff:  500 * time.Microsecond,
		Timeout:  40 * time.Millisecond, // well under StallFor
	})

	for i := 0; i < 8; i++ {
		key := []byte(fmt.Sprintf("stall-%02d", i))
		val := []byte(fmt.Sprintf("value-%02d", i))
		if err := cl.Put(key, val); err != nil {
			t.Fatalf("put %s: %v", key, err)
		}
		got, err := cl.Get(key)
		if err != nil {
			t.Fatalf("get %s: %v", key, err)
		}
		if string(got) != string(val) {
			t.Fatalf("get %s: got %q want %q", key, got, val)
		}
	}
	if cl.Retries == 0 {
		t.Fatal("stall schedule never triggered a timeout retry")
	}
}

// TestOneSidedTimeoutDoesNotServeStaleReply: a one-sided burst that times
// out leaves its replies in flight. With no retry left to redial, the
// client's next burst must not read them as its own: the timed-out
// connection is closed, so the next Get fails (or reads fresh) instead of
// returning the value the stale replies describe.
func TestOneSidedTimeoutDoesNotServeStaleReply(t *testing.T) {
	const stall = 200 * time.Millisecond
	cfg := smallConfig()
	cfg.NetFaults = &fault.NetPlan{StallEvery: 3, StallFor: stall}
	srv, addr := startServer(t, nvm.New(cfg.DeviceSize()), cfg)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	key := []byte("k")
	if err := cl.Put(key, []byte("value-1")); err != nil {
		t.Fatal(err)
	}
	waitDurable(t, srv)
	// One-sided reads 1 and 2: the probe walk, which teaches the hint.
	if got, err := cl.Get(key); err != nil || string(got) != "value-1" {
		t.Fatalf("first Get = %q, %v", got, err)
	}
	// Reads 3 and 4: the hinted burst; read 3 stalls past the deadline.
	cl.SetRetryPolicy(RetryPolicy{Attempts: 1, Timeout: 50 * time.Millisecond})
	if got, err := cl.Get(key); err == nil {
		t.Fatalf("stalled Get = %q, want a deadline error", got)
	}
	// Past the stall the server reads value-1's entry and object and sends
	// them; only then is the key overwritten.
	time.Sleep(stall)
	writer, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	if err := writer.Put(key, []byte("value-2")); err != nil {
		t.Fatal(err)
	}
	waitDurable(t, srv)
	if got, err := cl.Get(key); err == nil && string(got) != "value-2" {
		t.Fatalf("Get after the timeout = %q, want value-2 or an error", got)
	}
	// A retry redials and reads the current value.
	cl.SetRetryPolicy(RetryPolicy{Attempts: 2, Timeout: 2 * time.Second})
	if got, err := cl.Get(key); err != nil || string(got) != "value-2" {
		t.Fatalf("Get with a retry = %q, %v; want value-2", got, err)
	}
}

// TestDeleteRetryRule pins the at-least-once DELETE rule encoded once in
// delRetryState and shared by the single-connection retry loop and the
// routed client's cross-failover re-route: a fresh state surfaces
// not-found as ErrNotFound; once any attempt's outcome is unknown (the
// delete may have applied server-side), not-found maps to success — and
// the rule stays sticky across however many further attempts follow,
// including attempts against a different instance after a failover.
func TestDeleteRetryRule(t *testing.T) {
	var st delRetryState
	if err := st.mapNotFound(); !errors.Is(err, ErrNotFound) {
		t.Fatalf("fresh state must surface ErrNotFound, got %v", err)
	}
	st.noteUnknown()
	if err := st.mapNotFound(); err != nil {
		t.Fatalf("unknown outcome must map not-found to success, got %v", err)
	}
	if err := st.mapNotFound(); err != nil {
		t.Fatalf("rule must stay sticky across later attempts, got %v", err)
	}
}

// TestCloseIsFinal: an op issued after Close fails instead of redialing
// under the retry policy. A closed client must stay closed — the routed
// client's connection table drops a failed connection by closing it, and
// a retry that reconnected would leave two live connections no table
// owns.
func TestCloseIsFinal(t *testing.T) {
	cfg := smallConfig()
	_, addr := startServer(t, nvm.New(cfg.DeviceSize()), cfg)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	cl.SetRetryPolicy(DefaultRetryPolicy())
	if err := cl.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	if v, err := cl.Get([]byte("k")); err == nil {
		t.Fatalf("Get after Close = %q, want an error", v)
	}
	if err := cl.Put([]byte("k"), []byte("w")); err == nil {
		t.Fatal("Put after Close succeeded")
	}
	if cl.Reconnects != 0 {
		t.Fatalf("a closed client reconnected %d times", cl.Reconnects)
	}
}
