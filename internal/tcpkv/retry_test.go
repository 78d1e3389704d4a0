package tcpkv

import (
	"errors"
	"fmt"
	"os"
	"testing"
	"time"

	"efactory/internal/fault"
	"efactory/internal/nvm"
)

// TestDroppedFramesSurfaceWithoutRetry pins the negative control: with
// every response frame dropped, the client's one attempt fails with a
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

// TestClientTimeoutRecoversFromStalledRead: every third READ the server
// serves stalls longer than the per-attempt deadline fixed at dial. The stalled
// Get must fail with a deadline expiry in bounded time, and recovery is a
// freshly dialed client, which completes on a non-stalled attempt. (The
// period is coprime with the two reads a hybrid GET issues, so the stall
// drifts across attempts instead of pinning the same read every time.)
func TestClientTimeoutRecoversFromStalledRead(t *testing.T) {
	const timeout = 40 * time.Millisecond // well under StallFor
	cfg := smallConfig()
	cfg.NetFaults = &fault.NetPlan{StallEvery: 3, StallFor: 150 * time.Millisecond}
	_, addr := startServer(t, nvm.New(cfg.DeviceSize()), cfg)
	redial := func() *Client {
		t.Helper()
		cl, err := dial(addr, timeout)
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}
	cl := redial()
	defer func() { cl.Close() }()

	// Recovery is the caller's: after a deadline expiry, a fresh client.
	timeouts := 0
	try := func(what string, op func(c *Client) error) {
		t.Helper()
		for attempt := 1; ; attempt++ {
			start := time.Now()
			err := op(cl)
			if err == nil {
				return
			}
			if !errors.Is(err, os.ErrDeadlineExceeded) || attempt == 8 {
				t.Fatalf("%s attempt %d: %v", what, attempt, err)
			}
			if d := time.Since(start); d > 20*timeout {
				t.Fatalf("%s: the deadline fired after %v, timeout is %v", what, d, timeout)
			}
			timeouts++
			cl.Close()
			cl = redial()
		}
	}
	for i := 0; i < 8; i++ {
		key := []byte(fmt.Sprintf("stall-%02d", i))
		val := []byte(fmt.Sprintf("value-%02d", i))
		try("put "+string(key), func(c *Client) error { return c.Put(key, val) })
		try("get "+string(key), func(c *Client) error {
			got, err := c.Get(key)
			if err == nil && string(got) != string(val) {
				t.Fatalf("get %s: got %q want %q", key, got, val)
			}
			return err
		})
	}
	if timeouts == 0 {
		t.Fatal("stall schedule never triggered a timeout")
	}
}

// TestOneSidedTimeoutDoesNotServeStaleReply: a READ burst that times out
// leaves its reply in flight. The client never redials, so its next burst
// must not read it as its own: the timed-out connection is closed, so the
// next Get fails (or reads fresh) instead of returning the value the
// stale reply describes.
func TestOneSidedTimeoutDoesNotServeStaleReply(t *testing.T) {
	const stall = 200 * time.Millisecond
	cfg := smallConfig()
	cfg.NetFaults = &fault.NetPlan{StallEvery: 3, StallFor: stall}
	srv, addr := startServer(t, nvm.New(cfg.DeviceSize()), cfg)
	cl, err := dial(addr, stall/2)
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
	// A fresh client reads the current value.
	if got, err := writer.Get(key); err != nil || string(got) != "value-2" {
		t.Fatalf("Get on a fresh client = %q, %v; want value-2", got, err)
	}
}

// TestDeleteRetryRule pins the at-least-once DELETE rule encoded once in
// delRetryState and shared by Client.Delete and the routed client's
// cross-failover re-route: a fresh state surfaces
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

// TestCloseIsFinal: an op issued after Close fails. A closed client must
// stay closed — the peer table drops a failed connection by closing it,
// and a client that came back to life would leave a live connection no
// table owns.
func TestCloseIsFinal(t *testing.T) {
	cfg := smallConfig()
	_, addr := startServer(t, nvm.New(cfg.DeviceSize()), cfg)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
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
}
