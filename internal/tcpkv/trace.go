package tcpkv

import (
	"encoding/json"
	"fmt"
	"time"

	"efactory/internal/client"
	"efactory/internal/trace"
	"efactory/internal/wire"
)

// EnableTracing samples 1-in-sampleEvery of this client's ops into
// propagated request traces on the wall clock (see
// client.Core.EnableTracing); the trace ID rides the frame trailer.
// sampleEvery <= 0 disables tracing (the default). Configure before
// issuing concurrent ops, like SetHybridRead.
func (c *Client) EnableTracing(sampleEvery int, slowNS uint64) {
	c.core.EnableTracing(sampleEvery, slowNS)
}

// Tracer returns the client's retained-trace store (nil when tracing
// was never enabled).
func (c *Client) Tracer() *trace.Tracer { return c.core.Tracer() }

// SetTraceRetention replaces the server's retained-trace store with one
// that tail-keeps only traces whose root section ran at least slowNS
// (marked traces — error, wrong-epoch, migration — are kept regardless;
// 0 keeps every submitted trace). Call before Serve.
func (s *Server) SetTraceRetention(slowNS uint64) {
	s.tracer = trace.NewTracer(0, slowNS)
}

// wallClock is the trace clock of ops traced above a single connection
// (ClusterClient's routed ops).
type wallClock struct{}

func (wallClock) Now() uint64 { return uint64(time.Now().UnixNano()) }

// traceNow reads the wall clock only for traced ops, so the untraced
// path never pays the syscall.
func traceNow(tc *trace.Ctx) uint64 {
	if tc == nil {
		return 0
	}
	return wallClock{}.Now()
}

// beginOp and endOp bracket one routed op's root span on the wall clock
// (see client.BeginOp, client.EndOp).
func beginOp(t *trace.Tracer, name string, keyHash uint64) (*trace.Ctx, uint64) {
	return client.BeginOp(t, wallClock{}, name, keyHash)
}

func endOp(t *trace.Tracer, tc *trace.Ctx, t0 uint64, err error) {
	client.EndOp(t, wallClock{}, tc, t0, err)
}

// TraceDump fetches the server's retained traces over the TTraceDump
// RPC. id filters to one trace (0 = all).
func (c *Client) TraceDump(id uint64) ([]trace.Trace, error) {
	resp, err := c.rpc(wire.Msg{Type: wire.TTraceDump, Off: id})
	if err != nil {
		return nil, err
	}
	if resp.Status != wire.StOK {
		return nil, fmt.Errorf("tcpkv: trace dump status %d", resp.Status)
	}
	var ts []trace.Trace
	if err := json.Unmarshal(resp.Value, &ts); err != nil {
		return nil, fmt.Errorf("tcpkv: trace dump decode: %w", err)
	}
	return ts, nil
}
