package client

import (
	"fmt"

	"efactory/internal/crc"
	"efactory/internal/trace"
	"efactory/internal/wire"
)

// TxnCommit commits keys[i] -> vals[i] atomically: all ops become visible
// together or none do. The whole transaction travels in one RPC (values
// inline — staging is server-driven, so there is no one-sided write
// phase). It returns the transaction id; on failure no op was applied.
//
// Like every op, a commit whose attempt fails has an unknown outcome: a
// transport that retries it may apply the same transaction twice (same
// values, a fresh transaction id).
func (c *Core) TxnCommit(tc *trace.Ctx, keys, vals [][]byte) (uint64, error) {
	ops := make([]wire.TxnOp, len(keys))
	t := c.now(tc)
	for i := range keys {
		c.dropHint(keys[i])
		c.v.ChargeCRC(len(vals[i]))
		ops[i] = wire.TxnOp{Crc: crc.Checksum(vals[i]), Key: keys[i], Value: vals[i]}
	}
	tc.Add("client_crc", t, c.now(tc))
	t = c.now(tc)
	resp, buf, err := c.v.Call(wire.Msg{Type: wire.TTxnCommit, Value: wire.AppendTxnOps(nil, ops), Trace: tc.ID()})
	tc.Add("commit_rpc", t, c.now(tc))
	if err != nil {
		return 0, err
	}
	// The reply is the status and the id in Off; a payload (older
	// servers sent one status byte per op, all equal) is ignored.
	c.v.Release(buf)
	switch resp.Status {
	case wire.StOK:
	case wire.StFull:
		return 0, ErrServerFull
	default:
		return 0, ErrTxnAborted
	}
	return resp.Off, nil
}

// TxnRead snapshot-reads keys at one consistent cut across shards. vals
// and errs (len(keys) long) are filled in place: an absent key yields
// ErrNotFound for its index and a nil value; an attempt-level failure —
// also returned — is every key's error.
func (c *Core) TxnRead(tc *trace.Ctx, keys, vals [][]byte, errs []error) error {
	clear(vals)
	clear(errs)
	ops := make([]wire.GetOp, len(keys))
	for i, key := range keys {
		ops[i] = wire.GetOp{Slot: wire.NoSlot, Key: key}
	}
	t := c.now(tc)
	resp, buf, err := c.v.Call(wire.Msg{Type: wire.TTxnRead, Value: wire.AppendGetOps(nil, ops), Trace: tc.ID()})
	tc.Add("txn_read_rpc", t, c.now(tc))
	if err != nil {
		return failAll(errs, err)
	}
	defer c.v.Release(buf) // results alias buf until their values are copied out
	if resp.Status != wire.StOK {
		return failAll(errs, &StatusError{Op: "txn read", Status: resp.Status})
	}
	rs, err := wire.DecodeTxnResultsInto(resp.Value, nil)
	if err != nil || len(rs) != len(keys) {
		return failAll(errs, fmt.Errorf("efactory: malformed txn read response: %d results for %d keys: %v", len(rs), len(keys), err))
	}
	for i, r := range rs {
		switch r.Status {
		case wire.StOK:
			vals[i] = append([]byte(nil), r.Value...)
		case wire.StNotFound:
			errs[i] = ErrNotFound
		default:
			errs[i] = &StatusError{Op: "txn read op", Status: r.Status}
		}
	}
	return nil
}
