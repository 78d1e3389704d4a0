// Package modelcheck pins the transports to a trivially correct model: a
// seeded generator produces mixed workloads (single and batched ops,
// duplicate keys, a spread of value sizes) that are replayed op-by-op
// against a real client/server pair and an in-memory map oracle in
// lockstep. Any divergence — wrong value, wrong error, a batched op
// disagreeing with its single-op equivalent — fails with the op index and
// the seed, which replays the exact workload.
//
// The package itself is transport-agnostic and test-framework-free: the
// sim and TCP suites adapt their clients to the KV interface and call
// Diff. Because every keyed decision comes from the seeded generator, a
// reported failure is deterministic on the simulated transport and
// near-deterministic on TCP (background timing may shift which internal
// path served a read, but never its result — that is the property under
// test).
package modelcheck

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"

	"efactory/internal/client"
)

// KV is the op surface both transports share. Batched methods must return
// index-aligned results: entry i answers for keys[i].
type KV interface {
	Put(key, value []byte) error
	Get(key []byte) ([]byte, error)
	Delete(key []byte) error
	PutBatch(keys, values [][]byte) []error
	GetBatch(keys [][]byte) ([][]byte, []error)
}

// OpKind enumerates generated operations.
type OpKind int

const (
	OpPut OpKind = iota
	OpGet
	OpDelete
	OpPutBatch
	OpGetBatch
)

func (k OpKind) String() string {
	switch k {
	case OpPut:
		return "put"
	case OpGet:
		return "get"
	case OpDelete:
		return "delete"
	case OpPutBatch:
		return "put-batch"
	case OpGetBatch:
		return "get-batch"
	case OpTxnCommit:
		return "txn-commit"
	case OpTxnRead:
		return "txn-read"
	}
	return fmt.Sprintf("op(%d)", int(k))
}

// Op is one generated operation. Single-key ops use Keys[0] (and Vals[0]
// for puts); batched ops carry the whole batch, duplicates included.
type Op struct {
	Kind OpKind
	Keys [][]byte
	Vals [][]byte
}

// valueSizes is the generated value-length spread: mostly small (the
// paper's workloads), with occasional multi-KB objects so header+value
// framing, CRC coverage, and pool allocation all see both regimes.
var valueSizes = []int{1, 5, 16, 47, 100, 256, 900, 2048}

// Gen produces n operations from seed. The key space is deliberately tiny
// (64 keys) so overwrites, deletes of live keys, and duplicate keys within
// one batch all happen constantly — the regimes where a cached location or
// a batched lookup could plausibly go stale or cross wires.
func Gen(seed uint64, n int) []Op {
	rng := rand.New(rand.NewSource(int64(seed)))
	key := func() []byte {
		return []byte(fmt.Sprintf("mc-key-%03d", rng.Intn(64)))
	}
	val := func() []byte {
		size := valueSizes[rng.Intn(len(valueSizes))]
		v := make([]byte, size)
		for i := range v {
			v[i] = byte(rng.Intn(256))
		}
		return v
	}
	ops := make([]Op, 0, n)
	for len(ops) < n {
		var op Op
		switch r := rng.Intn(100); {
		case r < 30:
			op = Op{Kind: OpPut, Keys: [][]byte{key()}, Vals: [][]byte{val()}}
		case r < 55:
			op = Op{Kind: OpGet, Keys: [][]byte{key()}}
		case r < 65:
			op = Op{Kind: OpDelete, Keys: [][]byte{key()}}
		case r < 80:
			m := 1 + rng.Intn(8)
			op = Op{Kind: OpPutBatch}
			for j := 0; j < m; j++ {
				op.Keys = append(op.Keys, key())
				op.Vals = append(op.Vals, val())
			}
		default:
			m := 1 + rng.Intn(16)
			op = Op{Kind: OpGetBatch}
			for j := 0; j < m; j++ {
				op.Keys = append(op.Keys, key())
			}
		}
		ops = append(ops, op)
	}
	return ops
}

// Diff replays ops against kv and the map oracle in lockstep and returns
// an error describing the first divergence (nil if none). Absent keys must
// answer with the protocol core's sentinel (client.ErrNotFound, which both
// transports alias), matched with errors.Is.
func Diff(kv KV, ops []Op) error {
	return DiffSteps(kv, ops, nil)
}

// DiffSteps is Diff with a hook: step (when non-nil) runs before op i is
// replayed. Harnesses use it to fire external events — a shard
// migration, a cache flush — at deterministic op indices, so the replay
// exercises the event's before/during/after regimes under the same
// lockstep oracle.
func DiffSteps(kv KV, ops []Op, step func(i int)) error {
	oracle := make(map[string][]byte)
	for i, op := range ops {
		if step != nil {
			step(i)
		}
		if err := diffOne(kv, oracle, op); err != nil {
			return fmt.Errorf("op %d (%s): %w", i, op.Kind, err)
		}
	}
	return nil
}

// checkGetAgainst verifies one read result (val, err) for key against the
// model; shared by the single, batched, and transactional read checks.
func checkGetAgainst(oracle map[string][]byte, key, val []byte, err error) error {
	want, ok := oracle[string(key)]
	if !ok {
		if !errors.Is(err, client.ErrNotFound) {
			return fmt.Errorf("key %s: absent in model, got val=%q err=%v", key, val, err)
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("key %s: %w (model has %d bytes)", key, err, len(want))
	}
	if !bytes.Equal(val, want) {
		return fmt.Errorf("key %s: value diverged: got %d bytes %.32q, model %d bytes %.32q",
			key, len(val), val, len(want), want)
	}
	return nil
}

func diffOne(kv KV, oracle map[string][]byte, op Op) error {
	checkGet := func(key, val []byte, err error) error {
		return checkGetAgainst(oracle, key, val, err)
	}
	switch op.Kind {
	case OpPut:
		if err := kv.Put(op.Keys[0], op.Vals[0]); err != nil {
			return err
		}
		oracle[string(op.Keys[0])] = op.Vals[0]
	case OpGet:
		val, err := kv.Get(op.Keys[0])
		return checkGet(op.Keys[0], val, err)
	case OpDelete:
		err := kv.Delete(op.Keys[0])
		if _, ok := oracle[string(op.Keys[0])]; !ok {
			if !errors.Is(err, client.ErrNotFound) {
				return fmt.Errorf("key %s: absent in model, delete err=%v", op.Keys[0], err)
			}
			return nil
		}
		if err != nil {
			return fmt.Errorf("key %s: delete of live key: %w", op.Keys[0], err)
		}
		delete(oracle, string(op.Keys[0]))
	case OpPutBatch:
		errs := kv.PutBatch(op.Keys, op.Vals)
		if len(errs) != len(op.Keys) {
			return fmt.Errorf("put batch returned %d errs for %d ops", len(errs), len(op.Keys))
		}
		for j, err := range errs {
			if err != nil {
				return fmt.Errorf("batch index %d key %s: %w", j, op.Keys[j], err)
			}
			// In-order application: a duplicate key's later entry wins.
			oracle[string(op.Keys[j])] = op.Vals[j]
		}
	case OpGetBatch:
		vals, errs := kv.GetBatch(op.Keys)
		if len(vals) != len(op.Keys) || len(errs) != len(op.Keys) {
			return fmt.Errorf("get batch returned %d/%d results for %d keys", len(vals), len(errs), len(op.Keys))
		}
		for j := range op.Keys {
			if err := checkGet(op.Keys[j], vals[j], errs[j]); err != nil {
				return fmt.Errorf("batch index %d: %w", j, err)
			}
		}
	default:
		return fmt.Errorf("unknown op kind %d", op.Kind)
	}
	return nil
}
