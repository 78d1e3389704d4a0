package modelcheck

import (
	"fmt"
	"math/rand"
)

// TxnKV extends KV with the transactional surface both transports share:
// all-or-nothing multi-key commits, and snapshot multi-key reads
// returning index-aligned per-key errors.
type TxnKV interface {
	KV
	TxnCommit(keys, vals [][]byte) (uint64, error)
	TxnRead(keys [][]byte) ([][]byte, []error)
}

// Transactional op kinds. They live outside Gen's vocabulary on purpose:
// existing workloads (and their seeds) stay bit-identical; GenTxn is the
// generator that produces these.
const (
	OpTxnCommit OpKind = iota + 100
	OpTxnRead
)

// txnKeys is the transactional key-space size. Smaller than Gen's 64 so
// commits constantly overwrite each other and collide with single-key
// traffic on the same keys.
const txnKeys = 48

// GenTxn produces n operations from seed: Gen's mixed single/batched
// vocabulary plus multi-key commits (2-4 distinct keys) and snapshot
// multi-key reads (duplicates allowed — a snapshot must answer them
// identically). Kept separate from Gen so non-transactional workloads
// never change shape under an existing seed.
func GenTxn(seed uint64, n int) []Op {
	rng := rand.New(rand.NewSource(int64(seed)))
	key := func() []byte {
		return []byte(fmt.Sprintf("mc-key-%03d", rng.Intn(txnKeys)))
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
		case r < 22:
			op = Op{Kind: OpPut, Keys: [][]byte{key()}, Vals: [][]byte{val()}}
		case r < 40:
			op = Op{Kind: OpGet, Keys: [][]byte{key()}}
		case r < 48:
			op = Op{Kind: OpDelete, Keys: [][]byte{key()}}
		case r < 58:
			m := 1 + rng.Intn(8)
			op = Op{Kind: OpPutBatch}
			for j := 0; j < m; j++ {
				op.Keys = append(op.Keys, key())
				op.Vals = append(op.Vals, val())
			}
		case r < 68:
			m := 1 + rng.Intn(16)
			op = Op{Kind: OpGetBatch}
			for j := 0; j < m; j++ {
				op.Keys = append(op.Keys, key())
			}
		case r < 86:
			// Commit keys must be distinct: a transaction stages one version
			// per key, so duplicates are the caller's bug, not a workload.
			m := 2 + rng.Intn(3)
			base := rng.Intn(txnKeys)
			op = Op{Kind: OpTxnCommit}
			for j := 0; j < m; j++ {
				op.Keys = append(op.Keys, []byte(fmt.Sprintf("mc-key-%03d", (base+j)%txnKeys)))
				op.Vals = append(op.Vals, val())
			}
		default:
			m := 1 + rng.Intn(6)
			op = Op{Kind: OpTxnRead}
			for j := 0; j < m; j++ {
				op.Keys = append(op.Keys, key())
			}
		}
		ops = append(ops, op)
	}
	return ops
}

// DiffTxn replays a GenTxn workload against kv and the map oracle in
// lockstep. Sequential replay makes the oracle a serializable-history
// check: every committed transaction is applied to the model whole, in
// commit order, and every snapshot read must equal the model exactly —
// observing a half-applied commit, a dead version, or a value newer than
// the cut all diverge from the map.
func DiffTxn(kv TxnKV, ops []Op) error {
	oracle := make(map[string][]byte)
	for i, op := range ops {
		if err := diffTxnOne(kv, oracle, op); err != nil {
			return fmt.Errorf("op %d (%s): %w", i, op.Kind, err)
		}
	}
	return nil
}

func diffTxnOne(kv TxnKV, oracle map[string][]byte, op Op) error {
	switch op.Kind {
	case OpTxnCommit:
		if _, err := kv.TxnCommit(op.Keys, op.Vals); err != nil {
			return fmt.Errorf("txn commit of %d keys: %w", len(op.Keys), err)
		}
		// All-or-nothing: the whole write set lands in the model together.
		for j := range op.Keys {
			oracle[string(op.Keys[j])] = op.Vals[j]
		}
	case OpTxnRead:
		vals, errs := kv.TxnRead(op.Keys)
		if len(vals) != len(op.Keys) || len(errs) != len(op.Keys) {
			return fmt.Errorf("txn read returned %d/%d results for %d keys", len(vals), len(errs), len(op.Keys))
		}
		for j := range op.Keys {
			if err := checkGetAgainst(oracle, op.Keys[j], vals[j], errs[j]); err != nil {
				return fmt.Errorf("txn index %d: %w", j, err)
			}
		}
	default:
		return diffOne(kv, oracle, op)
	}
	return nil
}
