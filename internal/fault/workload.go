package fault

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"efactory/internal/client"
)

// Kind is one step type of the torture workload.
type Kind uint8

const (
	Put       Kind = iota // allocate, then write the value
	TornPut               // allocate only: the client dies before writing the value
	Get                   // single-key read
	GetBatch              // GetBatchFan-key multi-GET (duplicates allowed)
	Del                   // delete
	TxnCommit             // atomic multi-key commit over distinct hot keys
	TxnRead               // snapshot multi-key read
)

// Op is one pre-drawn workload step. Single-key kinds use Keys[0] (and
// Vals[0]); Vals is set for Put, TornPut and TxnCommit.
type Op struct {
	Kind Kind
	Keys [][]byte
	Vals [][]byte
}

func hotKey(i int) []byte { return []byte(fmt.Sprintf("key-%02d", i)) }

// Workload draws the seeded schedule every torture runner replays — the
// only place a torture draws randomness, so every transport and every
// crash point of one seed sees the same ops. It is a pure function of
// cfg. Draw counts per op depend only on the op's kind and the
// Txn/GetBatch switches; the order of draws is pinned by the committed
// schedule digests.
func Workload(cfg Config) []Op {
	cfg = cfg.WithDefaults()
	rng := rand.New(rand.NewPCG(cfg.Seed, 0xfa17_707e))
	ops := make([]Op, cfg.Ops)
	for i := range ops {
		kind := rng.IntN(100)
		keyIdx := rng.IntN(cfg.Keys)
		fresh := rng.IntN(5) == 0
		key := hotKey(keyIdx)
		if kind < 60 && fresh {
			// A slice of PUTs use never-seen keys: when the pool is full
			// these exercise the claim-then-fail path on fresh table slots.
			key = []byte(fmt.Sprintf("uniq-%04d", i))
		}
		op := Op{Keys: [][]byte{key}}
		value := func(k []byte) []byte { return WorkloadValue(cfg.Seed, string(k), i, cfg.ValueLen) }
		switch {
		case kind < 50:
			op.Kind, op.Vals = Put, [][]byte{value(key)}
		case kind < 60:
			op.Kind, op.Vals = TornPut, [][]byte{value(key)}
		case kind >= 72 && kind < 85 && cfg.Txn:
			snap := rng.IntN(4) == 0
			n := min(2+rng.IntN(TxnMaxOps-1), cfg.Keys) // commits require distinct keys
			op.Kind, op.Keys = TxnRead, make([][]byte, n)
			for j := range op.Keys {
				op.Keys[j] = hotKey((keyIdx + j) % cfg.Keys)
			}
			if !snap {
				op.Kind, op.Vals = TxnCommit, make([][]byte, n)
				for j, k := range op.Keys {
					op.Vals[j] = value(k)
				}
			}
		case kind < 85 && !cfg.GetBatch:
			op.Kind = Get
		case kind < 85:
			op.Kind = GetBatch
			for j := 1; j < GetBatchFan; j++ {
				op.Keys = append(op.Keys, hotKey(rng.IntN(cfg.Keys)))
			}
		default:
			op.Kind = Del
		}
		ops[i] = op
	}
	return ops
}

// Target is the system under torture as the driver sees it: a client
// surface plus the two things only the harness knows — what it schedules
// between ops and whether the target has died. Errors are the protocol
// core's sentinels; Delete answers client.ErrNotFound for an absent key.
type Target interface {
	// Tick runs what the harness itself schedules before op i: cleaning,
	// store-level background steps, starting a migration, arming a kill.
	Tick(i int)
	// Dead reports whether the target has died (the fault plan tripped, a
	// protocol checkpoint aborted). Checked before and after every op.
	Dead() bool

	Put(key, value []byte) error
	TornPut(key, value []byte) error
	Get(key []byte) ([]byte, error)
	GetBatch(keys [][]byte) ([][]byte, []error)
	Delete(key []byte) error
	TxnCommit(keys, vals [][]byte) (uint64, error)
	TxnRead(keys [][]byte) ([][]byte, []error)
}

// Drive replays ops against t until they run out or t dies, keeping the
// oracle's books under the one acked/pending rule:
//
//   - an op that returned cleanly on a live target is acknowledged (a
//     TornPut acknowledges an incomplete value);
//   - an op in flight when the target died is pending — the crash may have
//     landed before, inside, or after it — except a DELETE answered
//     not-found, which changed nothing either way;
//   - anything else (an error on a live target) promised nothing;
//   - reads are observed only while the target is alive.
//
// sequentialBatch says t resolves a GetBatch's reads one after another, so
// the exact per-index check applies; otherwise in-batch reads are
// concurrent and are observed as one batch. It returns the live
// violations; the caller crashes, recovers, and runs Oracle.Check.
func Drive(t Target, o *Oracle, ops []Op, sequentialBatch bool) []string {
	var violations []string
	observe := func(keys, vals [][]byte, errs []error) {
		for i, k := range keys {
			if errs[i] == nil {
				if v := o.ObserveGet(k, vals[i], true); v != "" {
					violations = append(violations, "live: "+v)
				}
			}
		}
	}
	for i, op := range ops {
		if t.Dead() {
			break
		}
		t.Tick(i)
		if t.Dead() {
			break
		}
		key := op.Keys[0]
		switch op.Kind {
		case Put, TornPut:
			put := t.Put
			if op.Kind == TornPut {
				put = t.TornPut
			}
			err := put(key, op.Vals[0])
			switch {
			case t.Dead():
				o.PutPending(key, op.Vals[0])
			case err == nil:
				o.PutAcked(key, op.Vals[0], op.Kind == Put)
			}
		case Del:
			err := t.Delete(key)
			switch {
			case t.Dead():
				if !errors.Is(err, client.ErrNotFound) {
					o.DelPending(key)
				}
			case err == nil:
				o.DelAcked(key)
			}
		case TxnCommit:
			// Pending or acknowledged, the group recovers all-in or all-out.
			id, err := t.TxnCommit(op.Keys, op.Vals)
			switch {
			case t.Dead():
				o.TxnPending(id, op.Keys, op.Vals)
			case err == nil:
				o.TxnCommitted(id, op.Keys, op.Vals)
			}
		case Get:
			if got, err := t.Get(key); !t.Dead() {
				observe(op.Keys, [][]byte{got}, []error{err})
			}
		case TxnRead:
			// One cut over distinct keys: each hit is an observation like
			// any GET.
			if vals, errs := t.TxnRead(op.Keys); !t.Dead() {
				observe(op.Keys, vals, errs)
			}
		case GetBatch:
			vals, errs := t.GetBatch(op.Keys)
			switch {
			case t.Dead():
			case sequentialBatch:
				observe(op.Keys, vals, errs)
			default:
				found := make([]bool, len(errs))
				for j, err := range errs {
					found[j] = err == nil
				}
				for _, v := range o.ObserveGetBatch(op.Keys, vals, found) {
					violations = append(violations, "live: "+v)
				}
			}
		}
	}
	return violations
}
