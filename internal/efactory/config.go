// Package efactory implements the paper's primary contribution: a
// multi-version, log-structured key-value store over RDMA and NVM that
// provides crash consistency with high performance for both reads and
// writes (§4).
//
// The storage logic — multi-version log structuring, the background
// verification thread (§4.3.2), the selective durability guarantee, the
// two-stage log cleaner (§4.4), and crash recovery — lives in the shared,
// shardable engine in internal/store; the request handling lives in the
// server protocol core (internal/server) and the client protocol in the
// client core (internal/client). This package is the simulation transport
// binding of all three: it owns the RNIC, the request workers, the
// per-shard memory regions, and charges every engine op as virtual time
// through a store.CostSink, so the same code that runs on real goroutines
// over TCP (internal/tcpkv) is here driven by the discrete-event
// scheduler.
package efactory

import (
	"time"

	"efactory/internal/fault"
	"efactory/internal/kv"
	"efactory/internal/store"
)

// Config sizes and tunes a Server.
type Config struct {
	// Buckets is the hash-table size PER SHARD. Keep the load factor
	// modest so client-side probing stays short.
	Buckets int
	// PoolSize is the byte capacity of EACH of the two data pools (per
	// shard).
	PoolSize int
	// Shards splits the keyspace over independent engine shards, each
	// with its own table region, pool pair, background cursor, and
	// cleaner. 0 or 1 gives the classic single-engine behavior.
	Shards int
	// Workers is the number of request-processing threads.
	Workers int
	// CleanThreshold triggers log cleaning when the current pool's free
	// fraction drops below it. Zero disables automatic cleaning.
	CleanThreshold float64
	// VerifyTimeout overrides model.Params.VerifyTimeout when nonzero.
	VerifyTimeout time.Duration
	// DisableBackground turns the verification thread off (for tests that
	// want full control over when verification happens).
	DisableBackground bool
	// BGBatch caps how many contiguous objects the background verifier may
	// coalesce into one group-verified, group-flushed run (Engine.BGBatch).
	// The effective batch size adapts to the shard's durability lag, up to
	// this cap. 0 or 1 verifies one object per run.
	BGBatch int
	// FaultPlan, when non-nil, wires the crash-point injection subsystem
	// (internal/fault) into the server: the engine's device and cost sink
	// are wrapped so every flush/drain and charge counts a boundary, and
	// the device freezes when the plan trips. Nil bypasses the wrappers
	// entirely, leaving the injection-free paths bit-identical.
	FaultPlan *fault.Plan
}

// DefaultConfig returns a server sized for tests and small experiments.
func DefaultConfig() Config {
	return Config{
		Buckets:        4096,
		PoolSize:       8 << 20,
		Workers:        4,
		CleanThreshold: 0, // benches size pools to avoid cleaning unless testing it
	}
}

// storeConfig maps the transport config onto the engine config.
func (c *Config) storeConfig() store.Config {
	return store.Config{
		Shards:         c.Shards,
		Buckets:        c.Buckets,
		PoolSize:       c.PoolSize,
		VerifyTimeout:  c.VerifyTimeout,
		CleanThreshold: c.CleanThreshold,
	}
}

// Layout returns the per-shard device layout this config implies.
func (c *Config) Layout() kv.Layout { return c.storeConfig().Layout() }

// DeviceSize returns the NVM capacity a server with this config needs:
// per shard, the hash table plus two data pools, line-aligned.
func (c *Config) DeviceSize() int { return c.Layout().DeviceSize() }
