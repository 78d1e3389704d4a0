// Package efactory is the public façade of the eFactory reproduction: a
// multi-version, log-structured key-value store over (simulated) RDMA and
// NVM that provides crash consistency with high performance for both reads
// and writes, from "Fast and Consistent Remote Direct Access to
// Non-volatile Memory" (Du et al., ICPP 2021).
//
// Two deployment modes are offered:
//
//   - Simulation mode (this package): server, clients, NICs and NVM run on
//     a deterministic discrete-event fabric with a calibrated cost model.
//     This is how the paper's experiments are reproduced and how crash
//     consistency is tested — see NewEnv, NewServer, Server.AttachClient.
//
//   - Network mode (package efactory/tcpkv, used by cmd/efactory-server
//     and cmd/efactory-cli): the same protocol over real TCP with a
//     file-backed NVM device, so the store survives process restarts.
//
// Quickstart (simulation mode):
//
//	env := efactory.NewEnv(1)
//	par := efactory.DefaultParams()
//	srv := efactory.NewServer(env, &par, efactory.DefaultConfig())
//	cl := srv.AttachClient("client-0")
//	env.Go("app", func(p *efactory.Proc) {
//		cl.Put(p, []byte("key"), []byte("value"))
//		v, _ := cl.Get(p, []byte("key"))
//		fmt.Printf("%s\n", v)
//	})
//	env.Run()
//
// The underlying building blocks (discrete-event kernel, NVM emulation,
// software RNIC, baselines, YCSB generator, benchmark harness) live in
// internal/ packages; everything a downstream user needs is re-exported
// here.
package efactory

import (
	"time"

	"efactory/internal/efactory"
	"efactory/internal/model"
	"efactory/internal/nvm"
	"efactory/internal/sim"
)

// Env is the deterministic discrete-event simulation environment every
// simulated cluster runs in.
type Env = sim.Env

// Proc is the execution context of a simulated process; all client
// operations take one.
type Proc = sim.Proc

// Params is the calibrated latency/CPU cost model.
type Params = model.Params

// Config sizes and tunes an eFactory server.
type Config = efactory.Config

// Server is the eFactory server node.
type Server = efactory.Server

// Client is an eFactory client (hybrid read scheme, client-active writes).
type Client = efactory.Client

// ServerStats and ClientStats expose event counters for inspection.
type (
	ServerStats = efactory.ServerStats
	ClientStats = efactory.ClientStats
)

// RecoveryStats summarizes a crash recovery.
type RecoveryStats = efactory.RecoveryStats

// Memory is the emulated NVM device.
type Memory = nvm.Memory

// Sentinel errors.
var (
	ErrNotFound   = efactory.ErrNotFound
	ErrServerFull = efactory.ErrServerFull
)

// NewEnv returns a simulation environment seeded for reproducibility.
func NewEnv(seed uint64) *Env { return sim.NewEnv(seed) }

// DefaultParams returns the cost model calibrated against the paper's
// testbed (ConnectX-5 100 Gb/s InfiniBand, PMDK-emulated NVM).
func DefaultParams() Params { return model.Default() }

// DefaultConfig returns a server configuration sized for experimentation.
func DefaultConfig() Config { return efactory.DefaultConfig() }

// NewServer builds an eFactory server on a fresh NVM device and starts its
// request workers and background verification thread in env.
func NewServer(env *Env, par *Params, cfg Config) *Server {
	return efactory.NewServer(env, par, cfg)
}

// Recover rebuilds a consistent server from the persisted contents of a
// crashed device, rolling every key back to its newest intact version. A
// crash during Recover loses nothing: the next Recover restores the same
// state.
func Recover(env *Env, par *Params, cfg Config, dev *Memory) (*Server, RecoveryStats, error) {
	return efactory.Recover(env, par, cfg, dev)
}

// VerifyTimeoutDefault is the default window after which an incomplete
// write is declared dead and its version invalidated.
const VerifyTimeoutDefault = 500 * time.Microsecond
