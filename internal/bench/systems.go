// Package bench is the experiment harness: one runner per figure of the
// paper's evaluation (§6), each printing the figure's data series as a
// table. The runners are used both by cmd/efactory-bench and by the
// testing.B benchmarks in the repository root.
package bench

import (
	"fmt"

	"efactory/internal/baseline"
	"efactory/internal/efactory"
	"efactory/internal/model"
	"efactory/internal/sim"
)

// System identifies one of the compared key-value stores.
type System int

// The systems of §5.3, plus the factor-analysis variant and the Figure 1
// reference points.
const (
	SysEFactory System = iota
	SysEFactoryNoHR
	SysIMM
	SysSAW
	SysErda
	SysForca
	SysRPC
	SysCANP
)

// String returns the system's display name.
func (s System) String() string {
	switch s {
	case SysEFactory:
		return "eFactory"
	case SysEFactoryNoHR:
		return "eFactory-w/o-hr"
	case SysIMM:
		return "IMM"
	case SysSAW:
		return "SAW"
	case SysErda:
		return "Erda"
	case SysForca:
		return "Forca"
	case SysRPC:
		return "RPC"
	case SysCANP:
		return "CA-w/o-persist"
	}
	return fmt.Sprintf("System(%d)", int(s))
}

// Figure9Systems lists the six systems compared in Figures 9 and 10.
func Figure9Systems() []System {
	return []System{SysEFactory, SysEFactoryNoHR, SysIMM, SysSAW, SysErda, SysForca}
}

// Figure1Systems lists the four write schemes of Figure 1.
func Figure1Systems() []System {
	return []System{SysCANP, SysSAW, SysIMM, SysRPC}
}

// Cluster is one server plus its attached clients, ready to drive.
type Cluster struct {
	Env     *sim.Env
	System  System
	Clients []baseline.KV
	Stop    func()
	// EF is non-nil for the eFactory systems (log-cleaning control).
	EF *efactory.Server
}

// Build constructs a cluster of the given system with nClients clients.
func Build(env *sim.Env, par *model.Params, sys System, nClients, buckets, poolSize int) *Cluster {
	c := &Cluster{Env: env, System: sys}
	switch sys {
	case SysEFactory, SysEFactoryNoHR:
		cfg := efactory.DefaultConfig()
		cfg.Buckets = buckets
		cfg.PoolSize = poolSize
		srv := efactory.NewServer(env, par, cfg)
		c.EF = srv
		c.Stop = srv.Stop
		for i := 0; i < nClients; i++ {
			cl := srv.AttachClient(fmt.Sprintf("c%d", i))
			if sys == SysEFactoryNoHR {
				cl.SetHybridRead(false)
			}
			c.Clients = append(c.Clients, cl)
		}
	default:
		cfg := baseline.Config{Buckets: buckets, PoolSize: poolSize, Workers: 4}
		var attach func(string) baseline.KV
		switch sys {
		case SysIMM:
			s := baseline.NewIMM(env, par, cfg)
			c.Stop = s.Stop
			attach = func(n string) baseline.KV { return s.AttachClient(n) }
		case SysSAW:
			s := baseline.NewSAW(env, par, cfg)
			c.Stop = s.Stop
			attach = func(n string) baseline.KV { return s.AttachClient(n) }
		case SysErda:
			s := baseline.NewErda(env, par, cfg)
			c.Stop = s.Stop
			attach = func(n string) baseline.KV { return s.AttachClient(n) }
		case SysForca:
			s := baseline.NewForca(env, par, cfg)
			c.Stop = s.Stop
			attach = func(n string) baseline.KV { return s.AttachClient(n) }
		case SysRPC:
			s := baseline.NewRPCKV(env, par, cfg)
			c.Stop = s.Stop
			attach = func(n string) baseline.KV { return s.AttachClient(n) }
		case SysCANP:
			s := baseline.NewCANP(env, par, cfg)
			c.Stop = s.Stop
			attach = func(n string) baseline.KV { return s.AttachClient(n) }
		default:
			panic("bench: unknown system")
		}
		for i := 0; i < nClients; i++ {
			c.Clients = append(c.Clients, attach(fmt.Sprintf("c%d", i)))
		}
	}
	return c
}
