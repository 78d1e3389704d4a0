package bench

import (
	"fmt"
	"testing"

	"efactory/internal/baseline"
	"efactory/internal/efactory"
	"efactory/internal/model"
	"efactory/internal/sim"
	"efactory/internal/ycsb"
)

// efCluster builds an eFactory cluster like Build does, with tweak applied
// to the server config.
func efCluster(par *model.Params, sc Scale, nClients int, seed uint64, tweak func(*efactory.Config)) *Cluster {
	env := sim.NewEnv(seed)
	cfg := efactory.DefaultConfig()
	cfg.Buckets = sc.Buckets
	cfg.PoolSize = sc.PoolSize
	tweak(&cfg)
	srv := efactory.NewServer(env, par, cfg)
	c := &Cluster{Env: env, System: SysEFactory, Stop: srv.Stop, EF: srv}
	for i := 0; i < nClients; i++ {
		c.Clients = append(c.Clients, srv.AttachClient(fmt.Sprintf("c%d", i)))
	}
	return c
}

// immCluster builds an IMM cluster with the given request worker count.
func immCluster(par *model.Params, sc Scale, nClients, workers int, seed uint64) *Cluster {
	env := sim.NewEnv(seed)
	s := baseline.NewIMM(env, par, baseline.Config{Buckets: sc.Buckets, PoolSize: sc.PoolSize, Workers: workers})
	c := &Cluster{Env: env, System: SysIMM, Stop: s.Stop}
	for i := 0; i < nClients; i++ {
		c.Clients = append(c.Clients, s.AttachClient(fmt.Sprintf("c%d", i)))
	}
	return c
}

// TestAblationDirections asserts that the background thread and the
// worker count contribute in the direction the design claims. The
// selective durability guarantee is pinned by TestFig9ReadOnlyShapes
// (eFactory over Forca on reads) and the hybrid read scheme by
// TestFig10ScalabilityShapes (eFactory over its w/o-hr variant).
func TestAblationDirections(t *testing.T) {
	par := model.Default()
	sc := QuickScale()

	// Background thread: disabling it must hurt mixed workloads.
	bgOn := drive(efCluster(&par, sc, 8, 74, func(*efactory.Config) {}), ycsb.WorkloadB, 2048, sc, 74)
	bgOff := drive(efCluster(&par, sc, 8, 74, func(cfg *efactory.Config) { cfg.DisableBackground = true }),
		ycsb.WorkloadB, 2048, sc, 74)
	if bgOn.Mops <= bgOff.Mops {
		t.Errorf("background thread not beneficial: on %.3f vs off %.3f", bgOn.Mops, bgOff.Mops)
	}

	// Worker count: IMM is server-CPU-bound (scales with workers);
	// eFactory is not (flat beyond 2).
	imm1 := drive(immCluster(&par, sc, 16, 1, 75), ycsb.WorkloadUpdateOnly, 2048, sc, 75)
	imm4 := drive(immCluster(&par, sc, 16, 4, 75), ycsb.WorkloadUpdateOnly, 2048, sc, 75)
	if imm4.Mops < 2.5*imm1.Mops {
		t.Errorf("IMM should scale with workers: 1w %.3f, 4w %.3f", imm1.Mops, imm4.Mops)
	}
	ef2 := drive(efCluster(&par, sc, 16, 75, func(cfg *efactory.Config) { cfg.Workers = 2 }),
		ycsb.WorkloadUpdateOnly, 2048, sc, 75)
	ef8 := drive(efCluster(&par, sc, 16, 75, func(cfg *efactory.Config) { cfg.Workers = 8 }),
		ycsb.WorkloadUpdateOnly, 2048, sc, 75)
	if ef8.Mops > 1.3*ef2.Mops {
		t.Errorf("eFactory should not need server CPU: 2w %.3f, 8w %.3f", ef2.Mops, ef8.Mops)
	}
	t.Logf("bg on/off %.3f/%.3f; IMM 1w/4w %.3f/%.3f; eFactory 2w/8w %.3f/%.3f",
		bgOn.Mops, bgOff.Mops, imm1.Mops, imm4.Mops, ef2.Mops, ef8.Mops)
}
