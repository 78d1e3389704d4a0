package efactory

import (
	"efactory/internal/model"
	"efactory/internal/nvm"
	"efactory/internal/rnic"
	"efactory/internal/sim"
	"efactory/internal/store"
)

// RecoveryStats summarizes what recovery found in the persisted image.
type RecoveryStats = store.RecoveryStats

// Recover rebuilds a consistent server from the persisted contents of dev
// (the post-crash state) with the shared engine's recovery
// (internal/store.New): every hash entry resolves to its newest intact
// version via the version list and CRC checks, and each shard is repaired
// in place, so a crash during Recover loses nothing. The error is
// store.New's: a device smaller than cfg needs, or store.ErrRecoveryFull.
func Recover(env *sim.Env, par *model.Params, cfg Config, dev *nvm.Memory) (*Server, RecoveryStats, error) {
	if cfg.VerifyTimeout == 0 {
		cfg.VerifyTimeout = par.VerifyTimeout
	}
	s := &Server{env: env, par: par, cfg: cfg, dev: dev}
	s.nic = rnic.NewNIC(env, par, "efactory-server")
	s.srq = s.nic.EnableSRQ()
	st, err := s.initStore()
	if err != nil {
		return nil, st, err
	}
	s.startProcs()
	return s, st, nil
}
