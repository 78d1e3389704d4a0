package bench

import (
	"testing"
	"time"

	"efactory/internal/model"
	"efactory/internal/ycsb"
)

// TestSensitivityConclusionsRobust asserts the headline orderings hold at
// the edges of the calibration neighborhood, not just at the calibrated
// point.
func TestSensitivityConclusionsRobust(t *testing.T) {
	base := model.Default()
	sc := QuickScale()
	sc.OpsPerClient = 120
	sc.NKeys = 120

	// Halve and double the flush cost: eFactory must beat IMM on
	// update-only either way.
	for _, mult := range []float64{0.5, 2.0} {
		par := base
		par.FlushPerLine = time.Duration(float64(base.FlushPerLine) * mult)
		ef := RunMixed(&par, SysEFactory, ycsb.WorkloadUpdateOnly, 8, 2048, sc, 91)
		imm := RunMixed(&par, SysIMM, ycsb.WorkloadUpdateOnly, 8, 2048, sc, 91)
		if ef.Mops <= imm.Mops {
			t.Errorf("flush x%.1f: eFactory %.3f not above IMM %.3f", mult, ef.Mops, imm.Mops)
		}
	}
	// Halve and double the CRC cost: eFactory must beat Erda on 4KB reads.
	for _, mult := range []float64{0.5, 2.0} {
		par := base
		par.CRCPerByte = base.CRCPerByte * mult
		ef := RunMixed(&par, SysEFactory, ycsb.WorkloadC, 8, 4096, sc, 92)
		erda := RunMixed(&par, SysErda, ycsb.WorkloadC, 8, 4096, sc, 92)
		if ef.Mops <= erda.Mops {
			t.Errorf("crc x%.1f: eFactory %.3f not above Erda %.3f", mult, ef.Mops, erda.Mops)
		}
	}
}
