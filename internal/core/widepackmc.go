package core

import (
	"fmt"

	"relcomp/internal/uncertain"
)

// WidePackMC is a name over a PackMC: PackMC256 or PackMC512, whose
// source sweeps (EstimateAll, AllSampler) run at 256 lanes by default
// (PackMC.SweepAt). Both names sweep 4-word groups, because a
// hand-unrolled 8-word kernel measured no cheaper. Everything else —
// s-t queries, seeding, scratch, memory — is the PackMC's own, so at one
// seed every method returns PackMC's values bit for bit, at every width
// (asserted by the package's width-identity tests).
type WidePackMC struct {
	packSweep
	named int // 256 or 512: the width the estimator is named for
}

// NewWidePackMC returns a wide-pack estimator over g with the given seed.
// lanes must be 256 or 512 (PackMC itself is the 64-lane case); it only
// names the estimator, since both widths sweep 4-word groups and every
// width returns PackMC's values.
func NewWidePackMC(g *uncertain.Graph, seed uint64, lanes int) *WidePackMC {
	if lanes != 256 && lanes != 512 {
		panic(fmt.Sprintf("core: WidePackMC lanes must be 256 or 512, got %d", lanes))
	}
	return &WidePackMC{packSweep: packSweep{NewPackMC(g, seed), 256}, named: lanes}
}

// Name implements Estimator: "PackMC256" or "PackMC512".
func (pm *WidePackMC) Name() string { return fmt.Sprintf("PackMC%d", pm.named) }

// Lanes returns the width the estimator is named for (256 or 512).
func (pm *WidePackMC) Lanes() int { return pm.named }

var (
	_ IncrementalEstimator = (*WidePackMC)(nil)
	_ SourceSampler        = (*WidePackMC)(nil)
	_ Seeder               = (*WidePackMC)(nil)
	_ MemoryReporter       = (*WidePackMC)(nil)
)
