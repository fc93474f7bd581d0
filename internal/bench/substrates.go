package bench

import (
	"hamster"
	"hamster/internal/hybriddsm"
	"hamster/internal/memsim"
	"hamster/internal/multidsm"
	"hamster/internal/platform"
	"hamster/internal/swdsm"
)

// The substrate constructors of the ablation legs that vary a knob no
// hamster.Config field carries (Cluster.New). Each builds the bare
// substrate from the leg's cluster description with that one knob set;
// every other cluster in internal/bench is built by core.NewSubstrate.

// synchronousPIO is the hybrid DSM without its posted-write buffer:
// every remote store pays the full PIO round trip.
func synchronousPIO(cfg hamster.Config) (platform.Substrate, error) {
	return hybriddsm.New(hybriddsm.Config{Nodes: cfg.Nodes, Params: cfg.Params, DisablePostedWrites: true})
}

// migrateAfter2 is the software DSM with single-writer home migration:
// a page's home moves to a node that alone wrote it in two consecutive
// intervals.
func migrateAfter2(cfg hamster.Config) (platform.Substrate, error) {
	return swdsm.New(swdsm.Config{Nodes: cfg.Nodes, Params: cfg.Params, MigrateAfter: 2})
}

// multiDSM is the two-engine substrate with each placement policy's
// regions routed to an engine (def for the rest) and the hybrid engine
// uncached.
func multiDSM(routes map[memsim.Policy]multidsm.Engine, def multidsm.Engine) func(hamster.Config) (platform.Substrate, error) {
	return func(cfg hamster.Config) (platform.Substrate, error) {
		return multidsm.New(multidsm.Config{Nodes: cfg.Nodes, Params: cfg.Params,
			PolicyRoutes: routes, DefaultEngine: def, HybridCacheThreshold: -1})
	}
}
