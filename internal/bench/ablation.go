package bench

import (
	"fmt"
	"strings"

	"hamster"
	"hamster/internal/apps"
	"hamster/internal/hybriddsm"
	"hamster/internal/memsim"
	"hamster/internal/multidsm"
	"hamster/internal/swdsm"
	"hamster/internal/vclock"
	"hamster/models/jiajia"
)

// AblationRow is one configuration of a design-choice experiment.
type AblationRow struct {
	Config string
	Time   vclock.Duration
}

// AblationResult is one complete ablation.
type AblationResult struct {
	Name string
	Note string
	Rows []AblationRow
}

// ablationMessaging quantifies §3.3's messaging integration: the same
// HAMSTER/JiaJia binary on the software DSM with the coalesced messaging
// layer versus two separate (competing) stacks.
func ablationMessaging(sz Sizes) AblationResult {
	run := func(mode hamster.MessagingMode) vclock.Duration {
		sys, err := jiajia.Boot(hamster.Config{
			Platform: hamster.SWDSM, Nodes: 4, Messaging: mode, Params: sz.params(),
		})
		if err != nil {
			panic(err)
		}
		defer sys.Shutdown()
		res := apps.RunOnJia(sys, func(m apps.Machine) apps.Result {
			return apps.SOR(m, sz.SORN, sz.SORIters, false)
		})
		return apps.MaxTotal(res)
	}
	return AblationResult{
		Name: "messaging integration (coalesced vs separate stacks)",
		Note: "unoptimized SOR on SW-DSM, 4 nodes; every fault/sync message pays the stack penalty when separate",
		Rows: []AblationRow{
			{"coalesced", run(hamster.Coalesced)},
			{"separate", run(hamster.Separate)},
		},
	}
}

// ablationConsistency quantifies §4.5: the same kernel under the
// substrate's relaxed (scope) model versus the Sequential model of the
// consistency API (fence around every access).
func ablationConsistency(sz Sizes) AblationResult {
	n := sz.SORN / 4
	if n < 16 {
		n = 16
	}
	kernel := func(m apps.Machine) apps.Result { return apps.SOR(m, n, 2, true) }
	run := func(seq bool) vclock.Duration {
		rt, err := hamster.New(hamster.Config{Platform: hamster.SWDSM, Nodes: 2, Params: sz.params()})
		if err != nil {
			panic(err)
		}
		defer rt.Close()
		if seq {
			return apps.MaxTotal(apps.RunOnEnvSeq(rt, kernel))
		}
		return apps.MaxTotal(apps.RunOnEnv(rt, kernel))
	}
	return AblationResult{
		Name: "consistency model (scope vs sequential)",
		Note: fmt.Sprintf("SOR %dx%d on SW-DSM, 2 nodes; sequential fences around every access", n, n),
		Rows: []AblationRow{
			{"scope (relaxed)", run(false)},
			{"sequential", run(true)},
		},
	}
}

// ablationPlacement quantifies the Memory Management module's
// distribution annotations on the hybrid DSM: block versus cyclic versus
// single-node placement for a streaming kernel.
func ablationPlacement(sz Sizes) AblationResult {
	n := 256 * sz.SORN // enough doubles that placement dominates
	run := func(pol memsim.Policy) vclock.Duration {
		// The core path honors every distribution annotation (the jia_*
		// API only exposes block and cyclic allocation).
		rt, err := hamster.New(hamster.Config{Platform: hamster.HybridDSM, Nodes: 4, Params: sz.params()})
		if err != nil {
			panic(err)
		}
		defer rt.Close()
		res := apps.RunOnEnv(rt, func(m apps.Machine) apps.Result {
			return apps.Stream(m, n, 3, pol)
		})
		return apps.MaxTotal(res)
	}
	return AblationResult{
		Name: "distribution annotation (hybrid DSM)",
		Note: fmt.Sprintf("stream over %d doubles, 4 nodes; placement decides how many accesses leave the node", n),
		Rows: []AblationRow{
			{"block", run(memsim.Block)},
			{"cyclic", run(memsim.Cyclic)},
			{"fixed(node0)", run(memsim.Fixed)},
		},
	}
}

// ablationPostedWrites quantifies the hybrid DSM's posted-write buffer on
// LU's write-only initialization phase.
func ablationPostedWrites(sz Sizes) AblationResult {
	run := func(disable bool) vclock.Duration {
		d, err := hybriddsm.New(hybriddsm.Config{Nodes: 4, DisablePostedWrites: disable, Params: sz.params()})
		if err != nil {
			panic(err)
		}
		defer d.Close()
		res := apps.RunOnSubstrate(d, func(m apps.Machine) apps.Result {
			return apps.LU(m, sz.LUN)
		})
		return apps.MaxPhase(res, func(t apps.Timings) vclock.Duration { return t.Init })
	}
	return AblationResult{
		Name: "posted remote writes (hybrid DSM)",
		Note: fmt.Sprintf("LU %dx%d init phase, 4 nodes; PIO stores pay full remote latency per word", sz.LUN, sz.LUN),
		Rows: []AblationRow{
			{"posted writes", run(false)},
			{"synchronous PIO", run(true)},
		},
	}
}

// ablationMultiDSM runs the §6 multi-DSM composition experiment: a mixed
// workload (dense read stream + scattered remote writes) on the two-engine
// substrate, with all regions on the software engine, all on the (raw,
// uncached) hybrid engine, and finally with each region routed to the
// engine that suits it.
func ablationMultiDSM(sz Sizes) AblationResult {
	streamWords := 64 * sz.SORN
	const scatterPages, iters = 24, 3
	kernel := func(m apps.Machine) apps.Result {
		return apps.MixedRW(m, streamWords, scatterPages, iters)
	}
	run := func(routes map[memsim.Policy]multidsm.Engine, def multidsm.Engine) vclock.Duration {
		d, err := multidsm.New(multidsm.Config{
			Nodes: 4, Params: sz.params(),
			PolicyRoutes: routes, DefaultEngine: def,
			HybridCacheThreshold: -1,
		})
		if err != nil {
			panic(err)
		}
		defer d.Close()
		return apps.MaxTotal(apps.RunOnSubstrate(d, kernel))
	}
	return AblationResult{
		Name: "multi-DSM composition (§6 future work)",
		Note: fmt.Sprintf("stream of %d doubles + %d scattered-write pages, 4 nodes; regions routed per engine", streamWords, scatterPages),
		Rows: []AblationRow{
			{"all on sw-dsm", run(nil, multidsm.SW)},
			{"all on hybrid (raw)", run(nil, multidsm.Hybrid)},
			{"custom-tailored mix", run(map[memsim.Policy]multidsm.Engine{
				memsim.Block:  multidsm.SW,
				memsim.Cyclic: multidsm.Hybrid,
			}, multidsm.SW)},
		},
	}
}

// ablationHomeMigration quantifies the software DSM's single-writer home
// migration (JiaJia's optimization) on a workload where every node
// repeatedly rewrites a block homed elsewhere.
func ablationHomeMigration(sz Sizes) AblationResult {
	n := 64 * sz.SORN
	run := func(migrateAfter int) vclock.Duration {
		d, err := swdsm.New(swdsm.Config{
			Nodes: 4, Params: sz.params(), MigrateAfter: migrateAfter,
		})
		if err != nil {
			panic(err)
		}
		defer d.Close()
		res := apps.RunOnSubstrate(d, func(m apps.Machine) apps.Result {
			// Fixed placement homes everything on node 0; nodes 1-3 are
			// single writers of their blocks — migration bait.
			return apps.OwnerWrites(m, n, 12, memsim.Fixed)
		})
		return apps.MaxTotal(res)
	}
	return AblationResult{
		Name: "home migration (software DSM single-writer optimization)",
		Note: fmt.Sprintf("each node rewrites its block of %d doubles homed on node 0, 12 iterations", n),
		Rows: []AblationRow{
			{"migration off", run(0)},
			{"migrate after 2", run(2)},
		},
	}
}

// ablationProtocol compares the software DSM's Scope Consistency against
// eager Release Consistency (§4.5's model spectrum) on a workload with
// disjoint lock scopes but shared pages: scope keeps everyone's cached
// pages valid, eager RC broadcasts and invalidates on every release.
func ablationProtocol(sz Sizes) AblationResult {
	run := func(proto swdsm.Protocol) vclock.Duration {
		d, err := swdsm.New(swdsm.Config{Nodes: 4, Params: sz.params(), Protocol: proto})
		if err != nil {
			panic(err)
		}
		defer d.Close()
		res := apps.RunOnSubstrate(d, func(m apps.Machine) apps.Result {
			return apps.DisjointLocks(m, 48, 8)
		})
		return apps.MaxTotal(res)
	}
	return AblationResult{
		Name: "consistency protocol (scope vs eager release consistency)",
		Note: "48 single-writer counters under 48 disjoint locks, shared pages, 4 nodes, 8 rounds",
		Rows: []AblationRow{
			{"scope consistency", run(swdsm.ScopeConsistency)},
			{"eager RC", run(swdsm.EagerRC)},
		},
	}
}

// Ablations runs every design-choice experiment DESIGN.md calls out.
func Ablations(sz Sizes) []AblationResult {
	return []AblationResult{
		ablationMessaging(sz),
		ablationConsistency(sz),
		ablationPlacement(sz),
		ablationPostedWrites(sz),
		ablationMultiDSM(sz),
		ablationHomeMigration(sz),
		ablationProtocol(sz),
	}
}

// RenderAblations formats the ablation results.
func RenderAblations(results []AblationResult) string {
	var b strings.Builder
	b.WriteString("Ablations: design choices called out in DESIGN.md\n")
	for _, a := range results {
		fmt.Fprintf(&b, "\n%s\n  %s\n", a.Name, a.Note)
		base := a.Rows[0].Time
		for _, r := range a.Rows {
			rel := 1.0
			if base > 0 {
				rel = float64(r.Time) / float64(base)
			}
			fmt.Fprintf(&b, "  %-18s %12v  (%.2fx)\n", r.Config, r.Time, rel)
		}
	}
	return b.String()
}
