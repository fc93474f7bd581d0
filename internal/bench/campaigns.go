package bench

import (
	"fmt"
	"strings"

	"hamster/internal/apps"
	"hamster/internal/consengine"
	"hamster/internal/memsim"
	"hamster/internal/serve"
	"hamster/internal/simnet"
	"hamster/internal/swdsm"
)

// The eight campaigns, each a cell list over the one harness of
// campaign.go (the paper's two are in paper.go).

// Registry is the list of campaigns hamsterbench -campaign selects from.
type Registry []Campaign

// Campaigns returns the registry.
func Campaigns(sz Sizes) Registry {
	return Registry{
		figuresCampaign(sz), ablationsCampaign(sz), kernelsCampaign(), checkpointCampaign(), aggregationCampaign(),
		enginesCampaign(), scalingCampaign(), serveCampaign(),
	}
}

// Names lists the registered campaigns.
func (reg Registry) Names() []string {
	names := make([]string, len(reg))
	for i, c := range reg {
		names[i] = c.Name
	}
	return names
}

// Lookup finds a campaign by name; the error lists the valid names.
func (reg Registry) Lookup(name string) (Campaign, error) {
	for _, c := range reg {
		if c.Name == name {
			return c, nil
		}
	}
	return Campaign{}, fmt.Errorf("unknown campaign %q (have %s)", name, strings.Join(reg.Names(), ", "))
}

// workload is one named kernel.
type workload struct {
	Name   string
	Kernel apps.Kernel
}

// standardKernels is the standard kernel set, sized so that per-access
// simulator work — not setup — dominates a run. BenchmarkSWDSMKernelWall
// times the same set.
func standardKernels() []workload {
	return []workload{
		{"matmult", func(m apps.Machine) apps.Result { return apps.MatMult(m, 96) }},
		{"sor-opt", func(m apps.Machine) apps.Result { return apps.SOR(m, 192, 6, true) }},
		{"lu", func(m apps.Machine) apps.Result { return apps.LU(m, 96) }},
		{"stream", func(m apps.Machine) apps.Result { return apps.Stream(m, 1<<15, 8, 0) }},
	}
}

// kernelsCampaign is the standard set on a bare 4-node software DSM. It
// is the campaign -faults applies to: the same kernels over an
// interconnect that drops, delays or degrades, with retransmissions
// counted per kernel. Results stay deterministic for a fixed plan and
// seed.
func kernelsCampaign() Campaign {
	var cells []Cell
	for _, k := range standardKernels() {
		cells = append(cells, Cell{Workload: k.Name, Group: k.Name, Kernel: k.Kernel,
			Cluster: Cluster{Platform: "swdsm", Nodes: 4}})
	}
	return Campaign{
		Name:        "kernels",
		Description: "the standard kernel set on a bare 4-node software DSM, with per-category virtual-time attribution; the campaign -faults applies to",
		Cells:       cells,
		Columns:     []string{"workload", "platform", "nodes", "virtual", "msgs", "faults", "retries"},
	}
}

// pairedCells is the standard kernel set at 2 and 4 nodes, each kernel
// on the base cluster and then on the cluster under test.
func pairedCells(base, on Cluster) []Cell {
	var cells []Cell
	for _, nodes := range []int{2, 4} {
		base, on := base, on
		base.Nodes, on.Nodes = nodes, nodes
		for _, k := range standardKernels() {
			cells = append(cells, Cell{Workload: k.Name, Group: fmt.Sprintf("%s/%d", k.Name, nodes),
				Kernel: k.Kernel, Cluster: on, Baseline: &base})
		}
	}
	return cells
}

// checkpointCampaign prices coordinated checkpointing. Both legs run
// through the core services (checkpointing lives there), so the baseline
// is the honest reference for the checkpointed leg.
func checkpointCampaign() Campaign {
	base := Cluster{Platform: "swdsm", Binding: onCore}
	on := base
	on.CheckpointEvery, on.CheckpointIncremental = 2, true
	return Campaign{
		Name:        "checkpoint",
		Description: "checkpoint overhead: the standard kernels through the core services at 2 and 4 nodes, checkpointing off (baseline) vs an incremental coordinated snapshot every 2 barriers",
		Cells:       pairedCells(base, on),
		Columns:     []string{"workload", "nodes", "virtual base", "virtual", "virtual +%", "captures", "bytes"},
	}
}

// aggregationCampaign prices the protocol aggregation layer. Both legs
// run on the bare software DSM, the deterministic measurement path, so
// the baseline numbers are bit-reproducible.
func aggregationCampaign() Campaign {
	base := Cluster{Platform: "swdsm"}
	on := base
	on.Aggregation = swdsm.Aggregation{Batch: true, Prefetch: true}
	return Campaign{
		Name:        "aggregation",
		Description: "protocol aggregation: the standard kernels on the bare software DSM at 2 and 4 nodes, aggregation off (baseline) vs batched diff flush + notice piggybacking + adaptive prefetch",
		Cells:       pairedCells(base, on),
		Columns:     []string{"workload", "nodes", "virtual base", "virtual", "virtual +%", "msgs base", "msgs", "msgs +%"},
	}
}

// engineKernels is the standard set scaled down, because the
// write-invalidate engine's sharing traffic grows much faster with the
// working set than the scope protocol's: every false-shared write is a
// synchronous ownership round trip, not a deferred diff.
func engineKernels() []workload {
	return []workload{
		{"matmult", func(m apps.Machine) apps.Result { return apps.MatMult(m, 64) }},
		{"sor-opt", func(m apps.Machine) apps.Result { return apps.SOR(m, 96, 4, true) }},
		{"lu", func(m apps.Machine) apps.Result { return apps.LU(m, 64) }},
		{"stream", func(m apps.Machine) apps.Result { return apps.Stream(m, 1<<13, 4, 0) }},
	}
}

// enginesCampaign runs the identical kernels on every consistency
// engine. The scope engines' rows are bit-reproducible; the
// write-invalidate engine's message counts and virtual times are
// schedule-dependent under contention, its checksums are not.
func enginesCampaign() Campaign {
	var cells []Cell
	for _, nodes := range []int{2, 4} {
		for _, k := range engineKernels() {
			for _, eng := range consengine.Names() {
				cells = append(cells, Cell{Workload: k.Name, Group: fmt.Sprintf("%s/%d", k.Name, nodes),
					Kernel: k.Kernel, Cluster: Cluster{Platform: eng, Nodes: nodes}})
			}
		}
	}
	return Campaign{
		Name:        "engines",
		Description: "consistency engines: every selectable engine (scope, eager-rc, ivy) on the identical scaled-down kernel set, bare software DSM at 2 and 4 nodes",
		Cells:       cells,
		Columns:     []string{"workload", "platform", "model", "nodes", "virtual", "msgs", "faults", "invals", "migr"},
	}
}

// The scaling campaign's axes: cluster sizes; the legacy flat fabric as
// the baseline, the oversubscribed rack fabric as the stress case and
// the full-bisection fat tree between them; the two page-protocol
// families.
var (
	scalingNodeCounts = []int{8, 16, 64, 256}
	scalingTopologies = []string{simnet.TopoFlat, simnet.TopoRack, simnet.TopoFatTree}
	scalingEngines    = []string{consengine.ScopeName, consengine.IVYName}
)

// scalingKernel is one workload of the scaling campaign; size maps a
// cluster size to the kernel's problem parameter.
type scalingKernel struct {
	name, mode string
	size       func(nodes int) int
	kernel     func(n int) apps.Kernel
}

func scalingKernels() []scalingKernel {
	sor := func(n int) apps.Kernel {
		return func(m apps.Machine) apps.Result { return apps.SOR(m, n, 2, true) }
	}
	return []scalingKernel{
		// Strong scaling: fixed totals, shrinking per-node shares, so
		// synchronization and communication come to dominate.
		{"sor-opt", "strong", func(int) int { return 256 }, sor},
		{"matmult", "strong", func(int) int { return 128 },
			func(n int) apps.Kernel { return func(m apps.Machine) apps.Result { return apps.MatMult(m, n) } }},
		// Weak scaling: per-node share held constant, so the curves
		// isolate the protocols' scaling overheads.
		{"sor-opt", "weak", func(nodes int) int { return 4 * nodes }, sor},
		{"stream", "weak", func(nodes int) int { return 256 * nodes },
			func(n int) apps.Kernel {
				return func(m apps.Machine) apps.Result { return apps.Stream(m, n, 2, memsim.Block) }
			}},
	}
}

// scalingCampaign runs the kernel suite on both page-protocol families
// across fabrics and cluster sizes. Above hsync.Threshold nodes the
// software DSM switches to tree barriers and distributed lock queues, so
// the campaign exercises both regimes. Scope cells up to the threshold
// are bit-reproducible; ivy's message counts, and above the threshold
// both engines' virtual times, are schedule-dependent under contention.
// Checksums are exact in every cell.
func scalingCampaign() Campaign {
	var cells []Cell
	for _, k := range scalingKernels() {
		for _, nodes := range scalingNodeCounts {
			size := k.size(nodes)
			for _, topo := range scalingTopologies {
				for _, eng := range scalingEngines {
					cells = append(cells, Cell{Workload: k.name, Mode: k.mode, Problem: size,
						Group:   fmt.Sprintf("%s/%s/%d", k.name, k.mode, nodes),
						Kernel:  k.kernel(size),
						Cluster: Cluster{Platform: eng, Nodes: nodes, Topology: topo}})
				}
			}
		}
	}
	return Campaign{
		Name:        "scaling",
		Description: "scaling: strong- and weak-scaling kernels for the scope and ivy engines on the flat, rack and fattree fabrics at 8/16/64/256 nodes (strong = fixed problem, weak = problem grows with the cluster)",
		Cells:       cells,
		Columns:     []string{"workload", "mode", "platform", "topology", "nodes", "problem", "virtual", "msgs", "faults"},
		Footer:      crossover,
	}
}

// crossover reports, per (kernel, mode, topology), the cluster size from
// which ivy's virtual time beats the scope engine's at every larger
// measured size — the point where home-based scope consistency stops
// winning. At small scale the scope protocol wins (deferred diffs, cheap
// notices), but its barrier notice exchange and home-directed diff
// flushes concentrate traffic while ivy's ownership migrates to the
// writers. A lead that evaporates at larger sizes is not a crossover, so
// the scan looks for the last lead change.
func crossover(rows []Row) string {
	virt := map[string]uint64{}
	key := func(k scalingKernel, eng, topo string, nodes int) string {
		return Row{Workload: k.name, Mode: k.mode, Platform: eng, Topology: topo, Nodes: nodes}.id()
	}
	for _, r := range rows {
		virt[r.id()] = r.VirtualNs
	}
	s := "scope vs ivy crossover (cluster size from which write-invalidate stays ahead):\n"
	for _, k := range scalingKernels() {
		for _, topo := range scalingTopologies {
			cross := 0
			for _, nodes := range scalingNodeCounts {
				sc := virt[key(k, consengine.ScopeName, topo, nodes)]
				iv := virt[key(k, consengine.IVYName, topo, nodes)]
				switch {
				case sc == 0 || iv == 0:
				case iv >= sc:
					cross = 0
				case cross == 0:
					cross = nodes
				}
			}
			if cross > 0 {
				s += fmt.Sprintf("  %-10s %-7s %-8s ivy overtakes scope at %d nodes\n", k.name, k.mode, topo, cross)
			} else {
				s += fmt.Sprintf("  %-10s %-7s %-8s scope holds the lead through %d nodes\n",
					k.name, k.mode, topo, scalingNodeCounts[len(scalingNodeCounts)-1])
			}
		}
	}
	return s
}

// serveConfig is the standard serve configuration. Every cell shares the
// seed and horizon so rows differ only along the declared axes.
func serveConfig(workload string, zipf float64) serve.Config {
	return serve.Config{Workload: workload, Seed: 1009, Windows: 16, Sessions: 200_000, ZipfSkew: zipf}
}

// serveCampaign drives the server-shaped workloads of internal/serve
// with the deterministic open-loop load generator. One headline cell
// multiplexes a two-million client-session population; one cell crashes
// a node mid-traffic on a lossy wire and recovers it.
func serveCampaign() Campaign {
	var cells []Cell
	add := func(platform string, nodes int, cfg serve.Config) {
		// The group is everything that legitimately changes the op stream.
		cells = append(cells, Cell{Workload: cfg.Workload, Serve: &cfg,
			Group:   fmt.Sprintf("%s/%d/%.2f/%d/%d", cfg.Workload, nodes, cfg.ZipfSkew, cfg.Windows, cfg.Sessions),
			Cluster: Cluster{Platform: platform, Nodes: nodes}})
	}
	// The KV store on the hardware-coherent and hybrid machines and on
	// every consistency engine, uniform and skewed.
	for _, plat := range append([]string{"smp", "hybriddsm"}, consengine.Names()...) {
		for _, nodes := range []int{4, 16} {
			for _, zipf := range []float64{0, 0.99} {
				add(plat, nodes, serveConfig(serve.WorkloadKV, zipf))
			}
		}
	}
	// Scale-out: 64 nodes under skew on the two page-protocol families.
	for _, eng := range scalingEngines {
		add(eng, 64, serveConfig(serve.WorkloadKV, 0.99))
	}
	// The other workloads on the two protocol families.
	for _, w := range []string{serve.WorkloadPipeline, serve.WorkloadSyncLog} {
		for _, eng := range scalingEngines {
			for _, nodes := range []int{4, 16} {
				add(eng, nodes, serveConfig(w, 0.99))
			}
		}
	}
	// Headline: a two-million-session population at a 600 ns mean
	// aggregate gap over an 80 ms horizon — about two million ops, enough
	// offered load to saturate the hottest shard's home node, so offered
	// and achieved throughput visibly diverge.
	add(consengine.ScopeName, 16, serve.Config{Workload: serve.WorkloadKV, Seed: 1009,
		Windows: 160, WindowNs: 500_000, MeanGapNs: 600, Sessions: 2_000_000, ZipfSkew: 0.99})
	// Faulted: the 4-node skewed KV cell again, through the core services
	// on a 5%-drop wire with node 1 crashing at 1.5 virtual ms —
	// mid-traffic, several rounds in. It is in its unfaulted twin's group,
	// so it must land on the same checksum.
	add(consengine.ScopeName, 4, serveConfig(serve.WorkloadKV, 0.99))
	faulted := &cells[len(cells)-1].Cluster
	faulted.CheckpointEvery = 4
	faulted.Faults = &simnet.FaultPlan{
		NodeFaults: []simnet.NodeFault{{Node: 1, CrashAt: 1_500_000}},
		DropProb:   0.05,
		Recover:    true,
		Seed:       3,
	}
	return Campaign{
		Name:        "serve",
		Description: "serve: sharded KV store, event pipeline and sync/replication log under open-loop load with Zipfian keys, across substrates (smp, hybriddsm), engines (scope, eager-rc, ivy), cluster sizes (4/16/64) and skews (0, 0.99), plus a 2M-session headline cell and a crash-recovery cell on a 5%-drop wire; virtual-time latencies, every column replays bit-identically",
		Cells:       cells,
		Columns:     []string{"workload", "platform", "nodes", "zipf", "ops", "stalls", "offered/s", "achieved/s", "p50", "p95", "p99", "F"},
		Footer:      serveCallouts,
	}
}

// serveCallouts renders the headline saturation and the recovery
// call-outs.
func serveCallouts(rows []Row) string {
	var s string
	for _, r := range rows {
		if r.Sessions >= 1_000_000 {
			s += fmt.Sprintf("  headline: %s multiplexed a %d-session population (%d distinct sessions issued traffic);\n"+
				"  offered %.1fM ops/s vs achieved %.1fM ops/s — the hot shard's home node saturates (busy %d ns over a %d ns horizon)\n\n",
				r.id(), r.Sessions, r.SessionsTouched,
				r.OfferedPerSec/1e6, r.AchievedPerSec/1e6, r.MaxBusyNs, r.HorizonNs)
		}
		if r.Faulted {
			s += fmt.Sprintf("  recovery: the faulted cell (5%% drops, node 1 crashed mid-traffic) recovered %d time(s)\n"+
				"  through the cluster orchestrator and landed on the unfaulted checksum %s exactly\n",
				r.Recoveries, r.Check)
		}
	}
	return s
}
