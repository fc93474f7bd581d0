package bench

import (
	"fmt"
	"strings"

	"hamster"
	"hamster/internal/apps"
	"hamster/internal/machine"
	"hamster/internal/memsim"
	"hamster/internal/multidsm"
	"hamster/internal/vclock"
)

// The paper's evaluation as two campaigns: figures (Table 1's workloads
// on the clusters of Figures 2–4) and ablations (DESIGN.md's design
// choices). Both are built at a Sizes; no other campaign reads one.

// Sizes fixes the working sets. The paper uses 1024×1024 matrices; the
// defaults here are scaled so the whole suite runs in seconds while
// preserving the access-pattern structure (WATER keeps the paper's
// molecule counts).
type Sizes struct {
	MatN       int
	PIIters    int
	SORN       int
	SORIters   int
	LUN        int
	Water1     int
	Water2     int
	WaterSteps int
	// CachePages scales the modeled CPU cache with the working sets
	// (0 = the testbed's 128-page / 512 KiB cache). Shrinking working
	// sets without shrinking the cache would erase the memory-bound
	// behavior Figure 4's MatMult crossover depends on.
	CachePages int
}

// Small returns test-sized workloads. PI keeps a large interval count in
// every configuration: its inner loop is pure local arithmetic, so it is
// cheap in real time, and a compute-starved PI would misrepresent the
// paper's "embarrassingly parallel" series as synchronization-bound.
func Small() Sizes {
	return Sizes{MatN: 48, PIIters: 8_000_000, SORN: 64, SORIters: 3,
		LUN: 48, Water1: 48, Water2: 64, WaterSteps: 2, CachePages: 8}
}

// Default returns the harness workloads (a minute or two for both
// campaigns).
func Default() Sizes {
	return Sizes{MatN: 256, PIIters: 30_000_000, SORN: 256, SORIters: 8,
		LUN: 224, Water1: 288, Water2: 343, WaterSteps: 2}
}

// Paper returns the paper's working sets (tens of minutes of real time).
func Paper() Sizes {
	return Sizes{MatN: 1024, PIIters: 200_000_000, SORN: 1024, SORIters: 10,
		LUN: 1024, Water1: 288, Water2: 343, WaterSteps: 3}
}

// params returns the cost model for this sizes configuration.
func (sz Sizes) params() machine.Params {
	p := machine.Default()
	if sz.CachePages > 0 {
		p.Bus.CachePages = sz.CachePages
	}
	return p
}

// figureLegs are the six clusters of Figures 2–4. Native JiaJia is the
// bare software DSM with its own, uncoalesced messaging stack; the others
// run the same JiaJia programs over HAMSTER. Figure 2 compares legs 0
// and 1, Figure 3 legs 1 and 2, Figure 4 legs 3, 4 and 5.
var figureLegs = []struct {
	mode, platform string
	nodes          int
}{
	{"native", "swdsm", 4}, {"hamster", "swdsm", 4}, {"hamster", "hybriddsm", 4},
	{"hamster", "smp", 2}, {"hamster", "hybriddsm", 2}, {"hamster", "swdsm", 2},
}

// series is one bar of Figures 2–4: the workload it is measured on and
// the reading it plots.
type series struct {
	name, workload string
	time           func(Row) uint64
}

// figureSeries are the ten bars of Figures 2–4 in paper order; LU and
// WATER feed several bars each.
func figureSeries(sz Sizes) []series {
	total := func(r Row) uint64 { return r.VirtualNs }
	return []series{
		{"MatMult", "matmult", total}, {"PI", "pi", total}, {"SOR opt", "sor-opt", total}, {"SOR", "sor", total},
		{"LU all", "lu", total},
		{"LU", "lu", func(r Row) uint64 { return r.AfterInitNs }},
		{"LU core", "lu", func(r Row) uint64 { return r.CoreNs }},
		{"LU bar", "lu", func(r Row) uint64 { return r.BarNs }},
		{fmt.Sprintf("WATER %d", sz.Water1), "water1", total},
		{fmt.Sprintf("WATER %d", sz.Water2), "water2", total},
	}
}

// figuresCampaign runs Table 1's seven workloads on the six figure legs:
// 42 runs, from which the footer derives the three figures.
func figuresCampaign(sz Sizes) Campaign {
	workloads := []workload{
		{"matmult", func(m apps.Machine) apps.Result { return apps.MatMult(m, sz.MatN) }},
		{"pi", func(m apps.Machine) apps.Result { return apps.PI(m, sz.PIIters) }},
		{"sor-opt", func(m apps.Machine) apps.Result { return apps.SOR(m, sz.SORN, sz.SORIters, true) }},
		{"sor", func(m apps.Machine) apps.Result { return apps.SOR(m, sz.SORN, sz.SORIters, false) }},
		{"lu", func(m apps.Machine) apps.Result { return apps.LU(m, sz.LUN) }},
		{"water1", func(m apps.Machine) apps.Result { return apps.Water(m, sz.Water1, sz.WaterSteps) }},
		{"water2", func(m apps.Machine) apps.Result { return apps.Water(m, sz.Water2, sz.WaterSteps) }},
	}
	var cells []Cell
	for _, w := range workloads {
		for _, l := range figureLegs {
			cl := Cluster{Platform: l.platform, Nodes: l.nodes, Params: sz.params(), Binding: onJiaJia}
			if l.mode == "native" {
				cl.Binding, cl.Messaging = bare, hamster.Separate
			}
			// Every platform computes the same bits at one node count.
			// PI's and WATER's float sums are taken in lock-grant order,
			// so each of their cells is a group of its own until ROADMAP
			// item 1(b) makes that order deterministic.
			group := fmt.Sprintf("%s/%d", w.Name, l.nodes)
			if w.Name == "pi" || strings.HasPrefix(w.Name, "water") {
				group = fmt.Sprintf("%s/%s/%s/%d", w.Name, l.mode, l.platform, l.nodes)
			}
			cells = append(cells, Cell{Workload: w.Name, Mode: l.mode, Group: group, Kernel: w.Kernel, Cluster: cl})
		}
	}
	return Campaign{
		Name: "figures",
		Description: "Figures 2–4: Table 1's workloads as JiaJia programs, native on swdsm/4 and over HAMSTER on swdsm/4, hybriddsm/4, smp/2, hybriddsm/2 and swdsm/2\n\n" +
			"Table 1: Benchmarks and Their Working Sets\n\n" +
			fmt.Sprintf("%-36s %s\n", "Benchmark", "Working Set") +
			fmt.Sprintf("%-36s %dx%d matrix\n", "Matrix Multiplication", sz.MatN, sz.MatN) +
			fmt.Sprintf("%-36s %d intervals\n", "Computation of pi", sz.PIIters) +
			fmt.Sprintf("%-36s %dx%d matrix\n", "Successive Over Relaxation (SOR)", sz.SORN, sz.SORN) +
			fmt.Sprintf("%-36s %dx%d matrix\n", "LU Decomposition", sz.LUN, sz.LUN) +
			fmt.Sprintf("%-36s %d / %d molecules", "WATER (Molecular Simulation)", sz.Water1, sz.Water2),
		Sized:   true,
		Cells:   cells,
		Columns: []string{"workload", "mode", "platform", "nodes", "virtual", "msgs", "faults"},
		Footer:  func(rows []Row) string { return renderFigures(figureBars(sz, rows)) },
	}
}

// figureBar is one series of Figures 2–4: its time on each figure leg
// and the percentages the figures plot.
type figureBar struct {
	name string
	t    [6]vclock.Duration // by figureLegs index
	// overhead is Figure 2's bar (positive: HAMSTER slower than native),
	// advantage Figure 3's (positive: hybrid faster), and the speeds
	// Figure 4's, relative to the SMP (=100%).
	overhead, advantage, hybridSpeed, swSpeed float64
}

// figureBars derives Figures 2–4 from the figures campaign's rows.
func figureBars(sz Sizes, rows []Row) []figureBar {
	byID := map[string]Row{}
	for _, r := range rows {
		byID[r.id()] = r
	}
	var bars []figureBar
	for _, s := range figureSeries(sz) {
		b := figureBar{name: s.name}
		for i, l := range figureLegs {
			b.t[i] = vclock.Duration(s.time(byID[Row{Workload: s.workload, Mode: l.mode, Platform: l.platform, Nodes: l.nodes}.id()]))
		}
		b.overhead, b.advantage = pctDiff(b.t[1], b.t[0]), pctDiff(b.t[1], b.t[2])
		b.hybridSpeed, b.swSpeed = speedPct(b.t[3], b.t[4]), speedPct(b.t[3], b.t[5])
		bars = append(bars, b)
	}
	return bars
}

// renderFigures prints the three figures: signed bars for Figures 2 and
// 3, speed percentages for Figure 4.
func renderFigures(bars []figureBar) string {
	s := "Figure 2: Overhead of Execution with HAMSTER Compared to Native\nExecution on JiaJia (4 Nodes); positive = slowdown\n\n"
	for _, r := range bars {
		s += fmt.Sprintf("%-10s %7.2f%%  %s  (native %v, hamster %v)\n", r.name, r.overhead, bar(r.overhead, 8, 32), r.t[0], r.t[1])
	}
	s += "\nFigure 3: Performance of Hybrid-DSM with SW-DSM as Baseline (4 Nodes);\npositive = advantage for Hybrid-DSM\n\n"
	for _, r := range bars {
		s += fmt.Sprintf("%-10s %7.1f%%  %s  (sw %v, hybrid %v)\n", r.name, r.advantage, bar(r.advantage, 60, 32), r.t[1], r.t[2])
	}
	s += "\nFigure 4: Performance of Hardware-, Hybrid-, and Software-DSM (2 Nodes);\nspeed relative to Hardware-DSM = 100%\n\n"
	s += fmt.Sprintf("%-10s %10s %10s %10s\n", "", "Hardware", "Hybrid", "Software")
	for _, r := range bars {
		s += fmt.Sprintf("%-10s %9.0f%% %9.1f%% %9.1f%%   (hw %v)\n", r.name, 100.0, r.hybridSpeed, r.swSpeed, r.t[3])
	}
	return s
}

// postedWrites names the one ablation that measures a phase, not the
// whole run: LU's write-only initialization.
const postedWrites = "posted-writes"

// ablationsCampaign runs every design-choice experiment DESIGN.md calls
// out. An ablation's legs run one program (Workload names the ablation,
// Mode the leg) on machines that differ in one choice, and must agree on
// its checksum.
func ablationsCampaign(sz Sizes) Campaign {
	var cells []Cell
	var heads []struct{ name, title, note string }
	add := func(name, title, note string, kernel apps.Kernel, legs ...Cell) {
		heads = append(heads, struct{ name, title, note string }{name, title, note})
		for _, leg := range legs {
			leg.Workload, leg.Group, leg.Cluster.Params = name, name, sz.params()
			if leg.Kernel == nil {
				leg.Kernel = kernel
			}
			cells = append(cells, leg)
		}
	}
	add("messaging", "messaging integration (coalesced vs separate stacks)",
		"unoptimized SOR on SW-DSM, 4 nodes; every fault/sync message pays the stack penalty when separate",
		func(m apps.Machine) apps.Result { return apps.SOR(m, sz.SORN, sz.SORIters, false) },
		Cell{Mode: "coalesced", Cluster: Cluster{Platform: "swdsm", Nodes: 4, Binding: onJiaJia}},
		Cell{Mode: "separate", Cluster: Cluster{Platform: "swdsm", Nodes: 4, Binding: onJiaJia, Messaging: hamster.Separate}})
	n := max(sz.SORN/4, 16)
	add("consistency", "consistency model (scope vs sequential)",
		fmt.Sprintf("SOR %dx%d on SW-DSM, 2 nodes; sequential fences around every access", n, n),
		func(m apps.Machine) apps.Result { return apps.SOR(m, n, 2, true) },
		Cell{Mode: "relaxed", Cluster: Cluster{Platform: "swdsm", Nodes: 2, Binding: onCore}},
		Cell{Mode: "sequential", Cluster: Cluster{Platform: "swdsm", Nodes: 2, Binding: onCoreSeq}})
	// The core path honors every distribution annotation (the jia_* API
	// only exposes block and cyclic allocation).
	stream := func(mode string, pol memsim.Policy) Cell {
		return Cell{Mode: mode, Cluster: Cluster{Platform: "hybriddsm", Nodes: 4, Binding: onCore},
			Kernel: func(m apps.Machine) apps.Result { return apps.Stream(m, 256*sz.SORN, 3, pol) }}
	}
	add("placement", "distribution annotation (hybrid DSM)",
		fmt.Sprintf("stream over %d doubles, 4 nodes; placement decides how many accesses leave the node", 256*sz.SORN),
		nil, stream("block", memsim.Block), stream("cyclic", memsim.Cyclic), stream("fixed-node0", memsim.Fixed))
	add(postedWrites, "posted remote writes (hybrid DSM)",
		fmt.Sprintf("LU %dx%d init phase, 4 nodes; PIO stores pay full remote latency per word", sz.LUN, sz.LUN),
		func(m apps.Machine) apps.Result { return apps.LU(m, sz.LUN) },
		Cell{Mode: "posted", Cluster: Cluster{Platform: "hybriddsm", Nodes: 4}},
		Cell{Mode: "pio", Cluster: Cluster{Platform: "hybriddsm", Nodes: 4, New: synchronousPIO}})
	// The mixed workload (dense read stream + scattered remote writes) on
	// the two-engine substrate: all regions on the software engine, all on
	// the raw hybrid engine, each routed to the engine that suits it.
	tailored := map[memsim.Policy]multidsm.Engine{memsim.Block: multidsm.SW, memsim.Cyclic: multidsm.Hybrid}
	add("multi-dsm", "multi-DSM composition (§6 future work)",
		fmt.Sprintf("stream of %d doubles + %d scattered-write pages, 4 nodes; regions routed per engine", 64*sz.SORN, 24),
		func(m apps.Machine) apps.Result { return apps.MixedRW(m, 64*sz.SORN, 24, 3) },
		Cell{Mode: "all-sw", Cluster: Cluster{Platform: "multidsm", Nodes: 4, New: multiDSM(nil, multidsm.SW)}},
		Cell{Mode: "all-hybrid", Cluster: Cluster{Platform: "multidsm", Nodes: 4, New: multiDSM(nil, multidsm.Hybrid)}},
		Cell{Mode: "tailored", Cluster: Cluster{Platform: "multidsm", Nodes: 4, New: multiDSM(tailored, multidsm.SW)}})
	// Fixed placement homes everything on node 0; nodes 1-3 are single
	// writers of their blocks — migration bait.
	add("home-migration", "home migration (software DSM single-writer optimization)",
		fmt.Sprintf("each node rewrites its block of %d doubles homed on node 0, 12 iterations", 64*sz.SORN),
		func(m apps.Machine) apps.Result { return apps.OwnerWrites(m, 64*sz.SORN, 12, memsim.Fixed) },
		Cell{Mode: "off", Cluster: Cluster{Platform: "swdsm", Nodes: 4}},
		Cell{Mode: "after-2", Cluster: Cluster{Platform: "swdsm", Nodes: 4, New: migrateAfter2}})
	// Disjoint lock scopes on shared pages: scope keeps everyone's cached
	// pages valid, eager RC invalidates on every release.
	add("protocol", "consistency protocol (scope vs eager release consistency)",
		"48 single-writer counters under 48 disjoint locks, shared pages, 4 nodes, 8 rounds",
		func(m apps.Machine) apps.Result { return apps.DisjointLocks(m, 48, 8) },
		Cell{Mode: "scope", Cluster: Cluster{Platform: "scope", Nodes: 4}},
		Cell{Mode: "eager-rc", Cluster: Cluster{Platform: "eager-rc", Nodes: 4}})
	return Campaign{
		Name:        "ablations",
		Description: "the design choices DESIGN.md calls out (§5), each as legs of one program on machines that differ in that one choice",
		Sized:       true,
		Cells:       cells,
		Columns:     []string{"workload", "mode", "platform", "nodes", "virtual", "msgs", "faults"},
		Footer: func(rows []Row) string {
			legs := ablationLegs(rows)
			s := "Ablations: design choices called out in DESIGN.md\n"
			for _, h := range heads {
				s += fmt.Sprintf("\n%s\n  %s\n", h.title, h.note)
				for _, l := range legs[h.name] {
					s += fmt.Sprintf("  %-18s %12v  (%.2fx)\n", l.mode, l.t, l.ratio)
				}
			}
			return s
		},
	}
}

// ablationLeg is one leg's reading: the slowest node's time (its
// initialization, in the posted-writes ablation) and its ratio to the
// ablation's first leg.
type ablationLeg struct {
	mode  string
	t     vclock.Duration
	ratio float64
}

// ablationLegs derives every ablation's legs, in cell order, from the
// ablations campaign's rows, keyed by ablation.
func ablationLegs(rows []Row) map[string][]ablationLeg {
	out := map[string][]ablationLeg{}
	for _, r := range rows {
		t := vclock.Duration(r.VirtualNs)
		if r.Workload == postedWrites {
			t = vclock.Duration(r.InitNs)
		}
		l := ablationLeg{mode: r.Mode, t: t, ratio: 1}
		if first := out[r.Workload]; len(first) > 0 && first[0].t > 0 {
			l.ratio = float64(t) / float64(first[0].t)
		}
		out[r.Workload] = append(out[r.Workload], l)
	}
	return out
}

// pctDiff returns (a-b)/b in percent.
func pctDiff(a, b vclock.Duration) float64 {
	if b == 0 {
		return 0
	}
	return (float64(a) - float64(b)) / float64(b) * 100
}

// speedPct returns the speed of x relative to the reference ref (=100%):
// faster than ref yields > 100.
func speedPct(ref, x vclock.Duration) float64 {
	if x == 0 {
		return 0
	}
	return float64(ref) / float64(x) * 100
}

// bar renders a signed horizontal ASCII bar for ±scale percent, width+1
// characters with the zero mark in the middle.
func bar(pct, scale float64, width int) string {
	half := width / 2
	n := max(-half, min(half, int(pct/scale*float64(half))))
	neg, pos := max(0, -n), max(0, n)
	return strings.Repeat(" ", half-neg) + strings.Repeat("#", neg) + "|" + strings.Repeat("#", pos) + strings.Repeat(" ", width-half-pos)
}
