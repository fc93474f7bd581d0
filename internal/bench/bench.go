// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (§5) from the simulated platforms.
//
//   - Table 1: benchmarks and working sets.
//   - Table 2: implementation complexity of the programming models
//     (delegated to internal/apicount).
//   - Figure 2: overhead of execution with HAMSTER compared to native
//     execution on JiaJia, 4 nodes.
//   - Figure 3: performance of Hybrid-DSM with SW-DSM as baseline, 4 nodes.
//   - Figure 4: Hardware- vs Hybrid- vs Software-DSM, 2 nodes.
//
// Absolute numbers depend on the simulator's cost model; the reproduction
// target is the shape — signs, rough factors, crossovers (see
// EXPERIMENTS.md).
package bench

import (
	"fmt"
	"strings"

	"hamster"
	"hamster/internal/apps"
	"hamster/internal/machine"
	"hamster/internal/swdsm"
	"hamster/internal/vclock"
	"hamster/models/jiajia"
)

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

// Default returns the harness workloads (a minute or two for all figures).
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

// workload is one benchmark binary to execute.
type workload struct {
	Name   string
	Kernel apps.Kernel
}

// workloads enumerates the benchmark runs (LU and WATER runs feed several
// figure series each).
func workloads(sz Sizes) []workload {
	return []workload{
		{"matmult", func(m apps.Machine) apps.Result { return apps.MatMult(m, sz.MatN) }},
		{"pi", func(m apps.Machine) apps.Result { return apps.PI(m, sz.PIIters) }},
		{"sor-opt", func(m apps.Machine) apps.Result { return apps.SOR(m, sz.SORN, sz.SORIters, true) }},
		{"sor", func(m apps.Machine) apps.Result { return apps.SOR(m, sz.SORN, sz.SORIters, false) }},
		{"lu", func(m apps.Machine) apps.Result { return apps.LU(m, sz.LUN) }},
		{"water1", func(m apps.Machine) apps.Result { return apps.Water(m, sz.Water1, sz.WaterSteps) }},
		{"water2", func(m apps.Machine) apps.Result { return apps.Water(m, sz.Water2, sz.WaterSteps) }},
	}
}

// series is one bar of the figures: a workload plus a phase extractor.
type series struct {
	Name     string
	Workload string
	Extract  func([]apps.Result) vclock.Duration
}

// allSeries enumerates the ten series of Figures 2–4 in paper order.
func allSeries(sz Sizes) []series {
	total := apps.MaxTotal
	phase := func(sel func(apps.Timings) vclock.Duration) func([]apps.Result) vclock.Duration {
		return func(rs []apps.Result) vclock.Duration { return apps.MaxPhase(rs, sel) }
	}
	return []series{
		{"MatMult", "matmult", total},
		{"PI", "pi", total},
		{"SOR opt", "sor-opt", total},
		{"SOR", "sor", total},
		{"LU all", "lu", total},
		{"LU", "lu", phase(func(t apps.Timings) vclock.Duration { return t.Total - t.Init })},
		{"LU core", "lu", phase(func(t apps.Timings) vclock.Duration { return t.Core })},
		{"LU bar", "lu", phase(func(t apps.Timings) vclock.Duration { return t.Bar })},
		{fmt.Sprintf("WATER %d", sz.Water1), "water1", total},
		{fmt.Sprintf("WATER %d", sz.Water2), "water2", total},
	}
}

// runNative runs every workload on unmodified "native JiaJia": the bare
// software-DSM substrate with its own (uncoalesced) messaging stack.
func runNative(sz Sizes, nodes int) map[string][]apps.Result {
	out := make(map[string][]apps.Result)
	for _, w := range workloads(sz) {
		d, err := swdsm.New(swdsm.Config{
			Nodes:  nodes,
			Params: sz.params().WithMessaging(machine.Separate),
		})
		if err != nil {
			panic(err)
		}
		out[w.Name] = apps.RunOnSubstrate(d, w.Kernel)
		d.Close()
	}
	return out
}

// runHamster runs every workload through HAMSTER with the JiaJia model on
// the given platform.
func runHamster(sz Sizes, kind hamster.PlatformKind, nodes int) map[string][]apps.Result {
	out := make(map[string][]apps.Result)
	for _, w := range workloads(sz) {
		sys, err := jiajia.Boot(hamster.Config{Platform: kind, Nodes: nodes, Params: sz.params()})
		if err != nil {
			panic(err)
		}
		out[w.Name] = apps.RunOnJia(sys, w.Kernel)
		sys.Shutdown()
	}
	return out
}

// Fig2Row is one bar of Figure 2.
type Fig2Row struct {
	Name        string
	Native      vclock.Duration
	Hamster     vclock.Duration
	OverheadPct float64 // positive = HAMSTER slower than native
}

// Figure2 measures HAMSTER overhead versus native JiaJia execution on
// four nodes.
func Figure2(sz Sizes) []Fig2Row {
	const nodes = 4
	native := runNative(sz, nodes)
	ham := runHamster(sz, hamster.SWDSM, nodes)
	var rows []Fig2Row
	for _, s := range allSeries(sz) {
		n := s.Extract(native[s.Workload])
		h := s.Extract(ham[s.Workload])
		rows = append(rows, Fig2Row{
			Name:        s.Name,
			Native:      n,
			Hamster:     h,
			OverheadPct: pctDiff(h, n),
		})
	}
	return rows
}

// Fig3Row is one bar of Figure 3.
type Fig3Row struct {
	Name         string
	SW           vclock.Duration
	Hybrid       vclock.Duration
	AdvantagePct float64 // positive = hybrid faster
}

// Figure3 compares Hybrid-DSM against Software-DSM on four nodes with
// identical binaries (only the HAMSTER configuration differs).
func Figure3(sz Sizes) []Fig3Row {
	const nodes = 4
	sw := runHamster(sz, hamster.SWDSM, nodes)
	hy := runHamster(sz, hamster.HybridDSM, nodes)
	var rows []Fig3Row
	for _, s := range allSeries(sz) {
		tSW := s.Extract(sw[s.Workload])
		tHy := s.Extract(hy[s.Workload])
		rows = append(rows, Fig3Row{
			Name:         s.Name,
			SW:           tSW,
			Hybrid:       tHy,
			AdvantagePct: pctDiff(tSW, tHy),
		})
	}
	return rows
}

// Fig4Row is one benchmark of Figure 4: three platforms on two nodes
// (or two CPUs for the hardware-DSM/SMP case), speeds normalized to the
// hardware DSM.
type Fig4Row struct {
	Name      string
	HW        vclock.Duration
	Hybrid    vclock.Duration
	SW        vclock.Duration
	HybridPct float64 // speed relative to HW (=100%)
	SWPct     float64
}

// Figure4 compares Hardware-, Hybrid-, and Software-DSM on two nodes.
func Figure4(sz Sizes) []Fig4Row {
	const nodes = 2
	hw := runHamster(sz, hamster.SMP, nodes)
	hy := runHamster(sz, hamster.HybridDSM, nodes)
	sw := runHamster(sz, hamster.SWDSM, nodes)
	var rows []Fig4Row
	for _, s := range allSeries(sz) {
		tHW := s.Extract(hw[s.Workload])
		tHy := s.Extract(hy[s.Workload])
		tSW := s.Extract(sw[s.Workload])
		rows = append(rows, Fig4Row{
			Name: s.Name, HW: tHW, Hybrid: tHy, SW: tSW,
			HybridPct: speedPct(tHW, tHy),
			SWPct:     speedPct(tHW, tSW),
		})
	}
	return rows
}

// Table1Row describes one benchmark and its working set.
type Table1Row struct {
	Benchmark  string
	WorkingSet string
}

// Table1 lists the benchmarks with the configured working sets.
func Table1(sz Sizes) []Table1Row {
	return []Table1Row{
		{"Matrix Multiplication", fmt.Sprintf("%dx%d matrix", sz.MatN, sz.MatN)},
		{"Computation of pi", fmt.Sprintf("%d intervals", sz.PIIters)},
		{"Successive Over Relaxation (SOR)", fmt.Sprintf("%dx%d matrix", sz.SORN, sz.SORN)},
		{"LU Decomposition", fmt.Sprintf("%dx%d matrix", sz.LUN, sz.LUN)},
		{"WATER (Molecular Simulation)", fmt.Sprintf("%d / %d molecules", sz.Water1, sz.Water2)},
	}
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

// bar renders a signed horizontal ASCII bar for ±scale percent.
func bar(pct, scale float64, width int) string {
	if scale <= 0 {
		scale = 1
	}
	half := width / 2
	n := int(pct / scale * float64(half))
	if n > half {
		n = half
	}
	if n < -half {
		n = -half
	}
	b := []byte(strings.Repeat(" ", width+1))
	b[half] = '|'
	if n >= 0 {
		for i := 1; i <= n; i++ {
			b[half+i] = '#'
		}
	} else {
		for i := 1; i <= -n; i++ {
			b[half-i] = '#'
		}
	}
	return string(b)
}

// RenderFigure2 formats Figure 2 with signed bars.
func RenderFigure2(rows []Fig2Row) string {
	var b strings.Builder
	b.WriteString("Figure 2: Overhead of Execution with HAMSTER Compared to Native\n")
	b.WriteString("Execution on JiaJia (4 Nodes); positive = slowdown\n\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %7.2f%%  %s  (native %v, hamster %v)\n",
			r.Name, r.OverheadPct, bar(r.OverheadPct, 8, 32), r.Native, r.Hamster)
	}
	return b.String()
}

// RenderFigure3 formats Figure 3 with signed bars.
func RenderFigure3(rows []Fig3Row) string {
	var b strings.Builder
	b.WriteString("Figure 3: Performance of Hybrid-DSM with SW-DSM as Baseline (4 Nodes);\n")
	b.WriteString("positive = advantage for Hybrid-DSM\n\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %7.1f%%  %s  (sw %v, hybrid %v)\n",
			r.Name, r.AdvantagePct, bar(r.AdvantagePct, 60, 32), r.SW, r.Hybrid)
	}
	return b.String()
}

// RenderFigure4 formats Figure 4 as grouped speed percentages.
func RenderFigure4(rows []Fig4Row) string {
	var b strings.Builder
	b.WriteString("Figure 4: Performance of Hardware-, Hybrid-, and Software-DSM (2 Nodes);\n")
	b.WriteString("speed relative to Hardware-DSM = 100%\n\n")
	fmt.Fprintf(&b, "%-10s %10s %10s %10s\n", "", "Hardware", "Hybrid", "Software")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %9.0f%% %9.1f%% %9.1f%%   (hw %v)\n",
			r.Name, 100.0, r.HybridPct, r.SWPct, r.HW)
	}
	return b.String()
}

// RenderTable1 formats Table 1.
func RenderTable1(rows []Table1Row) string {
	var b strings.Builder
	b.WriteString("Table 1: Benchmarks and Their Working Sets\n\n")
	fmt.Fprintf(&b, "%-36s %s\n", "Benchmark", "Working Set")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-36s %s\n", r.Benchmark, r.WorkingSet)
	}
	return b.String()
}
