// Benchmarks regenerating the paper's evaluation: Table 2, the figures
// campaign and the ablations campaign. Each iteration runs the complete
// experiment at test-scale working sets and reports the paper's headline
// metrics via b.ReportMetric; run the hamsterbench command for full-size,
// paper-style renderings.
//
//	go test -run '^$' -bench=. -benchmem ./internal/bench/
package bench

import (
	"math"
	"testing"

	"hamster/internal/apicount"
	"hamster/internal/apps"
	"hamster/internal/swdsm"
)

// BenchmarkTable2Complexity measures the Table 2 counting pass over the
// programming-model packages (the paper's nine plus the openmp extension).
func BenchmarkTable2Complexity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := apicount.CountModels("../../models")
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 10 {
			b.Fatalf("models counted = %d", len(rows))
		}
		var lines, calls int
		for _, r := range rows {
			lines += r.Lines
			calls += r.APICalls
		}
		b.ReportMetric(float64(lines)/float64(calls), "lines/call")
	}
}

// BenchmarkFigures runs the figures campaign — every Table 1 workload on
// the six clusters of Figures 2–4 — and reports each figure's headline:
// Figure 2's worst-case absolute overhead, Figure 3's unoptimized SOR
// advantage (the locality result) and Figure 4's MatMult hybrid speed
// relative to the SMP (the separate-memory-bus crossover).
func BenchmarkFigures(b *testing.B) {
	c, err := Campaigns(Small()).Lookup("figures")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		rep, err := Run(c, 0)
		if err != nil {
			b.Fatal(err)
		}
		worst := 0.0
		for _, r := range figureBars(Small(), rep.Rows) {
			worst = max(worst, math.Abs(r.overhead))
			switch r.name {
			case "SOR":
				b.ReportMetric(r.advantage, "sor-advantage%")
			case "MatMult":
				b.ReportMetric(r.hybridSpeed, "matmult-hybrid%")
			}
		}
		b.ReportMetric(worst, "max|overhead|%")
	}
}

// BenchmarkAblations runs the ablations campaign and reports each
// ablation's last leg relative to its first.
func BenchmarkAblations(b *testing.B) {
	c, err := Campaigns(Small()).Lookup("ablations")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		rep, err := Run(c, 0)
		if err != nil {
			b.Fatal(err)
		}
		for name, legs := range ablationLegs(rep.Rows) {
			b.ReportMetric(legs[len(legs)-1].ratio, name+"-last/first")
		}
	}
}

// BenchmarkSWDSMKernelWall measures the standard kernels on the software
// DSM — the substrate whose per-word simulation overhead dominates large
// runs — in REAL time (simulator throughput), not virtual time: the
// bulk-access fast path must cut wall-clock cost without moving the
// modeled virtual-time results (see EXPERIMENTS.md).
//
//	go test -run '^$' -bench=KernelWall -benchtime=2x ./internal/bench/
func BenchmarkSWDSMKernelWall(b *testing.B) {
	for _, c := range standardKernels() {
		b.Run(c.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d, err := swdsm.New(swdsm.Config{Nodes: 4})
				if err != nil {
					b.Fatal(err)
				}
				res := apps.RunOnSubstrate(d, c.Kernel)
				d.Close()
				if apps.MaxTotal(res) == 0 {
					b.Fatal("kernel reported zero virtual time")
				}
			}
		})
	}
}
