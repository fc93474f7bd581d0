// Benchmarks regenerating the paper's evaluation, one per table and
// figure (plus the DESIGN.md ablations). Each benchmark iteration runs the
// complete experiment at test-scale working sets and reports the paper's
// headline metric via b.ReportMetric; run the hamsterbench command for
// full-size, paper-style renderings.
//
//	go test -run '^$' -bench=. -benchmem ./internal/bench/
package bench

import (
	"testing"

	"hamster/internal/apicount"
	"hamster/internal/apps"
	"hamster/internal/swdsm"
)

// BenchmarkTable1Workloads executes every Table 1 workload once on the
// software DSM through the full HAMSTER stack (the configuration the
// paper's Table 1 accompanies).
func BenchmarkTable1Workloads(b *testing.B) {
	sz := Small()
	if rows := Table1(sz); len(rows) != 5 {
		b.Fatalf("table 1 rows = %d", len(rows))
	}
	for i := 0; i < b.N; i++ {
		rows := Figure2(sz) // runs all workloads native+HAMSTER
		if len(rows) != 10 {
			b.Fatal("workload sweep incomplete")
		}
	}
}

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

// BenchmarkFigure2Overhead regenerates Figure 2 (HAMSTER vs native JiaJia,
// 4 nodes) and reports the worst-case absolute overhead percentage.
func BenchmarkFigure2Overhead(b *testing.B) {
	sz := Small()
	for i := 0; i < b.N; i++ {
		rows := Figure2(sz)
		worst := 0.0
		for _, r := range rows {
			if v := r.OverheadPct; v > worst {
				worst = v
			} else if -v > worst {
				worst = -v
			}
		}
		b.ReportMetric(worst, "max|overhead|%")
	}
}

// BenchmarkFigure3HybridVsSW regenerates Figure 3 (hybrid vs software DSM,
// 4 nodes) and reports the unoptimized SOR advantage — the paper's
// headline locality result.
func BenchmarkFigure3HybridVsSW(b *testing.B) {
	sz := Small()
	for i := 0; i < b.N; i++ {
		rows := Figure3(sz)
		for _, r := range rows {
			if r.Name == "SOR" {
				b.ReportMetric(r.AdvantagePct, "sor-advantage%")
			}
		}
	}
}

// BenchmarkFigure4ThreePlatforms regenerates Figure 4 (hardware vs hybrid
// vs software DSM, 2 nodes) and reports MatMult's hybrid speed relative to
// the SMP — the separate-memory-bus crossover.
func BenchmarkFigure4ThreePlatforms(b *testing.B) {
	sz := Small()
	for i := 0; i < b.N; i++ {
		rows := Figure4(sz)
		for _, r := range rows {
			if r.Name == "MatMult" {
				b.ReportMetric(r.HybridPct, "matmult-hybrid%")
			}
		}
	}
}

// BenchmarkAblationMessaging quantifies §3.3's coalesced messaging layer.
func BenchmarkAblationMessaging(b *testing.B) {
	sz := Small()
	for i := 0; i < b.N; i++ {
		a := ablationMessaging(sz)
		b.ReportMetric(float64(a.Rows[1].Time)/float64(a.Rows[0].Time), "separate/coalesced")
	}
}

// BenchmarkAblationConsistency quantifies relaxed vs sequential
// consistency (§4.5).
func BenchmarkAblationConsistency(b *testing.B) {
	sz := Small()
	for i := 0; i < b.N; i++ {
		a := ablationConsistency(sz)
		b.ReportMetric(float64(a.Rows[1].Time)/float64(a.Rows[0].Time), "seq/scope")
	}
}

// BenchmarkAblationPlacement quantifies the distribution annotations.
func BenchmarkAblationPlacement(b *testing.B) {
	sz := Small()
	for i := 0; i < b.N; i++ {
		a := ablationPlacement(sz)
		b.ReportMetric(float64(a.Rows[2].Time)/float64(a.Rows[0].Time), "fixed/block")
	}
}

// BenchmarkAblationPostedWrites quantifies the hybrid DSM's posted-write
// buffer on write-only initialization.
func BenchmarkAblationPostedWrites(b *testing.B) {
	sz := Small()
	for i := 0; i < b.N; i++ {
		a := ablationPostedWrites(sz)
		b.ReportMetric(float64(a.Rows[1].Time)/float64(a.Rows[0].Time), "pio/posted")
	}
}

// BenchmarkAblationMultiDSM quantifies §6's multi-DSM composition: the
// mixed workload's time under custom-tailored routing relative to the
// better pure engine.
func BenchmarkAblationMultiDSM(b *testing.B) {
	sz := Small()
	for i := 0; i < b.N; i++ {
		a := ablationMultiDSM(sz)
		best := a.Rows[0].Time
		if a.Rows[1].Time < best {
			best = a.Rows[1].Time
		}
		b.ReportMetric(float64(a.Rows[2].Time)/float64(best), "mix/best-pure")
	}
}

// BenchmarkAblationHomeMigration quantifies the software DSM's
// single-writer home migration.
func BenchmarkAblationHomeMigration(b *testing.B) {
	sz := Small()
	for i := 0; i < b.N; i++ {
		a := ablationHomeMigration(sz)
		b.ReportMetric(float64(a.Rows[1].Time)/float64(a.Rows[0].Time), "migrated/off")
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
