// Wall-clock benchmarks for the benchmark kernels on the software DSM —
// the substrate whose per-word simulation overhead dominates large runs.
// These measure REAL time (simulator throughput), not virtual time: the
// bulk-access fast path must cut wall-clock cost without moving the
// modeled virtual-time results (see EXPERIMENTS.md).
//
//	go test -bench=KernelWall -benchtime=2x
package hamster_test

import (
	"testing"

	"hamster/internal/apps"
	"hamster/internal/bench"
	"hamster/internal/swdsm"
)

func BenchmarkSWDSMKernelWall(b *testing.B) {
	for _, c := range bench.StandardKernels() {
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
