// Package serve is a fixture for TestStructure: the ingest sorts and the
// fabric builds two Zipf tables (serve_host_time).
package serve

import (
	"slices"
	srt "sort"

	"hamster/internal/loadgen"
)

func ingest(q []int) {
	srt.Slice(q, func(i, j int) bool { return q[i] < q[j] })
	slices.SortFunc(q, func(a, b int) int { return a - b })
}

func kernel() {
	_ = loadgen.NewZipf(nil, 1)
	_ = loadgen.NewZipf(nil, 1)
}
