package serve

import (
	"slices"
	"sort"
	"testing"

	"hamster/internal/loadgen"
)

// The ingest comparator must give the order a stable sort by arrival
// gives the queue as readRing builds it (producer-major, each producer's
// arrivals strictly increasing): equal arrivals across producers then
// break by producer rank.
func TestIngestOrderMatchesStableSort(t *testing.T) {
	const prods, perProd = 5, 200
	s := loadgen.NewStream(9)
	var queue []qop
	for p := 0; p < prods; p++ {
		var at uint64
		for i := 0; i < perProd; i++ {
			at += 1 + s.Next()%4 // gaps of 1–4 ns: many cross-producer ties
			queue = append(queue, qop{op{key: s.Next(), kind: int64(i), arrival: at, session: uint64(p)}, p})
		}
	}
	want := slices.Clone(queue)
	sort.SliceStable(want, func(i, j int) bool { return want[i].arrival < want[j].arrival })

	got := slices.Clone(queue)
	// Shuffle first, so the comparator, not the input order, decides.
	for i := len(got) - 1; i > 0; i-- {
		j := int(s.Next() % uint64(i+1))
		got[i], got[j] = got[j], got[i]
	}
	slices.SortFunc(got, ingestOrder)

	ties := 0
	for i := 1; i < len(want); i++ {
		if want[i].arrival == want[i-1].arrival {
			ties++
		}
	}
	if ties == 0 {
		t.Fatal("queue has no equal arrivals across producers; the test proves nothing")
	}
	if !slices.Equal(got, want) {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("position %d: (arrival %d, prod %d), stable sort has (arrival %d, prod %d)",
					i, got[i].arrival, got[i].prod, want[i].arrival, want[i].prod)
			}
		}
	}
}
