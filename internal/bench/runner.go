package bench

import (
	"fmt"
	"runtime"
	"sync"
)

// runCells executes n independent measurement cells with at most
// `parallel` in flight, depositing every cell's result at its own index.
// Each cell builds its own cluster (network, clocks, address space), so
// cells share no simulation state and their virtual times are unaffected
// by co-scheduling. Because results land by index, the output order is
// the canonical cell order — byte-identical to a sequential run — no
// matter how the scheduler interleaves cells.
//
// parallel <= 0 selects GOMAXPROCS. With parallel == 1 cells run inline
// and the first error aborts the remainder (the historical sequential
// behavior); otherwise every cell runs to completion and the error
// reported is the first in canonical order, so error selection is
// deterministic too.
func runCells[T any](parallel, n int, run func(i int) (T, error)) ([]T, error) {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	out := make([]T, n)
	if parallel <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			r, err := run(i)
			if err != nil {
				return nil, err
			}
			out[i] = r
		}
		return out, nil
	}
	if parallel > n {
		parallel = n
	}
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i], errs[i] = run(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Run executes every cell of a campaign with up to `parallel` in flight
// and returns the report, rows in cell order. It fails if a cell fails
// or if two rows of one group — baseline legs included — disagree on the
// checksum: engines, fabrics, platforms, aggregation, checkpointing and
// crash recovery change costs, never results.
func Run(c Campaign, parallel int) (*Report, error) {
	rows, err := runCells(parallel, len(c.Cells), func(i int) (Row, error) {
		return c.Cells[i].run()
	})
	if err != nil {
		return nil, err
	}
	type ref struct{ id, check string }
	first := map[string]ref{} // the first row seen of each group
	for i := range rows {
		group, id := c.Cells[i].Group, rows[i].ID()
		for r := &rows[i]; r != nil; r, id = r.Baseline, id+" baseline" {
			want, seen := first[group]
			if !seen {
				first[group] = ref{id, r.Check}
			} else if r.Check != want.check {
				return nil, fmt.Errorf("bench: campaign %s: %s computed checksum %s, but %s of the same group %q computed %s",
					c.Name, id, r.Check, want.id, group, want.check)
			}
		}
	}
	return &Report{Schema: Schema, Campaign: c.Name, Description: c.Description, Rows: rows}, nil
}
