package hamster_test

import (
	"fmt"

	"hamster"
	"hamster/internal/conscheck"
)

// Example computes pi on a four-node software-DSM cluster: the quickstart
// program from the package documentation, verbatim and verified.
func Example() {
	rt, err := hamster.New(hamster.Config{Platform: hamster.SWDSM, Nodes: 4})
	if err != nil {
		panic(err)
	}
	defer rt.Close()

	const intervals = 1_000_000
	var lock int
	rt.Run(func(e *hamster.Env) {
		acc, err := e.Mem.Alloc(hamster.PageSize, hamster.AllocOpts{
			Name: "pi", Policy: hamster.Fixed, Collective: true,
		})
		if err != nil {
			panic(err)
		}
		if e.ID() == 0 {
			lock = e.Sync.NewLock()
		}
		e.Sync.Barrier()
		h := 1.0 / intervals
		sum := 0.0
		for i := e.ID(); i < intervals; i += e.N() {
			x := h * (float64(i) + 0.5)
			sum += 4.0 / (1.0 + x*x)
		}
		e.Compute(6 * intervals / uint64(e.N()))
		e.Sync.Lock(lock)
		e.WriteF64(acc.Base, e.ReadF64(acc.Base)+sum*h)
		e.Sync.Unlock(lock)
		e.Sync.Barrier()
		if e.ID() == 0 {
			fmt.Printf("pi = %.9f\n", e.ReadF64(acc.Base))
		}
	})
	// Output: pi = 3.141592654
}

// ExampleNew boots a sixteen-node software-DSM cluster with a non-default
// consistency engine and switch fabric: the IVY write-invalidate engine on
// the oversubscribed rack topology. Sixteen nodes is above the
// hierarchical-synchronization threshold, so the barriers below run on the
// topology-aligned reduction tree rather than a centralized manager. Each
// node writes its partial sum to its own slot and node 0 reduces the slots
// in a fixed order, so the printed value is deterministic.
func ExampleNew() {
	rt, err := hamster.New(hamster.Config{
		Platform: hamster.SWDSM,
		Nodes:    16,
		Engine:   "ivy",
		Topology: "rack",
	})
	if err != nil {
		panic(err)
	}
	defer rt.Close()

	const intervals = 100_000
	rt.Run(func(e *hamster.Env) {
		part, err := e.Mem.Alloc(hamster.PageSize, hamster.AllocOpts{
			Name: "partials", Policy: hamster.Fixed, Collective: true,
		})
		if err != nil {
			panic(err)
		}
		h := 1.0 / intervals
		sum := 0.0
		for i := e.ID(); i < intervals; i += e.N() {
			x := h * (float64(i) + 0.5)
			sum += 4.0 / (1.0 + x*x)
		}
		e.Compute(6 * intervals / uint64(e.N()))
		e.WriteF64(part.Base+hamster.Addr(8*e.ID()), sum*h)
		e.Sync.Barrier()
		if e.ID() == 0 {
			pi := 0.0
			for n := 0; n < e.N(); n++ {
				pi += e.ReadF64(part.Base + hamster.Addr(8*n))
			}
			fmt.Printf("pi = %.9f\n", pi)
		}
	})
	// Output: pi = 3.141592654
}

// Example_consistencyCheck runs the §6 formal consistency verifier over a
// deliberately racy program.
func Example_consistencyCheck() {
	rt, err := hamster.New(hamster.Config{Platform: hamster.SWDSM, Nodes: 2})
	if err != nil {
		panic(err)
	}
	defer rt.Close()

	var base hamster.Addr
	rt.Run(func(e *hamster.Env) {
		r, _ := e.Mem.Alloc(hamster.PageSize, hamster.AllocOpts{Name: "x", Collective: true})
		if e.ID() == 0 {
			base = r.Base
		}
	})
	rt.StartTrace()
	rt.Run(func(e *hamster.Env) {
		e.WriteF64(base, float64(e.ID())) // both nodes, same word, no sync
	})
	rep := rt.CheckConsistency()
	fmt.Println("data-race-free:", len(rep.Races) == 0)
	// Output: data-race-free: false
}

// ExampleConsistencyReport shows the checker used directly on a
// hand-built trace.
func ExampleConsistencyReport() {
	events := []conscheck.Event{
		{Node: 0, Kind: conscheck.Acquire, Lock: 1},
		{Node: 0, Kind: conscheck.Write, Addr: 0x1000},
		{Node: 0, Kind: conscheck.Release, Lock: 1},
		{Node: 1, Kind: conscheck.Acquire, Lock: 1},
		{Node: 1, Kind: conscheck.Read, Addr: 0x1000},
		{Node: 1, Kind: conscheck.Release, Lock: 1},
	}
	rep := conscheck.Analyze(events, 2)
	fmt.Println("data-race-free:", len(rep.Races) == 0)
	// Output: data-race-free: true
}
