package apps

import (
	"math/rand"
	"testing"

	"hamster"
	"hamster/internal/memsim"
	"hamster/internal/swdsm"
)

// randomProgram builds a deterministic random SPMD program: R rounds, in
// each of which every node performs a random number of lock-protected
// increments on randomly chosen counters (counters share pages, so the
// protocols see heavy false sharing), followed by a global barrier. The
// exact expected value of every counter is computable from the same
// seeds, so any protocol bug — lost diff, missed invalidation, broken
// lock — corrupts the result.
type randomProgram struct {
	nodes    int
	counters int
	rounds   int
	seed     int64
}

// expected computes the per-counter totals the program must produce.
func (p randomProgram) expected() []int64 {
	totals := make([]int64, p.counters)
	for node := 0; node < p.nodes; node++ {
		rng := rand.New(rand.NewSource(p.seed + int64(node)))
		for round := 0; round < p.rounds; round++ {
			ops := 1 + rng.Intn(8)
			for op := 0; op < ops; op++ {
				c := rng.Intn(p.counters)
				k := 1 + rng.Intn(3)
				totals[c] += int64(k)
			}
		}
	}
	return totals
}

// kernel returns the program as an apps.Kernel. Counters live in one
// region (packed, maximal false sharing); counter c is protected by lock
// c%LockTableSize.
func (p randomProgram) kernel() Kernel {
	return func(m Machine) Result {
		arr := m.Alloc(uint64(p.counters)*8, "stress", memsim.Cyclic)
		m.Barrier()
		rng := rand.New(rand.NewSource(p.seed + int64(m.ID())))
		for round := 0; round < p.rounds; round++ {
			ops := 1 + rng.Intn(8)
			for op := 0; op < ops; op++ {
				c := rng.Intn(p.counters)
				k := 1 + rng.Intn(3)
				l := c % LockTableSize
				m.Lock(l)
				m.WriteI64(f64(arr, c), m.ReadI64(f64(arr, c))+int64(k))
				m.Unlock(l)
			}
			m.Barrier()
		}
		// Everyone validates every counter after the final barrier.
		check := 0.0
		for c := 0; c < p.counters; c++ {
			check += float64(m.ReadI64(f64(arr, c)))
		}
		m.Barrier()
		return Result{Check: check}
	}
}

func TestRandomProgramsAgreeOnAllPlatforms(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		p := randomProgram{nodes: 3, counters: 24, rounds: 5, seed: seed * 7919}
		want := p.expected()
		var wantSum float64
		for _, v := range want {
			wantSum += float64(v)
		}
		for name, sub := range substrates(t, p.nodes) {
			res := RunOnSubstrate(sub, p.kernel())
			got := checksEqual(t, name, res)
			if got != wantSum {
				t.Fatalf("seed %d on %s: counter sum = %v, want %v", seed, name, got, wantSum)
			}
		}
	}
}

func TestRandomProgramWithHomeMigration(t *testing.T) {
	// The same random programs with home migration enabled: migration
	// must never change results, only costs.
	for seed := int64(1); seed <= 3; seed++ {
		p := randomProgram{nodes: 4, counters: 16, rounds: 6, seed: seed * 104729}
		want := p.expected()
		var wantSum float64
		for _, v := range want {
			wantSum += float64(v)
		}
		d, err := swdsm.New(swdsm.Config{Nodes: p.nodes, MigrateAfter: 1})
		if err != nil {
			t.Fatal(err)
		}
		res := RunOnSubstrate(d, p.kernel())
		got := checksEqual(t, "migrating", res)
		d.Close()
		if got != wantSum {
			t.Fatalf("seed %d with migration: sum = %v, want %v", seed, got, wantSum)
		}
	}
}

func TestRandomProgramsAreDRF(t *testing.T) {
	// The generator must only emit data-race-free programs — verified by
	// the formal checker, which closes the loop: if the generator were
	// buggy, the cross-platform equivalence above would be meaningless.
	p := randomProgram{nodes: 3, counters: 12, rounds: 4, seed: 42}
	rt, err := hamster.New(hamster.Config{Platform: hamster.SWDSM, Nodes: p.nodes})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rt.StartTrace()
	RunOnEnv(rt, p.kernel())
	rep := rt.CheckConsistency()
	if len(rep.Races) != 0 {
		t.Fatalf("random program generator produced a racy program:\n%s", rep)
	}
}
