package apps

import (
	"fmt"
	"sync"

	"hamster"
	"hamster/internal/memsim"
	"hamster/internal/platform"
	"hamster/internal/vclock"
	"hamster/models/jiajia"
)

// Kernel is a benchmark entry point bound to its parameters.
type Kernel func(m Machine) Result

// RunOnSubstrate executes a kernel directly on a bare substrate — the
// "native execution" baseline of §5.3 (e.g., unmodified JiaJia): no
// framework dispatch costs, no monitoring, the DSM's own messaging. It
// returns one Result per node.
func RunOnSubstrate(sub platform.Substrate, kernel Kernel) []Result {
	world := &nativeWorld{sub: sub}
	for i := 0; i < LockTableSize; i++ {
		world.locks[i] = sub.NewLock()
	}
	results := make([]Result, sub.Nodes())
	var wg sync.WaitGroup
	for id := 0; id < sub.Nodes(); id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			results[id] = kernel(&nativeMachine{w: world, id: id})
		}(id)
	}
	wg.Wait()
	return results
}

type nativeWorld struct {
	sub   platform.Substrate
	locks [LockTableSize]int

	mu     sync.Mutex
	allocs []memsim.Region
}

type nativeMachine struct {
	w       *nativeWorld
	id      int
	collIdx int
}

func (m *nativeMachine) ID() int { return m.id }
func (m *nativeMachine) N() int  { return m.w.sub.Nodes() }

// Alloc provides the collective allocation the bare substrate lacks:
// node 0 allocates, a barrier publishes, all nodes return the same base.
func (m *nativeMachine) Alloc(bytes uint64, name string, pol memsim.Policy) memsim.Addr {
	w := m.w
	if m.id == 0 {
		r, err := w.sub.Alloc(bytes, name, pol, 0)
		if err != nil {
			panic(fmt.Sprintf("apps: native alloc: %v", err))
		}
		w.mu.Lock()
		w.allocs = append(w.allocs, r)
		w.mu.Unlock()
	}
	w.sub.Barrier(m.id)
	w.mu.Lock()
	r := w.allocs[m.collIdx]
	w.mu.Unlock()
	m.collIdx++
	return r.Base
}

func (m *nativeMachine) ReadF64(a memsim.Addr) float64     { return m.w.sub.ReadF64(m.id, a) }
func (m *nativeMachine) WriteF64(a memsim.Addr, v float64) { m.w.sub.WriteF64(m.id, a, v) }
func (m *nativeMachine) ReadI64(a memsim.Addr) int64       { return m.w.sub.ReadI64(m.id, a) }
func (m *nativeMachine) WriteI64(a memsim.Addr, v int64)   { m.w.sub.WriteI64(m.id, a, v) }

func (m *nativeMachine) ReadF64Block(a memsim.Addr, dst []float64) {
	m.w.sub.ReadF64Block(m.id, a, dst)
}
func (m *nativeMachine) WriteF64Block(a memsim.Addr, src []float64) {
	m.w.sub.WriteF64Block(m.id, a, src)
}
func (m *nativeMachine) ReadI64Block(a memsim.Addr, dst []int64) {
	m.w.sub.ReadI64Block(m.id, a, dst)
}
func (m *nativeMachine) WriteI64Block(a memsim.Addr, src []int64) {
	m.w.sub.WriteI64Block(m.id, a, src)
}
func (m *nativeMachine) Compute(flops uint64) { m.w.sub.Compute(m.id, flops) }
func (m *nativeMachine) Lock(i int)           { m.w.sub.Acquire(m.id, m.w.locks[i%LockTableSize]) }
func (m *nativeMachine) Unlock(i int)         { m.w.sub.Release(m.id, m.w.locks[i%LockTableSize]) }
func (m *nativeMachine) Barrier()             { m.w.sub.Barrier(m.id) }
func (m *nativeMachine) Now() vclock.Time     { return m.w.sub.Clock(m.id).Now() }

// RunOnJia executes a kernel through the full HAMSTER stack with the
// JiaJia programming model on top — the framework path of Figure 2 and the
// identical-binary path of Figures 3–4. The kernel code is byte-for-byte
// the same as in RunOnSubstrate; only the Machine binding differs.
func RunOnJia(sys *jiajia.System, kernel Kernel) []Result {
	results := make([]Result, sys.Runtime().Nodes())
	sys.Run(func(j *jiajia.Jia) {
		results[j.Pid()] = kernel(jiaMachine{j})
	})
	return results
}

// jiaMachine is a jia_* process as a Machine: the accessors, Compute and
// Barrier are the model's own, promoted.
type jiaMachine struct {
	*jiajia.Jia
}

func (m jiaMachine) ID() int { return m.Pid() }
func (m jiaMachine) N() int  { return m.Hosts() }

func (m jiaMachine) Alloc(bytes uint64, name string, pol memsim.Policy) memsim.Addr {
	// The jia_* API offers block (jia_alloc) and cyclic (jia_alloc3)
	// distribution; Fixed falls back to jia_alloc, whose block layout
	// puts small allocations on host 0 anyway.
	switch pol {
	case memsim.Cyclic:
		return m.Alloc3(bytes, 0)
	default:
		return m.Jia.Alloc(bytes)
	}
}

func (m jiaMachine) Lock(i int)       { m.Jia.Lock(i % LockTableSize) }
func (m jiaMachine) Unlock(i int)     { m.Jia.Unlock(i % LockTableSize) }
func (m jiaMachine) Now() vclock.Time { return m.Env().Now() }

// RunOnEnv executes a kernel directly against HAMSTER's core services (no
// programming-model layer) — used by examples and by ablations that vary
// core parameters.
func RunOnEnv(rt *hamster.Runtime, kernel Kernel) []Result {
	locks := make([]int, LockTableSize)
	e0 := rt.Env(0)
	for i := range locks {
		locks[i] = e0.Sync.NewLock()
	}
	results := make([]Result, rt.Nodes())
	rt.Run(func(e *hamster.Env) {
		results[e.ID()] = kernel(&envMachine{Env: e, locks: locks})
	})
	return results
}

// envMachine is a core-services node as a Machine: ID, N, the accessors,
// Compute and Now are the Env's own, promoted.
type envMachine struct {
	*hamster.Env
	locks []int
}

func (m *envMachine) Alloc(bytes uint64, name string, pol memsim.Policy) memsim.Addr {
	r, err := m.Mem.Alloc(bytes, hamster.AllocOpts{Name: name, Policy: pol, Collective: true})
	if err != nil {
		panic(fmt.Sprintf("apps: env alloc: %v", err))
	}
	return r.Base
}

func (m *envMachine) Lock(i int)   { m.Sync.Lock(m.locks[i%LockTableSize]) }
func (m *envMachine) Unlock(i int) { m.Sync.Unlock(m.locks[i%LockTableSize]) }
func (m *envMachine) Barrier()     { m.Sync.Barrier() }

// MaxTotal returns the slowest node's total time — the SPMD wall clock.
func MaxTotal(results []Result) vclock.Duration {
	var max vclock.Duration
	for _, r := range results {
		if r.T.Total > max {
			max = r.T.Total
		}
	}
	return max
}

// MaxPhase extracts the slowest node's value for one phase selector.
func MaxPhase(results []Result, sel func(Timings) vclock.Duration) vclock.Duration {
	var max vclock.Duration
	for _, r := range results {
		if v := sel(r.T); v > max {
			max = v
		}
	}
	return max
}

// RunOnEnvSeq is RunOnEnv under the Sequential consistency model of the
// consistency API: every read is preceded and every write followed by a
// full fence. It exists for the consistency ablation — demonstrating why
// relaxed models are indispensable on loosely coupled platforms (§4.5).
func RunOnEnvSeq(rt *hamster.Runtime, kernel Kernel) []Result {
	locks := make([]int, LockTableSize)
	e0 := rt.Env(0)
	for i := range locks {
		locks[i] = e0.Sync.NewLock()
	}
	results := make([]Result, rt.Nodes())
	rt.Run(func(e *hamster.Env) {
		results[e.ID()] = kernel(&seqMachine{envMachine{Env: e, locks: locks}})
	})
	return results
}

type seqMachine struct {
	envMachine
}

func (m *seqMachine) ReadF64(a memsim.Addr) float64 {
	m.Cons.Fence()
	return m.Env.ReadF64(a)
}

func (m *seqMachine) WriteF64(a memsim.Addr, v float64) {
	m.Env.WriteF64(a, v)
	m.Cons.Fence()
}

func (m *seqMachine) ReadI64(a memsim.Addr) int64 {
	m.Cons.Fence()
	return m.Env.ReadI64(a)
}

func (m *seqMachine) WriteI64(a memsim.Addr, v int64) {
	m.Env.WriteI64(a, v)
	m.Cons.Fence()
}

// The sequential-consistency ablation fences around EVERY word, so its
// block accessors degrade to fenced word loops — a block cannot be
// allowed to skip the per-access fences the model is defined by.

func (m *seqMachine) ReadF64Block(a memsim.Addr, dst []float64) {
	for i := range dst {
		dst[i] = m.ReadF64(f64(a, i))
	}
}

func (m *seqMachine) WriteF64Block(a memsim.Addr, src []float64) {
	for i, v := range src {
		m.WriteF64(f64(a, i), v)
	}
}

func (m *seqMachine) ReadI64Block(a memsim.Addr, dst []int64) {
	for i := range dst {
		dst[i] = m.ReadI64(f64(a, i))
	}
}

func (m *seqMachine) WriteI64Block(a memsim.Addr, src []int64) {
	for i, v := range src {
		m.WriteI64(f64(a, i), v)
	}
}
