// Package anl implements the ANL macro programming model (the PARMACS
// macros used by the SPLASH benchmark suites) on top of HAMSTER. The C
// originals are m4 macros (MAIN_ENV, CREATE, G_MALLOC, LOCK, BARRIER,
// ...); here they are methods with the same names and shapes.
//
// Execution model: the master runs on node 0 and CREATEs one worker per
// remaining node (the standard one-process-per-processor SPLASH setup);
// BARRIER is then the global barrier across all tasks. A pid is the
// task's Task Management number and CREATE is its round-robin spawn.
//
//	MAIN_ENV/MAIN_INITENV -> Boot / System.MainEnv
//	MAIN_END              -> System.Shutdown
//	CREATE                -> ANL.Create
//	WAIT_FOR_END          -> ANL.WaitForEnd
//	G_MALLOC              -> ANL.GMalloc
//	LOCKINIT/LOCK/UNLOCK  -> ANL.LockInit / Lock / Unlock
//	ALOCKINIT/ALOCK/AULOCK-> ANL.ALockInit / ALock / AUnlock
//	BARINIT/BARRIER       -> ANL.BarInit / Barrier
//	GET_PID               -> ANL.GetPid
//	CLOCK                 -> ANL.Clock
package anl

import (
	"fmt"
	"sync"

	"hamster"
)

// System is one booted ANL world.
type System struct {
	rt    *hamster.Runtime
	mu    sync.Mutex
	tasks []*hamster.Task
}

// Boot prepares the environment (MAIN_ENV + MAIN_INITENV). Threaded mode
// is forced: CREATE places tasks on nodes that also run the master's
// allocations and barriers.
func Boot(cfg hamster.Config) (*System, error) {
	cfg.Threaded = true
	rt, err := hamster.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("anl: %w", err)
	}
	return &System{rt: rt}, nil
}

// Shutdown performs MAIN_END.
func (s *System) Shutdown() { s.rt.Close() }

// Runtime exposes the underlying runtime.
func (s *System) Runtime() *hamster.Runtime { return s.rt }

// MainEnv runs the master program on node 0.
func (s *System) MainEnv(main func(a *ANL)) {
	s.rt.Main(func(e *hamster.Env, self *hamster.Task) { main(&ANL{e: e, sys: s, self: self}) })
}

// ANL is one task's macro surface.
type ANL struct {
	e    *hamster.Env
	sys  *System
	self *hamster.Task
}

// GetPid returns the task id (master = 0).
func (a *ANL) GetPid() int { return int(a.self.Num()) }

// NProcs returns the node count (the usual SPLASH P).
func (a *ANL) NProcs() int { return a.e.N() }

// Create performs CREATE(worker): the worker starts on the next node,
// round-robin, with its own pid.
func (a *ANL) Create(worker func(a *ANL)) {
	task := a.e.Task.Spawn(func(e *hamster.Env, self *hamster.Task) int64 {
		worker(&ANL{e: e, sys: a.sys, self: self})
		return 0
	})
	a.sys.mu.Lock()
	a.sys.tasks = append(a.sys.tasks, task)
	a.sys.mu.Unlock()
}

// WaitForEnd performs WAIT_FOR_END(n): join the first n created workers.
func (a *ANL) WaitForEnd(n int) {
	s := a.sys
	s.mu.Lock()
	tasks := append([]*hamster.Task(nil), s.tasks...)
	s.mu.Unlock()
	if n > len(tasks) {
		n = len(tasks)
	}
	for _, t := range tasks[:n] {
		a.e.Task.Join(t)
	}
}

// GMalloc performs G_MALLOC: the master allocates shared memory; workers
// see it through the shared address space (the pointer travels in the
// program, as in the C macros).
func (a *ANL) GMalloc(bytes uint64) hamster.Addr {
	r, err := a.e.Mem.Alloc(bytes, hamster.AllocOpts{Name: "G_MALLOC", Policy: hamster.Block})
	if err != nil {
		panic(fmt.Sprintf("anl: G_MALLOC: %v", err))
	}
	return r.Base
}

// LockInit performs LOCKDEC+LOCKINIT.
func (a *ANL) LockInit() int { return a.e.Sync.NewLock() }

// Lock performs LOCK.
func (a *ANL) Lock(id int) { a.e.Sync.Lock(id) }

// Unlock performs UNLOCK.
func (a *ANL) Unlock(id int) { a.e.Sync.Unlock(id) }

// ALockInit performs ALOCKDEC+ALOCKINIT: an array of n locks; returns the
// base id.
func (a *ANL) ALockInit(n int) int {
	base := a.e.Sync.NewLock()
	for i := 1; i < n; i++ {
		a.e.Sync.NewLock()
	}
	return base
}

// ALock performs ALOCK(base, i).
func (a *ANL) ALock(base, i int) { a.e.Sync.Lock(base + i) }

// AUnlock performs AULOCK(base, i).
func (a *ANL) AUnlock(base, i int) { a.e.Sync.Unlock(base + i) }

// BarInit performs BARDEC+BARINIT. All barriers are the global barrier;
// the returned id exists for macro fidelity.
func (a *ANL) BarInit() int { return 0 }

// Barrier performs BARRIER(b, P) for the standard one-task-per-node
// configuration.
func (a *ANL) Barrier(id int) {
	_ = id
	a.e.Sync.Barrier()
}

// Clock performs CLOCK(t): virtual microseconds, the SPLASH convention.
func (a *ANL) Clock() uint64 { return uint64(a.e.Now()) / 1000 }

// ReadF64 loads from shared memory.
func (a *ANL) ReadF64(addr hamster.Addr) float64 { return a.e.ReadF64(addr) }

// WriteF64 stores to shared memory.
func (a *ANL) WriteF64(addr hamster.Addr, v float64) { a.e.WriteF64(addr, v) }

// ReadI64 loads an int64 from shared memory.
func (a *ANL) ReadI64(addr hamster.Addr) int64 { return a.e.ReadI64(addr) }

// WriteI64 stores an int64 to shared memory.
func (a *ANL) WriteI64(addr hamster.Addr, v int64) { a.e.WriteI64(addr, v) }

// Compute charges local CPU work.
func (a *ANL) Compute(flops uint64) { a.e.Compute(flops) }

// Env exposes the raw HAMSTER services.
func (a *ANL) Env() *hamster.Env { return a.e }
