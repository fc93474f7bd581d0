// Package pthreads implements a distributed POSIX-threads programming
// model on top of HAMSTER (§5.2's "distributed thread APIs", detailed in
// Schulz PACT 2000). Threads are placed across cluster nodes; creation
// forwards to the node the thread should run on through the Task
// Management module, which also numbers the threads (the initial thread
// is 0), places default-attribute threads round-robin, and starts every
// thread goroutine. The model adds the pthread call signatures and builds
// mutexes, condition variables, barriers and once from the other
// services.
//
// Method names mirror the pthread_* entry points:
//
//	pthread_create        -> PT.Create / PT.CreateOn
//	pthread_join          -> PT.Join
//	pthread_self          -> PT.Self
//	pthread_equal         -> PT.Equal
//	pthread_yield         -> PT.Yield
//	pthread_mutex_init    -> PT.MutexInit
//	pthread_mutex_lock    -> PT.MutexLock
//	pthread_mutex_trylock -> PT.MutexTryLock
//	pthread_mutex_unlock  -> PT.MutexUnlock
//	pthread_mutex_destroy -> PT.MutexDestroy
//	pthread_cond_init     -> PT.CondInit
//	pthread_cond_wait     -> PT.CondWait
//	pthread_cond_signal   -> PT.CondSignal
//	pthread_cond_broadcast-> PT.CondBroadcast
//	pthread_barrier_init  -> PT.BarrierInit
//	pthread_barrier_wait  -> PT.BarrierWait
//	pthread_once          -> PT.Once
//
// The distributed semantics match the local ones: a mutex locked on node
// 0 excludes a locker on node 3, and the consistency model guarantees
// mutex-protected data is coherent across nodes.
package pthreads

import (
	"fmt"
	"runtime"
	"sync"

	"hamster"
)

// System is one booted distributed-pthreads world.
type System struct {
	rt *hamster.Runtime
}

// Boot starts the model. Threaded mode is forced: multiple threads may
// time-share one node.
func Boot(cfg hamster.Config) (*System, error) {
	cfg.Threaded = true
	rt, err := hamster.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("pthreads: %w", err)
	}
	return &System{rt: rt}, nil
}

// Shutdown stops the model.
func (s *System) Shutdown() { s.rt.Close() }

// Runtime exposes the underlying runtime.
func (s *System) Runtime() *hamster.Runtime { return s.rt }

// Main runs the initial thread on node 0.
func (s *System) Main(main func(pt *PT)) {
	s.rt.Main(func(e *hamster.Env, self *hamster.Task) { main(&PT{e: e, self: self}) })
}

// PT is one thread's handle on the pthread call surface.
type PT struct {
	e    *hamster.Env
	self *hamster.Task
}

// thread adapts a thread function to a Task Management task body.
func thread(fn func(pt *PT) int64) func(*hamster.Env, *hamster.Task) int64 {
	return func(e *hamster.Env, self *hamster.Task) int64 { return fn(&PT{e: e, self: self}) }
}

// Thread is a joinable thread handle (pthread_t).
type Thread struct {
	task *hamster.Task
}

// TID returns the thread's id (the value pthread_create writes back).
func (t *Thread) TID() int64 { return t.task.Num() }

// Node returns the node the thread runs on (a distributed-model
// extension).
func (t *Thread) Node() int { return t.task.Node() }

// Create performs pthread_create with default attributes: the new thread
// is placed on the next node round-robin.
func (p *PT) Create(fn func(pt *PT) int64) (*Thread, error) {
	return &Thread{task: p.e.Task.Spawn(thread(fn))}, nil
}

// CreateOn performs pthread_create with an explicit node attribute: the
// create call is forwarded to that node, which starts the thread locally.
func (p *PT) CreateOn(node int, fn func(pt *PT) int64) (*Thread, error) {
	task, err := p.e.Task.SpawnOn(node, thread(fn))
	if err != nil {
		return nil, fmt.Errorf("pthreads: create: %w", err)
	}
	return &Thread{task: task}, nil
}

// Join performs pthread_join, returning the thread's exit value.
func (p *PT) Join(th *Thread) int64 { return p.e.Task.Join(th.task) }

// Self performs pthread_self.
func (p *PT) Self() int64 { return p.self.Num() }

// Equal performs pthread_equal.
func (p *PT) Equal(a, b int64) bool { return a == b }

// Node returns the node this thread runs on (an extension the distributed
// model needs; local pthreads have no equivalent).
func (p *PT) Node() int { return p.e.ID() }

// Yield performs pthread_yield / sched_yield.
func (p *PT) Yield() { runtime.Gosched() }

// Mutex is a distributed pthread_mutex_t.
type Mutex struct {
	lock      int
	destroyed bool
}

// MutexInit performs pthread_mutex_init: the mutex is a consistency lock,
// so locking it also makes protected data coherent.
func (p *PT) MutexInit() *Mutex { return &Mutex{lock: p.e.Sync.NewLock()} }

// MutexLock performs pthread_mutex_lock.
func (p *PT) MutexLock(m *Mutex) { p.e.Sync.Lock(m.lock) }

// MutexTryLock performs pthread_mutex_trylock.
func (p *PT) MutexTryLock(m *Mutex) bool { return p.e.Sync.TryLock(m.lock) }

// MutexUnlock performs pthread_mutex_unlock.
func (p *PT) MutexUnlock(m *Mutex) { p.e.Sync.Unlock(m.lock) }

// MutexDestroy performs pthread_mutex_destroy.
func (p *PT) MutexDestroy(m *Mutex) { m.destroyed = true }

// Cond is a distributed pthread_cond_t.
type Cond struct {
	cv *hamster.CondVar
}

// CondInit performs pthread_cond_init.
func (p *PT) CondInit() *Cond { return &Cond{cv: p.e.Sync.NewCond()} }

// CondWait performs pthread_cond_wait: atomically release the mutex, wait
// for a signal, reacquire. As POSIX allows, wakeups may be spurious —
// callers loop on their predicate.
func (p *PT) CondWait(c *Cond, m *Mutex) {
	p.e.Sync.CondWait(c.cv,
		func() { p.e.Sync.Unlock(m.lock) },
		func() { p.e.Sync.Lock(m.lock) })
}

// CondSignal performs pthread_cond_signal.
func (p *PT) CondSignal(c *Cond) { p.e.Sync.CondSignal(c.cv) }

// CondBroadcast performs pthread_cond_broadcast.
func (p *PT) CondBroadcast(c *Cond) { p.e.Sync.CondBroadcast(c.cv) }

// Barrier is a pthread_barrier_t, built from the model's own mutex and
// condition variable (the classic two-phase counter barrier), so it works
// for any thread count, not just one thread per node.
type Barrier struct {
	m      *Mutex
	c      *Cond
	count  int
	needed int
	gen    uint64
}

// BarrierInit performs pthread_barrier_init for count participants.
func (p *PT) BarrierInit(count int) *Barrier {
	return &Barrier{m: p.MutexInit(), c: p.CondInit(), needed: count}
}

// BarrierWait performs pthread_barrier_wait. One caller per generation
// returns true (PTHREAD_BARRIER_SERIAL_THREAD).
func (p *PT) BarrierWait(b *Barrier) bool {
	p.MutexLock(b.m)
	gen := b.gen
	b.count++
	if b.count == b.needed {
		b.count = 0
		b.gen++
		p.CondBroadcast(b.c)
		p.MutexUnlock(b.m)
		return true
	}
	for gen == b.gen {
		p.CondWait(b.c, b.m)
	}
	p.MutexUnlock(b.m)
	return false
}

// Once is a pthread_once_t.
type Once struct {
	mu   sync.Mutex
	done bool
}

// DoOnce performs pthread_once.
func (p *PT) DoOnce(o *Once, fn func()) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if !o.done {
		o.done = true
		fn()
	}
}

// ReadF64 loads from shared memory.
func (p *PT) ReadF64(a hamster.Addr) float64 { return p.e.ReadF64(a) }

// WriteF64 stores to shared memory.
func (p *PT) WriteF64(a hamster.Addr, v float64) { p.e.WriteF64(a, v) }

// ReadI64 loads an int64 from shared memory.
func (p *PT) ReadI64(a hamster.Addr) int64 { return p.e.ReadI64(a) }

// WriteI64 stores an int64 to shared memory.
func (p *PT) WriteI64(a hamster.Addr, v int64) { p.e.WriteI64(a, v) }

// Malloc allocates shared memory visible to all threads.
func (p *PT) Malloc(bytes uint64) hamster.Addr {
	r, err := p.e.Mem.Alloc(bytes, hamster.AllocOpts{Name: "pthread_heap", Policy: hamster.Block})
	if err != nil {
		panic(fmt.Sprintf("pthreads: malloc: %v", err))
	}
	return r.Base
}

// Compute charges local CPU work.
func (p *PT) Compute(flops uint64) { p.e.Compute(flops) }

// Env exposes the raw HAMSTER services.
func (p *PT) Env() *hamster.Env { return p.e }
