// Package openmp implements an OpenMP-style fork-join programming model
// on top of HAMSTER. The paper names OpenMP "the most notable effort"
// toward shared memory standardization (§1) and claims its model list
// "can be easily extended"; this package is that claim exercised — a
// tenth model, added after the original nine, from the same services.
//
// The mapping follows the OpenMP 1.0 C API:
//
//	#pragma omp parallel     -> System.Parallel
//	omp_get_thread_num       -> OMP.ThreadNum
//	omp_get_num_threads      -> OMP.NumThreads
//	#pragma omp for          -> OMP.For (static) / OMP.ForDynamic
//	#pragma omp critical     -> OMP.Critical
//	#pragma omp single       -> OMP.Single
//	#pragma omp master       -> OMP.Master
//	#pragma omp barrier      -> OMP.Barrier
//	reduction(+:x)           -> OMP.ReduceSumF64
//	omp_set_lock/unset_lock  -> OMP.SetLock / UnsetLock
//	omp_get_wtime            -> OMP.Wtime
//
// Each OpenMP "thread" is one cluster node; shared variables live in
// HAMSTER's global memory, so the same OpenMP-ish program runs on the
// SMP, the hybrid DSM, or the software DSM unchanged. The reduction is
// Cluster Control's ReduceF64.
package openmp

import (
	"fmt"
	"sync"

	"hamster"
)

// LockCount sizes the omp_lock_t table.
const LockCount = 32

// System is one booted OpenMP world.
type System struct {
	rt    *hamster.Runtime
	locks [LockCount]int
	ctl   int // raw lock serializing runtime-internal control state

	mu      sync.Mutex
	singles map[int]bool // single-region sequence -> already executed
	nextIdx int          // dynamic-for dispenser
	forSeq  int
}

// Boot starts the model on the configured platform.
func Boot(cfg hamster.Config) (*System, error) {
	rt, err := hamster.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("openmp: %w", err)
	}
	s := &System{rt: rt, singles: make(map[int]bool)}
	e := rt.Env(0)
	for i := range s.locks {
		s.locks[i] = e.Sync.NewLock()
	}
	s.ctl = e.Sync.NewRawLock()
	return s, nil
}

// Shutdown stops the model.
func (s *System) Shutdown() { s.rt.Close() }

// Runtime exposes the underlying runtime.
func (s *System) Runtime() *hamster.Runtime { return s.rt }

// Parallel executes fn as a parallel region: one implicit thread per
// node, with the implicit barrier OpenMP puts at the region's end.
func (s *System) Parallel(fn func(o *OMP)) {
	s.rt.Run(func(e *hamster.Env) {
		o := &OMP{e: e, sys: s, singleSeq: new(int)}
		fn(o)
		e.Sync.Barrier()
	})
}

// OMP is one thread's handle inside a parallel region.
type OMP struct {
	e         *hamster.Env
	sys       *System
	singleSeq *int
}

// ThreadNum returns omp_get_thread_num.
func (o *OMP) ThreadNum() int { return o.e.ID() }

// NumThreads returns omp_get_num_threads.
func (o *OMP) NumThreads() int { return o.e.N() }

// Barrier performs #pragma omp barrier.
func (o *OMP) Barrier() { o.e.Sync.Barrier() }

// For runs a statically scheduled worksharing loop over [lo, hi): thread
// t executes the t-th contiguous chunk, with the implicit barrier at the
// end (no nowait clause).
func (o *OMP) For(lo, hi int, body func(i int)) {
	n := hi - lo
	if n < 0 {
		n = 0
	}
	per := (n + o.NumThreads() - 1) / o.NumThreads()
	start := lo + o.ThreadNum()*per
	end := start + per
	if start > hi {
		start = hi
	}
	if end > hi {
		end = hi
	}
	for i := start; i < end; i++ {
		body(i)
	}
	o.e.Sync.Barrier()
}

// ForDynamic runs a dynamically scheduled worksharing loop: threads grab
// chunks of the given size from a shared dispenser until the range is
// exhausted, then hit the implicit barrier. The dispenser handoff is
// priced as a raw lock round trip.
func (o *OMP) ForDynamic(lo, hi, chunk int, body func(i int)) {
	if chunk < 1 {
		chunk = 1
	}
	s := o.sys
	// Reset the dispenser once per loop instance: the first thread to
	// arrive with a fresh sequence number claims the reset.
	o.e.Sync.RawLock(s.ctl)
	if s.forSeq%o.NumThreads() == 0 {
		s.nextIdx = lo
	}
	s.forSeq++
	o.e.Sync.RawUnlock(s.ctl)
	o.e.Sync.Barrier()

	for {
		o.e.Sync.RawLock(s.ctl)
		start := s.nextIdx
		s.nextIdx += chunk
		o.e.Sync.RawUnlock(s.ctl)
		if start >= hi {
			break
		}
		end := start + chunk
		if end > hi {
			end = hi
		}
		for i := start; i < end; i++ {
			body(i)
		}
	}
	o.e.Sync.Barrier()
}

// Critical performs #pragma omp critical (name): a named global mutex
// with consistency semantics around the section.
func (o *OMP) Critical(name int, fn func()) {
	l := o.sys.locks[name%LockCount]
	o.e.Sync.Lock(l)
	fn()
	o.e.Sync.Unlock(l)
}

// Single performs #pragma omp single: exactly one thread executes fn; all
// threads synchronize at the implicit barrier afterwards.
func (o *OMP) Single(fn func()) {
	seq := *o.singleSeq
	*o.singleSeq++
	s := o.sys
	o.e.Sync.RawLock(s.ctl)
	s.mu.Lock()
	mine := !s.singles[seq]
	if mine {
		s.singles[seq] = true
	}
	s.mu.Unlock()
	o.e.Sync.RawUnlock(s.ctl)
	if mine {
		fn()
	}
	// The implicit barrier publishes the single's writes to everyone.
	o.e.Sync.Barrier()
}

// Master performs #pragma omp master: thread 0 executes, no barrier.
func (o *OMP) Master(fn func()) {
	if o.ThreadNum() == 0 {
		fn()
	}
}

// ReduceSumF64 performs reduction(+:x): combines one value per thread and
// returns the total to all of them.
func (o *OMP) ReduceSumF64(v float64) float64 {
	return o.e.Cluster.ReduceF64(0x0517, 0x0518, v, func(a, b float64) float64 { return a + b })
}

// SetLock performs omp_set_lock.
func (o *OMP) SetLock(i int) { o.e.Sync.Lock(o.sys.locks[i%LockCount]) }

// UnsetLock performs omp_unset_lock.
func (o *OMP) UnsetLock(i int) { o.e.Sync.Unlock(o.sys.locks[i%LockCount]) }

// TestLock performs omp_test_lock.
func (o *OMP) TestLock(i int) bool { return o.e.Sync.TryLock(o.sys.locks[i%LockCount]) }

// Wtime performs omp_get_wtime: seconds of virtual time.
func (o *OMP) Wtime() float64 { return float64(o.e.Now()) / 1e9 }

// Shared allocates shared memory visible to all threads.
func (o *OMP) Shared(bytes uint64) hamster.Addr {
	r, err := o.e.Mem.Alloc(bytes, hamster.AllocOpts{Name: "omp_shared", Policy: hamster.Block, Collective: true})
	if err != nil {
		panic(fmt.Sprintf("openmp: shared alloc: %v", err))
	}
	return r.Base
}

// ReadF64 loads from shared memory.
func (o *OMP) ReadF64(a hamster.Addr) float64 { return o.e.ReadF64(a) }

// WriteF64 stores to shared memory.
func (o *OMP) WriteF64(a hamster.Addr, v float64) { o.e.WriteF64(a, v) }

// ReadI64 loads an int64 from shared memory.
func (o *OMP) ReadI64(a hamster.Addr) int64 { return o.e.ReadI64(a) }

// WriteI64 stores an int64 to shared memory.
func (o *OMP) WriteI64(a hamster.Addr, v int64) { o.e.WriteI64(a, v) }

// Compute charges local CPU work.
func (o *OMP) Compute(flops uint64) { o.e.Compute(flops) }

// Env exposes the raw HAMSTER services.
func (o *OMP) Env() *hamster.Env { return o.e }
