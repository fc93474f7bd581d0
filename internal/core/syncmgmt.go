package core

import (
	"hamster/internal/conscheck"
	"hamster/internal/platform"
	"hamster/internal/vclock"
)

// rawLockTraceBase offsets raw-lock ids in traces so they never collide
// with consistency-lock ids.
const rawLockTraceBase = 1 << 20

// SyncMgr is the Synchronization Management module (§4.2): locks and
// barriers optimized for the base architecture, plus event signals from
// which model-specific constructs (condition variables, joins, semaphores)
// are assembled.
type SyncMgr struct {
	e *Env
}

// NewLock creates a global lock with full consistency semantics: acquiring
// it performs the substrate's consistency entry actions. Create locks
// before the parallel phase or from a single node; the returned id is
// valid cluster-wide. On a resumed runtime the first creations replay:
// the restored substrate already holds the snapshot's locks, so the call
// hands out their ids in creation order instead of growing the table.
func (s *SyncMgr) NewLock() int {
	s.e.charge(ModSync)
	rt := s.e.rt
	if rs := rt.resume; rs != nil {
		if idx := int(rt.resumeLockIdx.Add(1)) - 1; idx < rs.locks {
			return idx
		}
	}
	return rt.sub.NewLock()
}

// Lock acquires a consistency lock.
func (s *SyncMgr) Lock(id int) {
	s.e.charge(ModSync)
	s.e.rt.sub.Acquire(s.e.id, id)
	s.e.traceSync(conscheck.Acquire, id)
}

// Unlock releases a consistency lock.
func (s *SyncMgr) Unlock(id int) {
	s.e.charge(ModSync)
	s.e.traceSync(conscheck.Release, id)
	s.e.rt.sub.Release(s.e.id, id)
}

// Barrier crosses the global barrier (all nodes participate).
func (s *SyncMgr) Barrier() {
	s.e.charge(ModSync)
	s.e.traceSync(conscheck.Barrier, 0)
	s.e.rt.sub.Barrier(s.e.id)
	s.e.sampleBarrier()
	// The barrier is the consistent cut; the checkpoint coordinator (when
	// configured) counts crossings and captures here. Nil check only —
	// checkpointing off costs nothing on this path.
	if c := s.e.rt.ckpt; c != nil {
		c.AtBarrier(s.e.id)
	}
}

// syncCost returns the platform's sync-message cost for coordination that
// bypasses the consistency machinery.
func (s *SyncMgr) syncCost() vclock.Duration {
	p := s.e.rt.sub.Params()
	switch s.e.rt.sub.Kind() {
	case platform.SMP:
		return p.Bus.SyncNs
	case platform.HybridDSM:
		return p.SAN.SyncMsgNs
	default:
		return p.Ethernet.MsgCost(16)
	}
}

// NewRawLock creates a mutual-exclusion-only lock: no consistency actions,
// just serialization priced at the platform's sync cost. The paper's
// services are "highly parameterizable" (§4.1) — this is the
// consistency-free parameterization for models that manage consistency
// themselves.
func (s *SyncMgr) NewRawLock() int {
	s.e.charge(ModSync)
	rt := s.e.rt
	rt.rawMu.Lock()
	defer rt.rawMu.Unlock()
	id := len(rt.rawLocks)
	rt.rawLocks = append(rt.rawLocks, vclock.NewVLock())
	return id
}

func (s *SyncMgr) rawLock(id int) *vclock.VLock {
	rt := s.e.rt
	rt.rawMu.Lock()
	defer rt.rawMu.Unlock()
	return rt.rawLocks[id]
}

// RawLock acquires a mutual-exclusion-only lock. Raw locks order
// execution (and are traced as acquires on a disjoint id space) but
// perform no consistency actions.
func (s *SyncMgr) RawLock(id int) {
	s.e.charge(ModSync)
	s.rawLock(id).Acquire(s.e.rt.sub.Clock(s.e.id), s.syncCost(), 0)
	s.e.traceSync(conscheck.Acquire, rawLockTraceBase+id)
}

// RawUnlock releases a mutual-exclusion-only lock.
func (s *SyncMgr) RawUnlock(id int) {
	s.e.charge(ModSync)
	s.e.traceSync(conscheck.Release, rawLockTraceBase+id)
	s.rawLock(id).Release(s.e.rt.sub.Clock(s.e.id), s.syncCost())
}

// Event is a sticky cluster-wide event: once signaled, all current and
// future waiters proceed, with their clocks advanced past the signal time.
// Joins and completion notifications in the thread models build on it.
// It is a condition whose waiters await any broadcast, past or future.
type Event struct {
	vc vclock.VCond
}

// NewEvent creates an unfired event.
func (s *SyncMgr) NewEvent() *Event {
	s.e.charge(ModSync)
	return &Event{}
}

// Signal fires the event.
func (s *SyncMgr) Signal(ev *Event) {
	s.e.charge(ModSync)
	ev.vc.Broadcast(s.e.rt.sub.Clock(s.e.id), s.syncCost())
}

// Wait blocks until the event has fired.
func (s *SyncMgr) Wait(ev *Event) {
	s.e.charge(ModSync)
	ev.vc.Await(s.e.rt.sub.Clock(s.e.id), s.syncCost())
}

// TryLock attempts Lock without blocking; true means the lock is held.
func (s *SyncMgr) TryLock(id int) bool {
	s.e.charge(ModSync)
	ok := s.e.rt.sub.TryAcquire(s.e.id, id)
	if ok {
		s.e.traceSync(conscheck.Acquire, id)
	}
	return ok
}

// CondVar is a cluster-wide condition variable: a non-sticky wait/notify
// primitive from which thread models assemble pthread_cond_t and Win32
// event semantics. Unlike Event, a signal only wakes waiters already
// waiting.
type CondVar struct {
	vc vclock.VCond
}

// NewCond creates a condition variable.
func (s *SyncMgr) NewCond() *CondVar {
	s.e.charge(ModSync)
	return &CondVar{}
}

// CondWait atomically releases the caller's mutex (via unlock), waits for
// a signal, and reacquires it (via relock) — the standard condition-wait
// contract. unlock/relock are callbacks so any mutex flavor (consistency
// lock, raw lock, model-level lock) composes.
func (s *SyncMgr) CondWait(cv *CondVar, unlock, relock func()) {
	s.e.charge(ModSync)
	clk := s.e.rt.sub.Clock(s.e.id)
	cv.vc.WaitWith(clk, s.syncCost(), unlock)
	relock()
}

// CondBroadcast wakes all current waiters.
func (s *SyncMgr) CondBroadcast(cv *CondVar) {
	s.e.charge(ModSync)
	cv.vc.Broadcast(s.e.rt.sub.Clock(s.e.id), s.syncCost())
}

// CondSignal wakes waiters. The virtual-time condition primitive wakes
// all current waiters per generation; single-wakeup semantics are
// recovered by the waiter's predicate loop, exactly as POSIX permits
// (spurious wakeups are allowed).
func (s *SyncMgr) CondSignal(cv *CondVar) {
	s.e.charge(ModSync)
	cv.vc.Broadcast(s.e.rt.sub.Clock(s.e.id), s.syncCost())
}

// Semaphore is a cluster-wide counting semaphore.
type Semaphore struct {
	vs *vclock.VSemaphore
}

// NewSemaphore creates a semaphore with an initial count and a maximum
// (0 = unbounded).
func (s *SyncMgr) NewSemaphore(initial, max int) *Semaphore {
	s.e.charge(ModSync)
	return &Semaphore{vs: vclock.NewVSemaphore(initial, max)}
}

// SemAcquire takes one unit, blocking while the count is zero.
func (s *SyncMgr) SemAcquire(sem *Semaphore) {
	s.e.charge(ModSync)
	sem.vs.Acquire(s.e.rt.sub.Clock(s.e.id), s.syncCost())
}

// SemTryAcquire takes one unit without blocking.
func (s *SyncMgr) SemTryAcquire(sem *Semaphore) bool {
	s.e.charge(ModSync)
	return sem.vs.TryAcquire(s.e.rt.sub.Clock(s.e.id), s.syncCost())
}

// SemRelease returns n units; false if the maximum would be exceeded.
func (s *SyncMgr) SemRelease(sem *Semaphore, n int) bool {
	s.e.charge(ModSync)
	return sem.vs.Release(s.e.rt.sub.Clock(s.e.id), n, s.syncCost())
}
