// Package win32 implements a distributed Win32-threads programming model
// on top of HAMSTER (the WIN32 row of Table 2 — the largest port in the
// paper because of the breadth of the handle-based API). Threads, mutexes,
// events, and semaphores are uniform kernel objects waited on through
// WaitForSingleObject/WaitForMultipleObjects, which is exactly what the
// model layer reconstructs from HAMSTER's synchronization services. A
// thread object is a Task Management task: its id, its round-robin node
// and its exit code come from the core service.
//
// Method names mirror the Win32 entry points:
//
//	CreateThread          -> W32.CreateThread / CreateThreadOn
//	ExitThread            -> (return from the thread function)
//	GetCurrentThreadId    -> W32.GetCurrentThreadID
//	WaitForSingleObject   -> W32.WaitForSingleObject
//	WaitForMultipleObjects-> W32.WaitForMultipleObjects
//	CreateMutex           -> W32.CreateMutex
//	ReleaseMutex          -> W32.ReleaseMutex
//	CreateEvent           -> W32.CreateEvent
//	SetEvent / ResetEvent -> W32.SetEvent / ResetEvent
//	PulseEvent            -> W32.PulseEvent
//	CreateSemaphore       -> W32.CreateSemaphore
//	ReleaseSemaphore      -> W32.ReleaseSemaphore
//	InitializeCriticalSection -> W32.InitializeCriticalSection
//	EnterCriticalSection  -> W32.EnterCriticalSection
//	TryEnterCriticalSection -> W32.TryEnterCriticalSection
//	LeaveCriticalSection  -> W32.LeaveCriticalSection
//	Sleep                 -> W32.Sleep
//	CloseHandle           -> W32.CloseHandle
//	GetExitCodeThread     -> W32.GetExitCodeThread
package win32

import (
	"fmt"
	"sync"

	"hamster"
)

// Wait results, mirroring the Win32 constants.
const (
	WaitObject0 = 0
	WaitTimeout = 258
	WaitFailed  = ^uint32(0)
)

// Infinite is the Win32 INFINITE timeout.
const Infinite = ^uint32(0)

// System is one booted distributed-Win32 world.
type System struct {
	rt *hamster.Runtime
}

// Boot starts the model (Threaded mode forced).
func Boot(cfg hamster.Config) (*System, error) {
	cfg.Threaded = true
	rt, err := hamster.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("win32: %w", err)
	}
	return &System{rt: rt}, nil
}

// Shutdown stops the model.
func (s *System) Shutdown() { s.rt.Close() }

// Runtime exposes the underlying runtime.
func (s *System) Runtime() *hamster.Runtime { return s.rt }

// Main runs the initial thread on node 0.
func (s *System) Main(main func(w *W32)) {
	s.rt.Main(func(e *hamster.Env, self *hamster.Task) { main(&W32{e: e, self: self}) })
}

// W32 is one thread's handle on the API surface.
type W32 struct {
	e    *hamster.Env
	self *hamster.Task
}

// Handle is a waitable kernel object.
type Handle interface {
	// wait blocks until the object is signaled, consuming the signal
	// where the object type requires it (auto-reset events, mutexes,
	// semaphore units). tryOnly attempts without blocking.
	wait(w *W32, tryOnly bool) bool
	closeHandle()
}

// ThreadHandle is a thread object; signaled when the thread exits.
type ThreadHandle struct {
	task *hamster.Task
}

func (t *ThreadHandle) wait(w *W32, tryOnly bool) bool {
	if _, done := t.task.ExitCode(); done || tryOnly {
		return done
	}
	w.e.Task.Join(t.task)
	return true
}

func (t *ThreadHandle) closeHandle() {}

// MutexHandle is a mutex object; "signaled" means acquirable.
type MutexHandle struct {
	lock int
}

func (m *MutexHandle) wait(w *W32, tryOnly bool) bool {
	if tryOnly {
		return w.e.Sync.TryLock(m.lock)
	}
	w.e.Sync.Lock(m.lock)
	return true
}

func (m *MutexHandle) closeHandle() {}

// EventHandle is an event object (manual- or auto-reset).
type EventHandle struct {
	manual bool
	mu     sync.Mutex
	state  bool
	cv     *hamster.CondVar
}

func (ev *EventHandle) wait(w *W32, tryOnly bool) bool {
	ev.mu.Lock()
	for !ev.state {
		if tryOnly {
			ev.mu.Unlock()
			return false
		}
		w.e.Sync.CondWait(ev.cv,
			func() { ev.mu.Unlock() },
			func() { ev.mu.Lock() })
	}
	if !ev.manual {
		ev.state = false // auto-reset consumes the signal
	}
	ev.mu.Unlock()
	return true
}

func (ev *EventHandle) closeHandle() {}

// SemaphoreHandle is a semaphore object.
type SemaphoreHandle struct {
	sem *hamster.Semaphore
}

func (s *SemaphoreHandle) wait(w *W32, tryOnly bool) bool {
	if tryOnly {
		return w.e.Sync.SemTryAcquire(s.sem)
	}
	w.e.Sync.SemAcquire(s.sem)
	return true
}

func (s *SemaphoreHandle) closeHandle() {}

// CreateThread starts a thread on the next node, round-robin.
func (w *W32) CreateThread(fn func(w *W32) int64) (*ThreadHandle, error) {
	return &ThreadHandle{task: w.e.Task.Spawn(thread(fn))}, nil
}

// CreateThreadOn starts a thread on an explicit node (the forwarding case
// of §5.2: the creation routine executes on the node the thread runs on).
func (w *W32) CreateThreadOn(node int, fn func(w *W32) int64) (*ThreadHandle, error) {
	task, err := w.e.Task.SpawnOn(node, thread(fn))
	if err != nil {
		return nil, fmt.Errorf("win32: CreateThread: %w", err)
	}
	return &ThreadHandle{task: task}, nil
}

// thread adapts a thread function to a Task Management task body.
func thread(fn func(w *W32) int64) func(*hamster.Env, *hamster.Task) int64 {
	return func(e *hamster.Env, self *hamster.Task) int64 { return fn(&W32{e: e, self: self}) }
}

// GetCurrentThreadID returns the caller's thread id.
func (w *W32) GetCurrentThreadID() int64 { return w.self.Num() }

// GetExitCodeThread returns a waited-for thread's exit code.
func (w *W32) GetExitCodeThread(t *ThreadHandle) (int64, bool) { return t.task.ExitCode() }

// WaitForSingleObject waits for a handle. Timeout 0 polls; Infinite
// blocks. (Finite nonzero timeouts are not modeled — virtual time has no
// spontaneous progress to time out against.)
func (w *W32) WaitForSingleObject(h Handle, timeoutMs uint32) uint32 {
	if timeoutMs == 0 {
		if h.wait(w, true) {
			return WaitObject0
		}
		return WaitTimeout
	}
	if h.wait(w, false) {
		return WaitObject0
	}
	return WaitFailed
}

// WaitForMultipleObjects with waitAll waits for every handle in order;
// without waitAll it polls for any signaled handle, blocking on the first
// if none is ready (an approximation documented for this model).
func (w *W32) WaitForMultipleObjects(handles []Handle, waitAll bool, timeoutMs uint32) uint32 {
	if waitAll {
		for _, h := range handles {
			if r := w.WaitForSingleObject(h, timeoutMs); r != WaitObject0 {
				return r
			}
		}
		return WaitObject0
	}
	for i, h := range handles {
		if h.wait(w, true) {
			return WaitObject0 + uint32(i)
		}
	}
	if timeoutMs == 0 {
		return WaitTimeout
	}
	h := handles[0]
	if h.wait(w, false) {
		return WaitObject0
	}
	return WaitFailed
}

// CreateMutex creates a mutex object.
func (w *W32) CreateMutex() *MutexHandle {
	return &MutexHandle{lock: w.e.Sync.NewLock()}
}

// ReleaseMutex releases a mutex.
func (w *W32) ReleaseMutex(m *MutexHandle) { w.e.Sync.Unlock(m.lock) }

// CreateEvent creates an event object.
func (w *W32) CreateEvent(manualReset, initialState bool) *EventHandle {
	return &EventHandle{manual: manualReset, state: initialState, cv: w.e.Sync.NewCond()}
}

// SetEvent signals an event.
func (w *W32) SetEvent(ev *EventHandle) {
	ev.mu.Lock()
	ev.state = true
	ev.mu.Unlock()
	w.e.Sync.CondBroadcast(ev.cv)
}

// ResetEvent clears an event.
func (w *W32) ResetEvent(ev *EventHandle) {
	ev.mu.Lock()
	ev.state = false
	ev.mu.Unlock()
}

// PulseEvent signals then immediately resets: current waiters wake, the
// event stays unsignaled.
func (w *W32) PulseEvent(ev *EventHandle) {
	ev.mu.Lock()
	ev.state = true
	ev.mu.Unlock()
	w.e.Sync.CondBroadcast(ev.cv)
	ev.mu.Lock()
	ev.state = false
	ev.mu.Unlock()
}

// CreateSemaphore creates a semaphore object.
func (w *W32) CreateSemaphore(initial, max int) *SemaphoreHandle {
	return &SemaphoreHandle{sem: w.e.Sync.NewSemaphore(initial, max)}
}

// ReleaseSemaphore returns count units; false if the maximum would be
// exceeded.
func (w *W32) ReleaseSemaphore(s *SemaphoreHandle, count int) bool {
	return w.e.Sync.SemRelease(s.sem, count)
}

// CriticalSection is a CRITICAL_SECTION: a cheap intra-program lock
// without consistency actions (Win32 critical sections are process-local;
// the distributed model prices them as raw locks).
type CriticalSection struct {
	raw int
}

// InitializeCriticalSection prepares a critical section.
func (w *W32) InitializeCriticalSection() *CriticalSection {
	return &CriticalSection{raw: w.e.Sync.NewRawLock()}
}

// EnterCriticalSection acquires it.
func (w *W32) EnterCriticalSection(cs *CriticalSection) { w.e.Sync.RawLock(cs.raw) }

// LeaveCriticalSection releases it.
func (w *W32) LeaveCriticalSection(cs *CriticalSection) { w.e.Sync.RawUnlock(cs.raw) }

// Sleep advances this thread's virtual time by ms milliseconds.
func (w *W32) Sleep(ms uint32) {
	w.e.Runtime().Substrate().Clock(w.e.ID()).Advance(hamster.Duration(ms) * 1_000_000)
}

// CloseHandle releases a kernel object.
func (w *W32) CloseHandle(h Handle) { h.closeHandle() }

// ReadF64 loads from shared memory.
func (w *W32) ReadF64(a hamster.Addr) float64 { return w.e.ReadF64(a) }

// WriteF64 stores to shared memory.
func (w *W32) WriteF64(a hamster.Addr, v float64) { w.e.WriteF64(a, v) }

// ReadI64 loads an int64 from shared memory.
func (w *W32) ReadI64(a hamster.Addr) int64 { return w.e.ReadI64(a) }

// WriteI64 stores an int64 to shared memory.
func (w *W32) WriteI64(a hamster.Addr, v int64) { w.e.WriteI64(a, v) }

// VirtualAlloc allocates shared memory.
func (w *W32) VirtualAlloc(bytes uint64) hamster.Addr {
	r, err := w.e.Mem.Alloc(bytes, hamster.AllocOpts{Name: "VirtualAlloc", Policy: hamster.Block})
	if err != nil {
		panic(fmt.Sprintf("win32: VirtualAlloc: %v", err))
	}
	return r.Base
}

// Compute charges local CPU work.
func (w *W32) Compute(flops uint64) { w.e.Compute(flops) }

// Env exposes the raw HAMSTER services.
func (w *W32) Env() *hamster.Env { return w.e }
