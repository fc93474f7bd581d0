package vclock

import "sync"

// All charges made by the virtual-time synchronization primitives —
// request/grant/release costs and reconciliation waits — are attributed
// to CatProtocol: they are the cost of coordinating, not of computing.

// VBarrier is a virtual-time barrier for a fixed set of participants.
//
// Arrive blocks the calling goroutine until all parties have arrived, then
// advances the caller's clock to the latest arrival plus the supplied
// per-party release cost. This models the semantics of any real barrier —
// nobody leaves before the last arrival — while letting each platform
// charge its own communication cost.
//
// Reconciliation happens at a quiescent instant. When the last party
// arrives, every other party is blocked inside Arrive, so no stolen
// charge of the phase (Clock.Steal runs on the issuing party's goroutine,
// before that party arrives) can still be in flight. The last arriver
// takes each participant's arrival from its clock's ledger — own charges
// plus the stolen charges whose messages reached it before it got there;
// a later message found it waiting and its handler ran in the wait — then
// advances every clock to the latest arrival and closes every ledger,
// under the barrier mutex, before anyone is released. Steals from the
// next phase can only land after that. The release is therefore a pure
// function of the parties' own charges and their messages' virtual times:
// barrier-structured runs are bit-identical across host schedules, with
// or without fault retries desynchronizing the arrivals.
type VBarrier struct {
	mu       sync.Mutex
	parties  int
	arrived  int
	clocks   []*Clock // participants of the current generation
	gen      uint64
	release  *sync.Cond
	abortMsg string // non-empty once Abort poisons the barrier
}

// NewVBarrier creates a barrier for the given number of parties.
func NewVBarrier(parties int) *VBarrier {
	if parties <= 0 {
		panic("vclock: barrier parties must be positive")
	}
	b := &VBarrier{parties: parties}
	b.release = sync.NewCond(&b.mu)
	return b
}

// Arrive enters the barrier at the clock's current time plus arriveCost
// (the cost of announcing arrival), blocks until all parties arrive, and
// leaves with the clock advanced to the latest arrival of THIS generation
// plus releaseCost. It returns the caller's time on leaving.
func (b *VBarrier) Arrive(c *Clock, arriveCost, releaseCost Duration) Time {
	c.AdvanceCat(CatProtocol, arriveCost)

	b.mu.Lock()
	if b.abortMsg != "" {
		msg := b.abortMsg
		b.mu.Unlock()
		panic(msg)
	}
	myGen := b.gen
	b.clocks = append(b.clocks, c)
	b.arrived++
	if b.arrived == b.parties {
		var rel Time
		for _, pc := range b.clocks {
			if t := pc.arrival(); t > rel {
				rel = t
			}
		}
		for _, pc := range b.clocks {
			pc.AdvanceToCat(CatProtocol, rel)
			pc.settle()
		}
		b.clocks = b.clocks[:0]
		b.arrived = 0
		b.gen++
		b.release.Broadcast()
	} else {
		// A fast party cannot start the next generation before this one
		// has woken: the next generation needs this party's arrival too.
		for b.gen == myGen {
			if b.abortMsg != "" {
				msg := b.abortMsg
				b.mu.Unlock()
				panic(msg)
			}
			b.release.Wait()
		}
	}
	b.mu.Unlock()

	c.AdvanceCat(CatProtocol, releaseCost)
	return c.Now()
}

// Abort poisons the barrier: goroutines blocked in Arrive, and any that
// arrive later, panic with the given reason instead of waiting for
// parties that will never come. Graceful-degradation paths use it so a
// fail-stopped node cannot deadlock its peers at a rendezvous; the
// per-node panic recovery in the runtime turns the panics into one clean
// diagnostic.
func (b *VBarrier) Abort(reason string) {
	b.mu.Lock()
	if b.abortMsg == "" {
		b.abortMsg = "vclock: barrier aborted: " + reason
	}
	b.release.Broadcast()
	b.mu.Unlock()
}

// VLock is a virtual-time mutual-exclusion lock.
//
// Virtual time requires locks to serialize not just execution but the
// simulated timeline: the n-th holder cannot acquire before the (n-1)-th
// holder released. VLock tracks the virtual time at which the lock became
// free and pushes each new holder's clock past it.
type VLock struct {
	mu       sync.Mutex
	cond     *sync.Cond
	held     bool
	freeAt   Time   // virtual time at which the previous holder released
	abortMsg string // non-empty once Abort poisons the lock
}

// NewVLock returns an unlocked virtual lock.
func NewVLock() *VLock {
	l := &VLock{}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// Acquire obtains the lock. The caller's clock is advanced by reqCost (the
// cost of issuing the request), then to at least the time the lock became
// free, then by grantCost (the cost of the grant reaching the caller).
// It returns the virtual time at which the caller holds the lock.
func (l *VLock) Acquire(c *Clock, reqCost, grantCost Duration) Time {
	c.AdvanceCat(CatProtocol, reqCost)
	l.mu.Lock()
	for l.held {
		if l.abortMsg != "" {
			msg := l.abortMsg
			l.mu.Unlock()
			panic(msg)
		}
		l.cond.Wait()
	}
	if l.abortMsg != "" {
		msg := l.abortMsg
		l.mu.Unlock()
		panic(msg)
	}
	l.held = true
	free := l.freeAt
	l.mu.Unlock()

	c.AdvanceToCat(CatProtocol, free)
	c.AdvanceCat(CatProtocol, grantCost)
	return c.Now()
}

// TryAcquire attempts to obtain the lock without blocking. On success it
// behaves like Acquire and returns true.
func (l *VLock) TryAcquire(c *Clock, reqCost, grantCost Duration) bool {
	c.AdvanceCat(CatProtocol, reqCost)
	l.mu.Lock()
	if l.held {
		l.mu.Unlock()
		return false
	}
	l.held = true
	free := l.freeAt
	l.mu.Unlock()
	c.AdvanceToCat(CatProtocol, free)
	c.AdvanceCat(CatProtocol, grantCost)
	return true
}

// Release frees the lock, charging relCost to the caller first. The lock's
// free time becomes the caller's clock after the charge.
func (l *VLock) Release(c *Clock, relCost Duration) {
	c.AdvanceCat(CatProtocol, relCost)
	now := c.Now()
	l.mu.Lock()
	if !l.held {
		l.mu.Unlock()
		panic("vclock: release of unheld VLock")
	}
	l.held = false
	if now > l.freeAt {
		l.freeAt = now
	}
	l.cond.Signal()
	l.mu.Unlock()
}

// Abort poisons the lock: goroutines blocked in Acquire, and any that
// try later, panic with the given reason. The holder (if any) may still
// Release normally. See VBarrier.Abort.
func (l *VLock) Abort(reason string) {
	l.mu.Lock()
	if l.abortMsg == "" {
		l.abortMsg = "vclock: lock aborted: " + reason
	}
	l.cond.Broadcast()
	l.mu.Unlock()
}

// VCond is a virtual-time condition signal: waiters block until signaled,
// and a signaled waiter's clock is advanced past the signaler's time plus a
// delivery cost. It models cross-node event notification (e.g., JiaJia's
// jia_wait / thread join) without spinning.
type VCond struct {
	mu       sync.Mutex
	cond     *sync.Cond
	signalT  Time
	signaled uint64 // generation counter
}

// NewVCond returns a new condition signal.
func NewVCond() *VCond {
	c := &VCond{}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Broadcast wakes all current waiters with the signaler's time.
func (v *VCond) Broadcast(clk *Clock, sendCost Duration) {
	clk.AdvanceCat(CatProtocol, sendCost)
	now := clk.Now()
	v.mu.Lock()
	if now > v.signalT {
		v.signalT = now
	}
	v.signaled++
	v.cond.Broadcast()
	v.mu.Unlock()
}

// VSemaphore is a virtual-time counting semaphore. Acquire blocks until a
// unit is available and reconciles the acquirer's clock with the release
// that produced the unit.
type VSemaphore struct {
	mu      sync.Mutex
	cond    *sync.Cond
	count   int
	max     int
	availAt Time // virtual time the most recent unit became available
}

// NewVSemaphore creates a semaphore with an initial count and a maximum
// (0 max means unbounded).
func NewVSemaphore(initial, max int) *VSemaphore {
	if initial < 0 || (max > 0 && initial > max) {
		panic("vclock: bad semaphore initial count")
	}
	s := &VSemaphore{count: initial, max: max}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Acquire takes one unit, charging reqCost before the wait.
func (s *VSemaphore) Acquire(c *Clock, reqCost Duration) {
	c.AdvanceCat(CatProtocol, reqCost)
	s.mu.Lock()
	for s.count == 0 {
		s.cond.Wait()
	}
	s.count--
	t := s.availAt
	s.mu.Unlock()
	c.AdvanceToCat(CatProtocol, t)
}

// TryAcquire takes a unit if one is available without blocking.
func (s *VSemaphore) TryAcquire(c *Clock, reqCost Duration) bool {
	c.AdvanceCat(CatProtocol, reqCost)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.count == 0 {
		return false
	}
	s.count--
	c.AdvanceToCat(CatProtocol, s.availAt)
	return true
}

// Release returns n units. It reports false (releasing nothing) when the
// maximum would be exceeded, matching Win32 ReleaseSemaphore semantics.
func (s *VSemaphore) Release(c *Clock, n int, relCost Duration) bool {
	c.AdvanceCat(CatProtocol, relCost)
	now := c.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.max > 0 && s.count+n > s.max {
		return false
	}
	s.count += n
	if now > s.availAt {
		s.availAt = now
	}
	if n == 1 {
		s.cond.Signal()
	} else {
		s.cond.Broadcast()
	}
	return true
}

// WaitWith blocks until Signal or Broadcast is called after it began, then
// advances clk past the signal time plus deliverCost. Its entry is
// atomic: beforeWait runs after the waiter is registered (so a signal
// issued once beforeWait has started can no longer be missed) but before
// blocking. Condition-variable implementations pass their mutex-unlock
// here to get the POSIX atomic-release-and-wait contract without lost
// wakeups.
func (v *VCond) WaitWith(clk *Clock, deliverCost Duration, beforeWait func()) {
	v.mu.Lock()
	gen := v.signaled
	beforeWait()
	for v.signaled == gen {
		v.cond.Wait()
	}
	t := v.signalT
	v.mu.Unlock()
	clk.AdvanceToCat(CatProtocol, t)
	clk.AdvanceCat(CatProtocol, deliverCost)
}
