package vclock

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
	q       Queue
	parties int
	arrived int
	clocks  []*Clock // participants of the current generation
	gen     uint64
}

// NewVBarrier creates a barrier for the given number of parties.
func NewVBarrier(parties int) *VBarrier {
	if parties <= 0 {
		panic("vclock: barrier parties must be positive")
	}
	return &VBarrier{parties: parties}
}

// Arrive enters the barrier at the clock's current time plus arriveCost
// (the cost of announcing arrival), blocks until all parties arrive, and
// leaves with the clock advanced to the latest arrival of THIS generation
// plus releaseCost. It returns the caller's time on leaving. On a poisoned
// cluster every arrival panics, the last too (Clock.Park).
func (b *VBarrier) Arrive(c *Clock, arriveCost, releaseCost Duration) Time {
	c.AdvanceCat(CatProtocol, arriveCost)

	b.q.Lock()
	c.check(&b.q)
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
		b.q.Broadcast()
	} else {
		// A fast party cannot start the next generation before this one
		// has woken: the next generation needs this party's arrival too.
		c.Park(&b.q, func() bool { return b.gen != myGen })
	}
	b.q.Unlock()

	c.AdvanceCat(CatProtocol, releaseCost)
	return c.Now()
}

// VLock is a virtual-time mutual-exclusion lock.
//
// Virtual time requires locks to serialize not just execution but the
// simulated timeline: the n-th holder cannot acquire before the (n-1)-th
// holder released. VLock tracks the virtual time at which the lock became
// free and pushes each new holder's clock past it.
type VLock struct {
	q      Queue
	held   bool
	freeAt Time // virtual time at which the previous holder released
}

// NewVLock returns an unlocked virtual lock.
func NewVLock() *VLock { return &VLock{} }

// Acquire obtains the lock. The caller's clock is advanced by reqCost (the
// cost of issuing the request), then to at least the time the lock became
// free, then by grantCost (the cost of the grant reaching the caller).
// It returns the virtual time at which the caller holds the lock.
func (l *VLock) Acquire(c *Clock, reqCost, grantCost Duration) Time {
	l.acquire(c, reqCost, grantCost, true)
	return c.Now()
}

// TryAcquire attempts to obtain the lock without blocking. On success it
// behaves like Acquire and returns true.
func (l *VLock) TryAcquire(c *Clock, reqCost, grantCost Duration) bool {
	return l.acquire(c, reqCost, grantCost, false)
}

// acquire is Acquire, or with wait false TryAcquire.
func (l *VLock) acquire(c *Clock, reqCost, grantCost Duration, wait bool) bool {
	c.AdvanceCat(CatProtocol, reqCost)
	l.q.Lock()
	if wait {
		c.Park(&l.q, func() bool { return !l.held })
	} else if l.held {
		l.q.Unlock()
		return false
	}
	l.held = true
	free := l.freeAt
	l.q.Unlock()
	c.AdvanceToCat(CatProtocol, free)
	c.AdvanceCat(CatProtocol, grantCost)
	return true
}

// Release frees the lock, charging relCost to the caller first. The lock's
// free time becomes the caller's clock after the charge.
func (l *VLock) Release(c *Clock, relCost Duration) {
	c.AdvanceCat(CatProtocol, relCost)
	now := c.Now()
	l.q.Lock()
	if !l.held {
		l.q.Unlock()
		panic("vclock: release of unheld VLock")
	}
	l.held = false
	if now > l.freeAt {
		l.freeAt = now
	}
	l.q.cond.Signal()
	l.q.Unlock()
}

// VCond is a virtual-time condition signal: waiters block until signaled,
// and a signaled waiter's clock is advanced past the signaler's time plus a
// delivery cost. It models cross-node event notification (e.g., JiaJia's
// jia_wait / thread join) without spinning. The zero VCond is unsignaled.
type VCond struct {
	q        Queue
	signalT  Time
	signaled uint64 // generation counter
}

// Broadcast wakes all current waiters with the signaler's time.
func (v *VCond) Broadcast(clk *Clock, sendCost Duration) {
	clk.AdvanceCat(CatProtocol, sendCost)
	now := clk.Now()
	v.q.Lock()
	if now > v.signalT {
		v.signalT = now
	}
	v.signaled++
	v.q.Broadcast()
	v.q.Unlock()
}

// WaitWith blocks until Signal or Broadcast is called after it began, then
// advances clk past the signal time plus deliverCost. Its entry is
// atomic: beforeWait runs after the waiter is registered (so a signal
// issued once beforeWait has started can no longer be missed) but before
// blocking. Condition-variable implementations pass their mutex-unlock
// here to get the POSIX atomic-release-and-wait contract without lost
// wakeups.
func (v *VCond) WaitWith(clk *Clock, deliverCost Duration, beforeWait func()) {
	v.q.Lock()
	gen := v.signaled
	beforeWait()
	v.waitPast(clk, deliverCost, gen)
}

// Await is the sticky wait: it blocks until the condition has been
// broadcast at all, at any time before or after the call, then advances
// clk past the latest signal time plus deliverCost. An event that stays
// signaled once fired is a VCond awaited, never waited with.
func (v *VCond) Await(clk *Clock, deliverCost Duration) {
	v.q.Lock()
	v.waitPast(clk, deliverCost, 0)
}

// waitPast parks until generation gen has passed, then reconciles clk
// with the signal. The caller holds v's lock; waitPast releases it.
func (v *VCond) waitPast(clk *Clock, deliverCost Duration, gen uint64) {
	clk.Park(&v.q, func() bool { return v.signaled != gen })
	t := v.signalT
	v.q.Unlock()
	clk.AdvanceToCat(CatProtocol, t)
	clk.AdvanceCat(CatProtocol, deliverCost)
}

// VSemaphore is a virtual-time counting semaphore. Acquire blocks until a
// unit is available and reconciles the acquirer's clock with the release
// that produced the unit.
type VSemaphore struct {
	q       Queue
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
	return &VSemaphore{count: initial, max: max}
}

// Acquire takes one unit, charging reqCost before the wait.
func (s *VSemaphore) Acquire(c *Clock, reqCost Duration) { s.take(c, reqCost, true) }

// TryAcquire takes a unit if one is available without blocking.
func (s *VSemaphore) TryAcquire(c *Clock, reqCost Duration) bool { return s.take(c, reqCost, false) }

// take is Acquire, or with wait false TryAcquire.
func (s *VSemaphore) take(c *Clock, reqCost Duration, wait bool) bool {
	c.AdvanceCat(CatProtocol, reqCost)
	s.q.Lock()
	if wait {
		c.Park(&s.q, func() bool { return s.count > 0 })
	} else if s.count == 0 {
		s.q.Unlock()
		return false
	}
	s.count--
	t := s.availAt
	s.q.Unlock()
	c.AdvanceToCat(CatProtocol, t)
	return true
}

// Release returns n units. It reports false, releasing nothing, when n is
// not positive or the maximum would be exceeded, matching Win32
// ReleaseSemaphore semantics.
func (s *VSemaphore) Release(c *Clock, n int, relCost Duration) bool {
	c.AdvanceCat(CatProtocol, relCost)
	now := c.Now()
	s.q.Lock()
	defer s.q.Unlock()
	if n <= 0 || (s.max > 0 && s.count+n > s.max) {
		return false
	}
	s.count += n
	if now > s.availAt {
		s.availAt = now
	}
	if n == 1 {
		s.q.cond.Signal()
	} else {
		s.q.Broadcast()
	}
	return true
}
